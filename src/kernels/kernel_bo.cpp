#include "kernels/kernel_bo.h"

#include "control/ball_throw.h"
#include "control/bayes_opt.h"
#include "util/roi.h"
#include "util/stopwatch.h"

namespace rtr {

void
BoKernel::addOptions(ArgParser &parser) const
{
    parser.addOption("iterations", "45", "Learning iterations");
    parser.addOption("candidates", "25000",
                     "Acquisition candidates per iteration");
    parser.addOption("kappa", "2.0", "UCB exploration weight");
    parser.addOption("goal", "5.0", "Throw goal distance (m)");
    parser.addOption("seed", "1", "Random seed");
    addThreadsOption(parser);
    addBatchOption(parser);
}

KernelReport
BoKernel::run(const ArgParser &args) const
{
    KernelReport report;
    applyThreadsOption(args);
    BallThrowEnv env(args.getDouble("goal"));

    BoConfig config;
    config.iterations = static_cast<int>(args.getInt("iterations"));
    config.candidates_per_iteration =
        static_cast<int>(args.getInt("candidates"));
    config.ucb_kappa = args.getDouble("kappa");
    config.batch_engine = batchEngineFromArgs(args);
    BayesOpt optimizer(config);

    Rng rng(static_cast<std::uint64_t>(args.getInt("seed")));
    auto reward = [&env](const std::vector<double> &params) {
        return env.evaluate(params);
    };
    auto trace = [&env](const std::vector<double> &params) {
        return env.flightTrace(params);
    };

    // ---- Learning (the ROI) ----
    BoResult result;
    Stopwatch roi_timer;
    {
        ScopedRoi roi;
        result = optimizer.optimize(reward, env.lowerBounds(),
                                    env.upperBounds(), rng,
                                    &report.profiler, trace);
    }
    report.roi_seconds = roi_timer.elapsedSec();

    report.success = result.best_reward > -0.25;
    report.metrics["sort_fraction"] = report.phaseFraction("sort");
    report.metrics["acquisition_fraction"] =
        report.phaseFraction("acquisition");
    report.metrics["gp_fit_fraction"] = report.phaseFraction("gp-fit");
    report.metrics["best_reward"] = result.best_reward;
    report.metrics["acquisition_evals"] =
        static_cast<double>(result.acquisition_evals);
    report.metrics["sort_ns_total"] =
        static_cast<double>(report.profiler.phaseNs("sort"));
    report.series["reward"] = std::move(result.reward_history);
    return report;
}

} // namespace rtr
