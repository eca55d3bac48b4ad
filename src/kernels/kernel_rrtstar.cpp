#include "kernels/kernel_rrtstar.h"

#include "kernels/kernel_arm_common.h"
#include "plan/rrt_star.h"
#include "util/roi.h"
#include "util/stopwatch.h"

namespace rtr {

void
RrtStarKernel::addOptions(ArgParser &parser) const
{
    addArmOptions(parser);
    parser.addOption("samples", "200000", "Sample budget");
    parser.addOption("epsilon", "0.25", "Epsilon (minimum movement)");
    parser.addOption("bias", "0.05", "Random number generation bias");
    parser.addOption("radius", "0.6", "Neighborhood distance");
    parser.addFlag("refine",
                   "Spend the full sample budget refining the path "
                   "instead of stopping at the first solution");
}

KernelReport
RrtStarKernel::run(const ArgParser &args) const
{
    KernelReport report;
    ArmProblem problem = makeArmProblem(args);

    RrtStarConfig config;
    config.max_samples = static_cast<std::size_t>(args.getInt("samples"));
    config.step_size = args.getDouble("epsilon");
    config.goal_bias = args.getDouble("bias");
    config.rewire_radius = args.getDouble("radius");
    if (args.getFlag("refine"))
        config.refine_factor = 1e18;

    RrtStarPlanner planner(problem.space, *problem.checker, config);
    Rng rng(static_cast<std::uint64_t>(args.getInt("seed")));

    // ---- Planning (the ROI) ----
    Stopwatch roi_timer;
    RrtStarPlan plan;
    {
        ScopedRoi roi;
        plan = planner.plan(problem.start, problem.goal, rng,
                            &report.profiler);
    }
    report.roi_seconds = roi_timer.elapsedSec();

    report.success = plan.found;
    report.metrics["collision_fraction"] =
        report.phaseFraction("collision");
    report.metrics["nn_fraction"] = report.phaseFraction("nn-search") +
                                    report.phaseFraction("rewire");
    report.metrics["rewires"] = static_cast<double>(plan.rewires);
    report.metrics["samples"] = static_cast<double>(plan.samples_drawn);
    report.metrics["tree_size"] = static_cast<double>(plan.tree_size);
    report.metrics["collision_checks"] =
        static_cast<double>(plan.collision_checks);
    report.metrics["path_cost_rad"] = plan.cost;
    return report;
}

} // namespace rtr
