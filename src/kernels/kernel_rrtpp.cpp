#include "kernels/kernel_rrtpp.h"

#include "kernels/kernel_arm_common.h"
#include "plan/rrt.h"
#include "plan/shortcut.h"
#include "util/roi.h"
#include "util/stopwatch.h"

namespace rtr {

void
RrtPpKernel::addOptions(ArgParser &parser) const
{
    addArmOptions(parser);
    parser.addOption("samples", "200000", "Maximum samples");
    parser.addOption("epsilon", "0.25", "Epsilon (minimum movement)");
    parser.addOption("bias", "0.05", "Random number generation bias");
    parser.addOption("shortcut-iterations", "200",
                     "Shortcut attempts in post-processing");
}

KernelReport
RrtPpKernel::run(const ArgParser &args) const
{
    KernelReport report;
    ArmProblem problem = makeArmProblem(args);

    RrtConfig config;
    config.max_samples = static_cast<std::size_t>(args.getInt("samples"));
    config.step_size = args.getDouble("epsilon");
    config.goal_bias = args.getDouble("bias");

    ShortcutConfig shortcut_config;
    shortcut_config.iterations =
        static_cast<std::size_t>(args.getInt("shortcut-iterations"));

    RrtPlanner planner(problem.space, *problem.checker, config);
    Rng rng(static_cast<std::uint64_t>(args.getInt("seed")));

    // ---- Planning + post-processing (the ROI) ----
    Stopwatch roi_timer;
    MotionPlan plan;
    ShortcutStats shortcut;
    {
        ScopedRoi roi;
        plan = planner.plan(problem.start, problem.goal, rng,
                            &report.profiler);
        if (plan.found)
            shortcut = shortcutPath(plan.path, *problem.checker,
                                    shortcut_config, rng,
                                    &report.profiler);
    }
    report.roi_seconds = roi_timer.elapsedSec();

    report.success = plan.found;
    report.metrics["collision_fraction"] =
        report.phaseFraction("collision");
    report.metrics["nn_fraction"] = report.phaseFraction("nn-search");
    report.metrics["shortcut_fraction"] =
        report.phaseFraction("shortcut");
    report.metrics["samples"] = static_cast<double>(plan.samples_drawn);
    report.metrics["cost_before_rad"] = shortcut.cost_before;
    report.metrics["cost_after_rad"] = shortcut.cost_after;
    report.metrics["shortcuts_applied"] =
        static_cast<double>(shortcut.shortcuts_applied);
    report.metrics["path_cost_rad"] = shortcut.cost_after;
    return report;
}

} // namespace rtr
