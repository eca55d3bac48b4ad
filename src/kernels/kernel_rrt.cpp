#include "kernels/kernel_rrt.h"

#include "kernels/kernel_arm_common.h"
#include "plan/rrt.h"
#include "util/roi.h"
#include "util/stopwatch.h"

namespace rtr {

void
RrtKernel::addOptions(ArgParser &parser) const
{
    addArmOptions(parser);
    parser.addOption("samples", "200000", "Maximum samples");
    parser.addOption("epsilon", "0.25", "Epsilon (minimum movement)");
    parser.addOption("bias", "0.05", "Random number generation bias");
    parser.addOption("no-kdtree", "0",
                     "1 = brute-force nearest neighbors");
}

KernelReport
RrtKernel::run(const ArgParser &args) const
{
    KernelReport report;
    ArmProblem problem = makeArmProblem(args);

    RrtConfig config;
    config.max_samples = static_cast<std::size_t>(args.getInt("samples"));
    config.step_size = args.getDouble("epsilon");
    config.goal_bias = args.getDouble("bias");
    config.use_kdtree = args.getInt("no-kdtree") == 0;

    RrtPlanner planner(problem.space, *problem.checker, config);
    Rng rng(static_cast<std::uint64_t>(args.getInt("seed")));

    // ---- Planning (the ROI; everything is online for RRT) ----
    Stopwatch roi_timer;
    MotionPlan plan;
    {
        ScopedRoi roi;
        plan = planner.plan(problem.start, problem.goal, rng,
                            &report.profiler);
    }
    report.roi_seconds = roi_timer.elapsedSec();

    report.success = plan.found;
    report.metrics["collision_fraction"] =
        report.phaseFraction("collision");
    report.metrics["nn_fraction"] = report.phaseFraction("nn-search");
    report.metrics["samples"] = static_cast<double>(plan.samples_drawn);
    report.metrics["tree_size"] = static_cast<double>(plan.tree_size);
    report.metrics["collision_checks"] =
        static_cast<double>(plan.collision_checks);
    report.metrics["path_cost_rad"] = plan.cost;
    return report;
}

} // namespace rtr
