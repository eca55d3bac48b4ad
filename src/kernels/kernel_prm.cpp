#include "kernels/kernel_prm.h"

#include "kernels/kernel_arm_common.h"
#include "plan/prm.h"
#include "util/roi.h"
#include "util/stopwatch.h"

namespace rtr {

void
PrmKernel::addOptions(ArgParser &parser) const
{
    addArmOptions(parser);
    parser.addOption("samples", "3000", "Roadmap samples");
    parser.addOption("neighbors", "10", "k nearest connections/sample");
    parser.addOption("edge-length", "1.2", "Max edge length (rad, L2)");
    addThreadsOption(parser);
}

KernelReport
PrmKernel::run(const ArgParser &args) const
{
    KernelReport report;
    applyThreadsOption(args);
    ArmProblem problem = makeArmProblem(args);

    PrmConfig config;
    config.n_samples = static_cast<std::size_t>(args.getInt("samples"));
    config.k_neighbors =
        static_cast<std::size_t>(args.getInt("neighbors"));
    config.max_edge_length = args.getDouble("edge-length");

    PrmPlanner planner(problem.space, *problem.checker, config);

    // ---- Offline phase (outside the ROI) ----
    Rng build_rng(static_cast<std::uint64_t>(args.getInt("seed")));
    PhaseProfiler offline_profiler;
    Stopwatch offline_timer;
    PrmBuildStats build = planner.build(build_rng, &offline_profiler);
    double offline_seconds = offline_timer.elapsedSec();

    // ---- Online query (the ROI) ----
    Stopwatch roi_timer;
    MotionPlan plan;
    {
        ScopedRoi roi;
        plan = planner.query(problem.start, problem.goal,
                             &report.profiler);
    }
    report.roi_seconds = roi_timer.elapsedSec();

    report.success = plan.found;
    report.metrics["graph_search_fraction"] =
        report.phaseFraction("graph-search");
    report.metrics["online_connect_fraction"] =
        report.phaseFraction("online-connect");
    report.metrics["l2_norm_evals"] =
        static_cast<double>(planner.lastHeuristicEvals());
    report.metrics["path_cost_rad"] = plan.cost;
    report.metrics["roadmap_nodes"] = static_cast<double>(build.nodes);
    report.metrics["roadmap_edges"] = static_cast<double>(build.edges);
    report.metrics["offline_seconds"] = offline_seconds;
    report.metrics["offline_collision_checks"] =
        static_cast<double>(build.collision_checks);
    return report;
}

} // namespace rtr
