#include "kernels/kernel_sym.h"

#include "symbolic/blocks_world.h"
#include "symbolic/firefight.h"
#include "symbolic/planner.h"
#include "util/roi.h"
#include "util/stopwatch.h"

namespace rtr {

namespace {

/** Shared execution path of both symbolic kernels. */
KernelReport
runSymbolic(const SymbolicProblem &problem, const ArgParser &args)
{
    KernelReport report;
    SymbolicPlannerConfig config;
    config.epsilon = args.getDouble("epsilon");
    config.heuristic = args.get("heuristic") == "goal-count"
                           ? SymbolicPlannerConfig::Heuristic::GoalCount
                           : SymbolicPlannerConfig::Heuristic::HAdd;

    SymbolicPlanner planner(problem, config);

    Stopwatch roi_timer;
    SymbolicPlanResult result;
    {
        ScopedRoi roi;
        result = planner.plan(&report.profiler);
    }
    report.roi_seconds = roi_timer.elapsedSec();

    report.success = result.found;
    // Node expansion (applicability tests, effect application) and the
    // heuristic's relaxed-reachability fixpoint are both set/string
    // manipulation over the node's atoms — together they are the
    // paper's "graph search, string manipulation" bottleneck. The two
    // phases are disjoint (the search evaluates heuristics after
    // generating a node's successors), so their shares add.
    double expand = report.phaseFraction("expand");
    double heuristic = report.phaseFraction("heuristic");
    report.metrics["string_ops_fraction"] = expand + heuristic;
    report.metrics["heuristic_fraction"] = heuristic;
    report.metrics["plan_length"] = result.cost;
    report.metrics["expanded"] = static_cast<double>(result.expanded);
    report.metrics["generated"] = static_cast<double>(result.generated);
    report.metrics["ground_actions"] =
        static_cast<double>(result.ground_action_count);
    report.metrics["branching_factor"] = result.avg_applicable_actions;
    return report;
}

} // namespace

void
SymBlkwKernel::addOptions(ArgParser &parser) const
{
    parser.addOption("blocks", "6", "Number of blocks");
    parser.addOption("epsilon", "1.5", "Heuristic inflation (WA*)");
    parser.addOption("heuristic", "hadd",
                     "Heuristic: hadd or goal-count");
    parser.addOption("seed", "1", "Random seed");
}

KernelReport
SymBlkwKernel::run(const ArgParser &args) const
{
    SymbolicProblem problem = makeBlocksWorld(
        static_cast<int>(args.getInt("blocks")),
        static_cast<std::uint64_t>(args.getInt("seed")));
    return runSymbolic(problem, args);
}

void
SymFextKernel::addOptions(ArgParser &parser) const
{
    parser.addOption("waypoints", "12", "Waypoint locations");
    parser.addOption("epsilon", "1.5", "Heuristic inflation (WA*)");
    parser.addOption("heuristic", "hadd",
                     "Heuristic: hadd or goal-count");
    parser.addOption("seed", "1", "Random seed");
}

KernelReport
SymFextKernel::run(const ArgParser &args) const
{
    SymbolicProblem problem =
        makeFirefight(static_cast<int>(args.getInt("waypoints")));
    return runSymbolic(problem, args);
}

} // namespace rtr
