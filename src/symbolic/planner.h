/**
 * @file
 * Forward state-space symbolic planner (kernels 11-12).
 *
 * Weighted A* over the ground STRIPS state space with either a
 * goal-count or an additive delete-relaxation (hAdd) heuristic. Per the
 * paper, the dominant operations are the graph search itself and the
 * string manipulation inside nodes (applicability tests, effect
 * application, state hashing).
 */

#ifndef RTR_SYMBOLIC_PLANNER_H
#define RTR_SYMBOLIC_PLANNER_H

#include <string>
#include <vector>

#include "symbolic/domain.h"
#include "util/profiler.h"

namespace rtr {

/** Planner configuration. */
struct SymbolicPlannerConfig
{
    /** Heuristic choice. */
    enum class Heuristic
    {
        /** Number of unsatisfied goal atoms. */
        GoalCount,
        /** Additive delete-relaxation estimate (informative, default). */
        HAdd,
    };

    Heuristic heuristic = Heuristic::HAdd;
    /** Heuristic inflation (WA*). */
    double epsilon = 1.5;
    /** Expansion cap before giving up (0 = unbounded). */
    std::size_t max_expansions = 500000;
};

/** Result of a symbolic plan. */
struct SymbolicPlanResult
{
    /** Whether a plan was found. */
    bool found = false;
    /** Ground action names from initial state to goal. */
    std::vector<std::string> plan;
    /** Plan length (every action costs 1). */
    double cost = 0.0;
    /** States expanded. */
    std::size_t expanded = 0;
    /** Successor states generated. */
    std::size_t generated = 0;
    /** Ground actions in the instantiated problem. */
    std::size_t ground_action_count = 0;
    /**
     * Mean number of applicable actions per expanded state — the
     * graph's branching factor, i.e. the per-node parallelism the paper
     * compares between sym-fext and sym-blkw (~3.2x).
     */
    double avg_applicable_actions = 0.0;
};

/** Forward-search planner bound to one problem instance. */
class SymbolicPlanner
{
  public:
    /** Grounds the problem's schemas immediately. */
    explicit SymbolicPlanner(const SymbolicProblem &problem,
                             const SymbolicPlannerConfig &config = {});

    /**
     * Search for a plan.
     *
     * Weighted A* through astarSearch, on the engine that
     * defaultSearchEngine() selects (identical plans either way).
     *
     * @param profiler Optional; accumulates "heuristic" (hAdd /
     *        goal-count evaluations) and "expand" (applicability tests
     *        and effect application — the string-manipulation phase).
     *        The two phases are disjoint.
     */
    SymbolicPlanResult plan(PhaseProfiler *profiler = nullptr) const;

    /** The instantiated ground actions. */
    const std::vector<GroundAction> &actions() const { return actions_; }

  private:
    double heuristicValue(const SymbolicState &state) const;

    const SymbolicProblem &problem_;
    SymbolicPlannerConfig config_;
    std::vector<GroundAction> actions_;
};

} // namespace rtr

#endif // RTR_SYMBOLIC_PLANNER_H
