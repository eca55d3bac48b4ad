#include "symbolic/planner.h"

#include <limits>
#include <unordered_map>

#include "search/astar.h"

namespace rtr {

SymbolicPlanner::SymbolicPlanner(const SymbolicProblem &problem,
                                 const SymbolicPlannerConfig &config)
    : problem_(problem), config_(config), actions_(groundActions(problem))
{
}

double
SymbolicPlanner::heuristicValue(const SymbolicState &state) const
{
    if (config_.heuristic == SymbolicPlannerConfig::Heuristic::GoalCount)
        return static_cast<double>(state.countMissing(problem_.goal));

    // hAdd: delete-relaxation fixpoint. Atom costs start at 0 for atoms
    // in the state; each action whose positive preconditions are all
    // reached makes its add effects reachable at (sum of precondition
    // costs) + 1.
    constexpr double kInf = std::numeric_limits<double>::max() / 4.0;
    std::unordered_map<Atom, double> cost;
    cost.reserve(state.atoms().size() * 2);
    for (const Atom &atom : state.atoms())
        cost[atom] = 0.0;

    bool changed = true;
    while (changed) {
        changed = false;
        for (const GroundAction &action : actions_) {
            double pre_sum = 0.0;
            bool reachable = true;
            for (const Atom &pre : action.pre_pos) {
                auto it = cost.find(pre);
                if (it == cost.end()) {
                    reachable = false;
                    break;
                }
                pre_sum += it->second;
            }
            if (!reachable)
                continue;
            double action_cost = pre_sum + 1.0;
            for (const Atom &eff : action.eff_add) {
                auto [it, inserted] = cost.emplace(eff, action_cost);
                if (!inserted && action_cost < it->second) {
                    it->second = action_cost;
                    changed = true;
                } else if (inserted) {
                    changed = true;
                }
            }
        }
    }

    double h = 0.0;
    for (const Atom &goal_atom : problem_.goal) {
        auto it = cost.find(goal_atom);
        if (it == cost.end())
            return kInf;
        h += it->second;
    }
    return h;
}

SymbolicPlanResult
SymbolicPlanner::plan(PhaseProfiler *profiler) const
{
    SymbolicPlanResult result;
    result.ground_action_count = actions_.size();

    std::size_t applicable_total = 0;
    AStarProblem<SymbolicState> problem;
    // Successor generation: applicability tests + effect application,
    // all string manipulation over the node. Every action costs 1.
    problem.successors =
        [&](const SymbolicState &state,
            std::vector<std::pair<SymbolicState, double>> &out) {
            ScopedPhase phase(profiler, "expand");
            for (const GroundAction &action : actions_) {
                if (!action.applicable(state))
                    continue;
                ++applicable_total;
                out.emplace_back(action.apply(state), 1.0);
            }
        };
    problem.heuristic = [&](const SymbolicState &state) {
        ScopedPhase phase(profiler, "heuristic");
        return heuristicValue(state);
    };
    problem.isGoal = [&](const SymbolicState &state) {
        return state.containsAll(problem_.goal);
    };
    problem.epsilon = config_.epsilon;
    problem.max_expansions = config_.max_expansions;

    AStarResult<SymbolicState> search =
        astarSearch<SymbolicState, SymbolicStateHash>(problem_.initial,
                                                      problem);
    result.found = search.found;
    result.cost = search.cost;
    result.expanded = search.expanded;
    result.generated = search.generated;
    if (result.expanded)
        result.avg_applicable_actions =
            static_cast<double>(applicable_total) /
            static_cast<double>(result.expanded);

    // Name the step P -> N by the lowest-index action that maps P to N:
    // that is the action that set N's parent, since P is expanded once
    // and, with unit costs, a later action from P reaching N cannot
    // strictly improve N's g.
    ScopedPhase phase(profiler, "expand");
    for (std::size_t i = 1; i < search.path.size(); ++i) {
        const SymbolicState &from = search.path[i - 1];
        for (const GroundAction &action : actions_) {
            if (action.applicable(from) &&
                action.apply(from) == search.path[i]) {
                result.plan.push_back(action.name);
                break;
            }
        }
    }
    return result;
}

} // namespace rtr
