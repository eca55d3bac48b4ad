/**
 * @file
 * Generic (weighted) A* over implicit graphs.
 *
 * Used by the symbolic planner and any search whose states are not
 * dense integers. Dense grid searches use the specialized planners in
 * grid_planner2d/3d.h instead; all of them run the same loop
 * (search/best_first.h).
 *
 * States are interned into a dense id space as they are discovered
 * (generic states need hashing), and the open list orders those ids.
 * The search engine (--search) picks the node store and open list:
 * SearchWorkspace + 4-ary heap (flat) or per-query vectors + binary
 * heap (heap), with identical expansions, paths and stats.
 */

#ifndef RTR_SEARCH_ASTAR_H
#define RTR_SEARCH_ASTAR_H

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "search/best_first.h"
#include "search/search_engine.h"

namespace rtr {

/** Statistics and result of a generic A* run. */
template <typename State>
struct AStarResult
{
    /** Whether a path to a goal state was found. */
    bool found = false;
    /** States from start to goal (empty when !found). */
    std::vector<State> path;
    /** Path cost (g-value of the goal). */
    double cost = 0.0;
    /** Number of expansions performed. */
    std::size_t expanded = 0;
    /** Number of successor states generated. */
    std::size_t generated = 0;
    /** Largest open-list size reached (includes stale lazy entries). */
    std::size_t peak_open = 0;
    /** Open-list health counters (identical across engines). */
    SearchStats search_stats;
};

/** Problem definition for the generic A*. */
template <typename State>
struct AStarProblem
{
    /** Append (successor, edge_cost) pairs of a state to @p out. */
    std::function<void(const State &,
                       std::vector<std::pair<State, double>> &)>
        successors;
    /** Admissible (or, with epsilon > 1, inflatable) goal estimate. */
    std::function<double(const State &)> heuristic;
    /** Goal predicate. */
    std::function<bool(const State &)> isGoal;
    /** Heuristic inflation (1 = A*, > 1 = Weighted A*). */
    double epsilon = 1.0;
    /** Safety cap on expansions (0 = unbounded). */
    std::size_t max_expansions = 0;
    /** Search engine; identical results either way. */
    SearchEngine search_engine = defaultSearchEngine();
};

/**
 * Run (weighted) A* from @p start. States must be hashable and
 * equality-comparable.
 */
template <typename State, typename Hash = std::hash<State>>
AStarResult<State>
astarSearch(const State &start, const AStarProblem<State> &problem)
{
    AStarResult<State> result;
    std::vector<State> states;
    std::unordered_map<State, std::uint32_t, Hash> ids;
    SearchWorkspace ws;

    withDenseEngine(problem.search_engine, ws, 0, [&](auto &store,
                                                      auto &open,
                                                      auto &chain) {
        auto intern = [&](const State &s) {
            auto [it, inserted] =
                ids.emplace(s, static_cast<std::uint32_t>(states.size()));
            if (inserted) {
                states.push_back(s);
                store.extend(states.size());
            }
            return it->second;
        };
        std::vector<std::pair<State, double>> succ;
        auto successors = [&](std::uint32_t id, auto &&relax) {
            succ.clear();
            problem.successors(states[id], succ);
            result.generated += succ.size();
            for (const auto &[next, edge_cost] : succ) {
                std::uint32_t next_id = intern(next);
                relax(next_id, edge_cost, [&] {
                    return problem.epsilon *
                           problem.heuristic(states[next_id]);
                });
            }
        };
        bestFirstSearch(
            store, open, intern(start),
            problem.epsilon * problem.heuristic(start), successors,
            [&](std::uint32_t id) { return problem.isGoal(states[id]); },
            result, chain, problem.max_expansions);
        for (std::uint32_t id : chain)
            result.path.push_back(states[id]);
    });
    return result;
}

} // namespace rtr

#endif // RTR_SEARCH_ASTAR_H
