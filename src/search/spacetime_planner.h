/**
 * @file
 * Space-time (x, y, t) planner for catching a moving target — the
 * movtar kernel.
 *
 * The environment is 2-D but planning happens in 3-D with time as the
 * third dimension (paper §V.06, Fig. 7). The robot knows the target's
 * trajectory; the plan minimizes accumulated location cost and is found
 * with Weighted A* over the space-time lattice, guided by a backward-
 * Dijkstra heuristic seeded on the target's trajectory.
 */

#ifndef RTR_SEARCH_SPACETIME_PLANNER_H
#define RTR_SEARCH_SPACETIME_PLANNER_H

#include <cstdint>
#include <vector>

#include "grid/map_gen.h"
#include "grid/occupancy_grid2d.h"
#include "search/search_engine.h"
#include "util/profiler.h"

namespace rtr {

/** One step of a space-time plan. */
struct SpacetimeState
{
    Cell2 cell;
    int time = 0;
};

/** Moving-target problem definition. */
struct MovingTargetProblem
{
    /** Heuristic choice (the paper's design point is BackwardDijkstra;
     *  Euclidean is the ablation baseline). */
    enum class Heuristic
    {
        /** Environment-aware backward Dijkstra over the cost field. */
        BackwardDijkstra,
        /** Straight-line distance to the target trajectory's end,
         *  scaled by the minimum cell cost (admissible but blind to
         *  obstacles and cost structure). */
        Euclidean,
    };

    /** Location-cost field the robot pays to traverse. */
    const CostGrid2D *field = nullptr;
    /** Target position at every timestep; it stays at the back() cell
     *  after the trajectory ends. */
    std::vector<Cell2> target_trajectory;
    /** Robot start cell. */
    Cell2 robot_start;
    /** Heuristic inflation factor (WA*'s epsilon; >= 1). */
    double epsilon = 2.0;
    /** Extra timesteps allowed beyond the trajectory's end. */
    int time_slack = 256;
    /** Which heuristic guides the space-time search. */
    Heuristic heuristic = Heuristic::BackwardDijkstra;
    /** Search engine (--search); identical plans either way. The flat
     *  engine swaps the per-query unordered_map for an epoch-stamped
     *  intern table + SoA node pool (SparseSearchWorkspace). */
    SearchEngine search_engine = SearchEngine::Flat;
};

/** Result of a moving-target plan. */
struct SpacetimePlan
{
    /** Whether the target was caught. */
    bool found = false;
    /** Robot states from start to catch. */
    std::vector<SpacetimeState> path;
    /** Accumulated location cost. */
    double cost = 0.0;
    /** Space-time nodes expanded. */
    std::size_t expanded = 0;
    /** Timestep at which the target is caught. */
    int catch_time = -1;
    /** Largest open-list size reached (includes stale lazy entries). */
    std::size_t peak_open = 0;
    /** Open-list health counters (identical across engines). */
    SearchStats search_stats;
};

/**
 * Plan to intercept the moving target.
 *
 * @param profiler Optional; accumulates "heuristic" (the backward
 *        Dijkstra) and "graph-search" phases — the two components whose
 *        relative weight the paper's movtar evaluation studies.
 */
SpacetimePlan planMovingTarget(const MovingTargetProblem &problem,
                               PhaseProfiler *profiler = nullptr);

/**
 * Generate a target trajectory through a cost field: a greedy
 * low-cost wander of the given length starting at @p start (passable
 * cells only, deterministic given the seed).
 */
std::vector<Cell2> makeTargetTrajectory(const CostGrid2D &field,
                                        const Cell2 &start, int length,
                                        std::uint64_t seed);

} // namespace rtr

#endif // RTR_SEARCH_SPACETIME_PLANNER_H
