/**
 * @file
 * A* planner on 3-D occupancy grids (the pp3d UAV kernel).
 *
 * The vehicle "is small and fits in one resolution unit" (paper §V.05),
 * so collision checking is per-cell; graph search over the 26-connected
 * lattice is the other dominant cost.
 */

#ifndef RTR_SEARCH_GRID_PLANNER3D_H
#define RTR_SEARCH_GRID_PLANNER3D_H

#include <cstdint>
#include <vector>

#include "grid/occupancy_grid3d.h"
#include "search/search_engine.h"
#include "search/search_workspace.h"
#include "util/profiler.h"

namespace rtr {

/** Result of a 3-D grid plan. */
struct GridPlan3D
{
    /** Whether a path was found. */
    bool found = false;
    /** Cells from start to goal (inclusive). */
    std::vector<Cell3> path;
    /** Path cost in world units. */
    double cost = 0.0;
    /** Nodes expanded. */
    std::size_t expanded = 0;
    /** Cell collision queries performed. */
    std::size_t collision_checks = 0;
    /** Largest open-list size reached (includes stale lazy entries). */
    std::size_t peak_open = 0;
    /** Open-list health counters (identical across engines). */
    SearchStats search_stats;
};

/** 26-connected point-robot planner over a 3-D occupancy grid. */
class GridPlanner3D
{
  public:
    /**
     * @param grid World to plan in (must outlive the planner).
     * @param engine Search engine (--search); identical results.
     */
    explicit GridPlanner3D(const OccupancyGrid3D &grid,
                           SearchEngine engine = defaultSearchEngine());

    /**
     * Plan from start to goal.
     *
     * The flat engine reuses the planner's embedded SearchWorkspace
     * (repeat queries allocation-free on the expansion path), which
     * makes an instance single-thread-only — clone per worker.
     *
     * @param epsilon Heuristic weight: 0 = Dijkstra, 1 = A*, > 1 = WA*.
     * @param profiler Optional profiler; accumulates "collision" and
     *        implicit search phases.
     */
    GridPlan3D plan(const Cell3 &start, const Cell3 &goal,
                    double epsilon = 1.0,
                    PhaseProfiler *profiler = nullptr) const;

    /** Engine selected at construction. */
    SearchEngine engine() const { return engine_; }

  private:
    const OccupancyGrid3D &grid_;
    SearchEngine engine_;
    /** Flat-engine scratch (see plan() on thread-safety). */
    mutable SearchWorkspace ws_;
};

} // namespace rtr

#endif // RTR_SEARCH_GRID_PLANNER3D_H
