/**
 * @file
 * A* / Weighted-A* / Dijkstra planner on 2-D occupancy grids, with
 * optional oriented-footprint collision checking (the pp2d kernel).
 */

#ifndef RTR_SEARCH_GRID_PLANNER2D_H
#define RTR_SEARCH_GRID_PLANNER2D_H

#include <cstdint>
#include <vector>

#include "grid/footprint.h"
#include "grid/occupancy_grid2d.h"
#include "search/search_engine.h"
#include "search/search_workspace.h"
#include "util/profiler.h"

namespace rtr {

/** Result of a 2-D grid plan. */
struct GridPlan2D
{
    /** Whether a path was found. */
    bool found = false;
    /** Cells from start to goal (inclusive). */
    std::vector<Cell2> path;
    /** Path cost in world units. */
    double cost = 0.0;
    /** Nodes expanded. */
    std::size_t expanded = 0;
    /** Footprint / cell collision queries performed. */
    std::size_t collision_checks = 0;
    /** Largest open-list size reached (includes stale lazy entries). */
    std::size_t peak_open = 0;
    /** Open-list health counters (identical across engines). */
    SearchStats search_stats;
};

/**
 * 8-connected grid planner.
 *
 * With a footprint, every candidate successor cell is validated by
 * sweeping the oriented rectangle (heading aligned with the motion
 * direction) over the grid — the collision-detection workload that
 * dominates pp2d. Without one, the robot is a point.
 */
class GridPlanner2D
{
  public:
    /**
     * @param grid World to plan in (must outlive the planner).
     * @param footprint Optional robot body; nullptr plans a point robot.
     * @param engine Search engine (--search); both produce identical
     *        plans and statistics, only the data layout differs.
     */
    explicit GridPlanner2D(const OccupancyGrid2D &grid,
                           const RectFootprint *footprint = nullptr,
                           SearchEngine engine = SearchEngine::Flat);

    /**
     * Plan from start to goal.
     *
     * The flat engine reuses this planner's embedded SearchWorkspace,
     * so repeat queries are allocation-free on the expansion path —
     * and, like the footprint's probe counter, that scratch makes a
     * planner instance single-thread-only: clone one per worker to
     * plan concurrently (the service WorkerContext pattern).
     *
     * @param epsilon Heuristic weight: 0 = Dijkstra, 1 = A*, > 1 = WA*.
     * @param profiler Optional profiler; accumulates "collision" and
     *        "search" phases.
     */
    GridPlan2D plan(const Cell2 &start, const Cell2 &goal,
                    double epsilon = 1.0,
                    PhaseProfiler *profiler = nullptr) const;

    /** Whether a cell is a valid robot state (bounds + collision). */
    bool stateValid(const Cell2 &cell, double heading) const;

    /** Engine selected at construction. */
    SearchEngine engine() const { return engine_; }

  private:
    const OccupancyGrid2D &grid_;
    const RectFootprint *footprint_;
    SearchEngine engine_;
    /** Flat-engine scratch (see plan() on thread-safety). */
    mutable SearchWorkspace ws_;
};

} // namespace rtr

#endif // RTR_SEARCH_GRID_PLANNER2D_H
