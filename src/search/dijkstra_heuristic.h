/**
 * @file
 * Multi-source backward Dijkstra over a cost field.
 *
 * The movtar kernel's environment-aware heuristic (paper §V.06): "before
 * starting planning, the backward Dijkstra algorithm is executed to
 * calculate the heuristic values in an environment-aware manner (e.g.,
 * accounting for obstacles)". Seeding every cell the target's trajectory
 * visits makes the table a lower bound on the cost-to-catch from any
 * cell, for any catch time.
 */

#ifndef RTR_SEARCH_DIJKSTRA_HEURISTIC_H
#define RTR_SEARCH_DIJKSTRA_HEURISTIC_H

#include <vector>

#include "grid/map_gen.h"
#include "grid/occupancy_grid2d.h"
#include "search/search_engine.h"
#include "search/search_workspace.h"
#include "util/profiler.h"

namespace rtr {

/**
 * Cost-to-source table over a cost field.
 *
 * Edge cost between adjacent cells is the mean of their cell costs
 * scaled by the step length; impassable cells never relax.
 */
class DijkstraHeuristic
{
  public:
    /**
     * Run backward Dijkstra from a set of seed cells.
     *
     * @param field Traversal-cost field.
     * @param sources Seed cells (cost 0); typically the target's
     *        trajectory.
     * @param profiler Optional; the run is one "heuristic" phase.
     * @param engine Search engine; the resulting table is identical.
     * @param ws Flat-engine workspace to reuse across rebuilds (the
     *        closed marks live in its epoch stamps, so no per-build
     *        closed vector is allocated). nullptr uses a thread-local.
     */
    DijkstraHeuristic(const CostGrid2D &field,
                      const std::vector<Cell2> &sources,
                      PhaseProfiler *profiler = nullptr,
                      SearchEngine engine = SearchEngine::Flat,
                      SearchWorkspace *ws = nullptr);

    /** Optimal traversal cost from the cell to the nearest source. */
    double
    costToSource(const Cell2 &c) const
    {
        if (c.x < 0 || c.x >= width_ || c.y < 0 || c.y >= height_)
            return kUnreachable;
        return table_[static_cast<std::size_t>(c.y) * width_ + c.x];
    }

    /** Whether a cell can reach any source. */
    bool
    reachable(const Cell2 &c) const
    {
        return costToSource(c) < kUnreachable;
    }

    /** Sentinel for unreachable cells. */
    static constexpr double kUnreachable = 1e17;

  private:
    int width_;
    int height_;
    std::vector<double> table_;
};

} // namespace rtr

#endif // RTR_SEARCH_DIJKSTRA_HEURISTIC_H
