#include "kernels/kernel_pp2d.h"


#include <algorithm>
#include "grid/map_gen.h"
#include "grid/map_io.h"
#include "search/grid_planner2d.h"
#include "util/logging.h"
#include "util/roi.h"
#include "util/stopwatch.h"

namespace rtr {

namespace {

/**
 * Find a footprint-valid cell near a target fraction of the map, by
 * scanning outward row-major from the anchor point.
 */
Cell2
findValidCell(const GridPlanner2D &planner, const OccupancyGrid2D &grid,
              double fx, double fy)
{
    Cell2 anchor{static_cast<int>(grid.width() * fx),
                 static_cast<int>(grid.height() * fy)};
    for (int radius = 0; radius < std::max(grid.width(), grid.height());
         ++radius) {
        for (int dy = -radius; dy <= radius; ++dy) {
            for (int dx = -radius; dx <= radius; ++dx) {
                if (std::max(std::abs(dx), std::abs(dy)) != radius)
                    continue;
                Cell2 c{anchor.x + dx, anchor.y + dy};
                if (planner.stateValid(c, 0.0))
                    return c;
            }
        }
    }
    fatal("no footprint-valid cell near (", fx, ", ", fy, ")");
}

} // namespace

void
Pp2dKernel::addOptions(ArgParser &parser) const
{
    parser.addOption("map", "", "Moving AI .map file (empty = synthetic)");
    parser.addOption("map-size", "1024", "Synthetic map size (cells)");
    parser.addOption("resolution", "0.5", "Map resolution (m/cell)");
    parser.addOption("car-length", "4.8", "Car length (m)");
    parser.addOption("car-width", "1.8", "Car width (m)");
    parser.addOption("epsilon", "1.0", "Heuristic weight (1 = A*)");
    parser.addOption("seed", "1", "Random seed");
}

KernelReport
Pp2dKernel::run(const ArgParser &args) const
{
    KernelReport report;
    const double resolution = args.getDouble("resolution");

    // ---- Input generation (outside the ROI) ----
    OccupancyGrid2D map =
        args.get("map").empty()
            ? makeCityMap(static_cast<int>(args.getInt("map-size")),
                          resolution,
                          static_cast<std::uint64_t>(args.getInt("seed")))
            : loadMovingAiMapFile(args.get("map"), resolution);

    RectFootprint footprint(args.getDouble("car-length"),
                            args.getDouble("car-width"));
    GridPlanner2D planner(map, &footprint);

    // Long diagonal route: "the car traverses a long distance,
    // observing different obstacle patterns".
    Cell2 start = findValidCell(planner, map, 0.03, 0.03);
    Cell2 goal = findValidCell(planner, map, 0.97, 0.97);

    // ---- Planning (the ROI) ----
    Stopwatch roi_timer;
    GridPlan2D plan;
    {
        ScopedRoi roi;
        plan = planner.plan(start, goal, args.getDouble("epsilon"),
                            &report.profiler);
    }
    report.roi_seconds = roi_timer.elapsedSec();

    report.success = plan.found;
    report.metrics["collision_fraction"] =
        report.phaseFraction("collision");
    report.metrics["expanded"] = static_cast<double>(plan.expanded);
    report.metrics["collision_checks"] =
        static_cast<double>(plan.collision_checks);
    report.metrics["path_cost_m"] = plan.cost;
    report.metrics["path_cells"] = static_cast<double>(plan.path.size());
    report.metrics["peak_open_list"] =
        static_cast<double>(plan.peak_open);
    report.metrics["stale_pops"] =
        static_cast<double>(plan.search_stats.stale_pops);
    report.metrics["reopen_skips"] =
        static_cast<double>(plan.search_stats.reopen_skips);
    return report;
}

} // namespace rtr
