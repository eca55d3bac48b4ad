#include "kernels/kernel_pp3d.h"


#include <algorithm>
#include "grid/map_gen.h"
#include "search/grid_planner3d.h"
#include "util/logging.h"
#include "util/roi.h"
#include "util/stopwatch.h"

namespace rtr {

namespace {

/** Nearest free cell to an anchor, scanning shells outward. */
Cell3
findFreeCell(const OccupancyGrid3D &grid, double fx, double fy, double fz)
{
    Cell3 anchor{static_cast<int>(grid.width() * fx),
                 static_cast<int>(grid.height() * fy),
                 static_cast<int>(grid.depth() * fz)};
    int max_radius =
        std::max({grid.width(), grid.height(), grid.depth()});
    for (int radius = 0; radius < max_radius; ++radius) {
        for (int dz = -radius; dz <= radius; ++dz) {
            for (int dy = -radius; dy <= radius; ++dy) {
                for (int dx = -radius; dx <= radius; ++dx) {
                    if (std::max({std::abs(dx), std::abs(dy),
                                  std::abs(dz)}) != radius)
                        continue;
                    Cell3 c{anchor.x + dx, anchor.y + dy, anchor.z + dz};
                    if (!grid.occupied(c.x, c.y, c.z))
                        return c;
                }
            }
        }
    }
    fatal("no free cell near the requested anchor");
}

} // namespace

void
Pp3dKernel::addOptions(ArgParser &parser) const
{
    parser.addOption("map-size", "192", "Volume footprint (cells/side)");
    parser.addOption("map-depth", "24", "Volume height (cells)");
    parser.addOption("resolution", "1.0", "Resolution (m/cell)");
    parser.addOption("epsilon", "1.0", "Heuristic weight (1 = A*)");
    parser.addOption("seed", "1", "Random seed");
}

KernelReport
Pp3dKernel::run(const ArgParser &args) const
{
    KernelReport report;

    // ---- Input generation (outside the ROI) ----
    OccupancyGrid3D map = makeCampus3D(
        static_cast<int>(args.getInt("map-size")),
        static_cast<int>(args.getInt("map-size")),
        static_cast<int>(args.getInt("map-depth")),
        args.getDouble("resolution"),
        static_cast<std::uint64_t>(args.getInt("seed")));

    // Long diagonal at low altitude, forcing flight among buildings.
    Cell3 start = findFreeCell(map, 0.03, 0.03, 0.15);
    Cell3 goal = findFreeCell(map, 0.97, 0.97, 0.15);

    GridPlanner3D planner(map);

    // ---- Planning (the ROI) ----
    Stopwatch roi_timer;
    GridPlan3D plan;
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
    report.metrics["peak_open_list"] =
        static_cast<double>(plan.peak_open);
    report.metrics["stale_pops"] =
        static_cast<double>(plan.search_stats.stale_pops);
    report.metrics["reopen_skips"] =
        static_cast<double>(plan.search_stats.reopen_skips);
    return report;
}

} // namespace rtr
