#include "kernels/kernel_movtar.h"


#include <algorithm>
#include "grid/map_gen.h"
#include "search/spacetime_planner.h"
#include "util/logging.h"
#include "util/roi.h"
#include "util/stopwatch.h"

namespace rtr {

namespace {

/** Nearest passable cell to an anchor point. */
Cell2
findPassable(const CostGrid2D &field, double fx, double fy)
{
    Cell2 anchor{static_cast<int>(field.width() * fx),
                 static_cast<int>(field.height() * fy)};
    for (int radius = 0; radius < std::max(field.width(), field.height());
         ++radius) {
        for (int dy = -radius; dy <= radius; ++dy) {
            for (int dx = -radius; dx <= radius; ++dx) {
                if (std::max(std::abs(dx), std::abs(dy)) != radius)
                    continue;
                Cell2 c{anchor.x + dx, anchor.y + dy};
                if (field.passable(c.x, c.y))
                    return c;
            }
        }
    }
    fatal("no passable cell in the cost field");
}

} // namespace

void
MovtarKernel::addOptions(ArgParser &parser) const
{
    parser.addOption("env-size", "160", "Environment side (cells)");
    parser.addOption("trajectory-steps", "220",
                     "Known target trajectory length");
    parser.addOption("epsilon", "2.0", "WA* heuristic inflation");
    parser.addOption("seed", "1", "Random seed");
}

KernelReport
MovtarKernel::run(const ArgParser &args) const
{
    KernelReport report;
    const int size = static_cast<int>(args.getInt("env-size"));
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed"));

    // ---- Input generation (outside the ROI) ----
    CostGrid2D field = makeCostField(size, size, seed);
    Cell2 target_start = findPassable(field, 0.75, 0.75);
    MovingTargetProblem problem;
    problem.field = &field;
    problem.target_trajectory = makeTargetTrajectory(
        field, target_start,
        static_cast<int>(args.getInt("trajectory-steps")), seed * 13 + 7);
    problem.robot_start = findPassable(field, 0.1, 0.1);
    problem.epsilon = args.getDouble("epsilon");

    // ---- Planning, including the heuristic build (the ROI) ----
    Stopwatch roi_timer;
    SpacetimePlan plan;
    {
        ScopedRoi roi;
        plan = planMovingTarget(problem, &report.profiler);
    }
    report.roi_seconds = roi_timer.elapsedSec();

    report.success = plan.found;
    report.metrics["heuristic_fraction"] =
        report.phaseFraction("heuristic");
    report.metrics["search_fraction"] =
        report.phaseFraction("graph-search");
    report.metrics["expanded"] = static_cast<double>(plan.expanded);
    report.metrics["catch_time"] = plan.catch_time;
    report.metrics["plan_cost"] = plan.cost;
    report.metrics["peak_open_list"] =
        static_cast<double>(plan.peak_open);
    report.metrics["stale_pops"] =
        static_cast<double>(plan.search_stats.stale_pops);
    report.metrics["reopen_skips"] =
        static_cast<double>(plan.search_stats.reopen_skips);
    return report;
}

} // namespace rtr
