#include "search/grid_planner2d.h"

#include <cmath>

#include "search/best_first.h"

namespace rtr {

namespace {

constexpr double kSqrt2 = 1.41421356237309515;

/** 8-connected move table: dx, dy, step length in cells. */
struct Move
{
    int dx;
    int dy;
    double len;
    double heading;
};

const Move kMoves[8] = {
    {1, 0, 1.0, 0.0},
    {-1, 0, 1.0, 3.14159265358979},
    {0, 1, 1.0, 1.5707963267949},
    {0, -1, 1.0, -1.5707963267949},
    {1, 1, kSqrt2, 0.785398163397448},
    {1, -1, kSqrt2, -0.785398163397448},
    {-1, 1, kSqrt2, 2.35619449019234},
    {-1, -1, kSqrt2, -2.35619449019234},
};

} // namespace

GridPlanner2D::GridPlanner2D(const OccupancyGrid2D &grid,
                             const RectFootprint *footprint,
                             SearchEngine engine)
    : grid_(grid), footprint_(footprint), engine_(engine)
{
}

bool
GridPlanner2D::stateValid(const Cell2 &cell, double heading) const
{
    if (!grid_.inBounds(cell.x, cell.y))
        return false;
    if (grid_.occupiedUnchecked(cell.x, cell.y))
        return false;
    if (!footprint_)
        return true;
    Vec2 center = grid_.cellCenter(cell);
    return !footprint_->collides(grid_, Pose2{center.x, center.y, heading});
}

GridPlan2D
GridPlanner2D::plan(const Cell2 &start, const Cell2 &goal, double epsilon,
                    PhaseProfiler *profiler) const
{
    GridPlan2D result;
    const int w = grid_.width();
    const int h = grid_.height();
    const double res = grid_.resolution();
    auto index = [w](const Cell2 &c) {
        return static_cast<std::uint32_t>(
            static_cast<std::size_t>(c.y) * w + c.x);
    };

    {
        ScopedPhase phase(profiler, "collision");
        result.collision_checks += 2;
        if (!stateValid(start, 0.0) || !stateValid(goal, 0.0))
            return result;
    }

    auto heuristic = [&](const Cell2 &c) {
        double dx = (c.x - goal.x) * res;
        double dy = (c.y - goal.y) * res;
        return epsilon * std::sqrt(dx * dx + dy * dy);
    };
    auto successors = [&](std::uint32_t id, auto &&relax) {
        const Cell2 cell{static_cast<int>(id % w), static_cast<int>(id / w)};
        // Collision-validate all successors in one profiled batch: this
        // is where pp2d spends most of its time.
        bool valid[8];
        {
            ScopedPhase phase(profiler, "collision");
            for (int m = 0; m < 8; ++m) {
                Cell2 next{cell.x + kMoves[m].dx, cell.y + kMoves[m].dy};
                ++result.collision_checks;
                valid[m] = stateValid(next, kMoves[m].heading);
            }
        }
        for (int m = 0; m < 8; ++m) {
            if (!valid[m])
                continue;
            const Cell2 next{cell.x + kMoves[m].dx, cell.y + kMoves[m].dy};
            relax(index(next), kMoves[m].len * res,
                  [&] { return heuristic(next); });
        }
    };
    const std::uint32_t goal_id = index(goal);

    withDenseEngine(
        engine_, ws_, static_cast<std::size_t>(w) * h,
        [&](auto &store, auto &open, std::vector<std::uint32_t> &chain) {
            bestFirstSearch(
                store, open, index(start), heuristic(start), successors,
                [goal_id](std::uint32_t id) { return id == goal_id; },
                result, chain);
            result.path.reserve(chain.size());
            for (std::uint32_t id : chain)
                result.path.push_back(Cell2{static_cast<int>(id % w),
                                            static_cast<int>(id / w)});
        });
    return result;
}

} // namespace rtr
