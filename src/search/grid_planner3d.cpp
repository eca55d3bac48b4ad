#include "search/grid_planner3d.h"

#include <cmath>

#include "search/best_first.h"

namespace rtr {

namespace {

/** 26-connected move table built once. */
struct Move3
{
    int dx, dy, dz;
    double len;
};

std::vector<Move3>
makeMoves()
{
    std::vector<Move3> moves;
    for (int dz = -1; dz <= 1; ++dz) {
        for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
                if (dx == 0 && dy == 0 && dz == 0)
                    continue;
                moves.push_back(Move3{
                    dx, dy, dz,
                    std::sqrt(static_cast<double>(dx * dx + dy * dy +
                                                  dz * dz))});
            }
        }
    }
    return moves;
}

const std::vector<Move3> kMoves = makeMoves();

} // namespace

GridPlanner3D::GridPlanner3D(const OccupancyGrid3D &grid,
                             SearchEngine engine)
    : grid_(grid), engine_(engine)
{
}

GridPlan3D
GridPlanner3D::plan(const Cell3 &start, const Cell3 &goal, double epsilon,
                    PhaseProfiler *profiler) const
{
    GridPlan3D result;
    const int w = grid_.width();
    const int h = grid_.height();
    const int d = grid_.depth();
    const double res = grid_.resolution();
    auto index = [w, h](const Cell3 &c) {
        return static_cast<std::uint32_t>(
            (static_cast<std::size_t>(c.z) * h + c.y) * w + c.x);
    };
    auto unpack = [w, h](std::uint32_t id) {
        int x = static_cast<int>(id % w);
        int y = static_cast<int>((id / w) % h);
        int z = static_cast<int>(id / (static_cast<std::size_t>(w) * h));
        return Cell3{x, y, z};
    };

    if (grid_.occupied(start.x, start.y, start.z) ||
        grid_.occupied(goal.x, goal.y, goal.z))
        return result;

    auto heuristic = [&](const Cell3 &c) {
        double dx = (c.x - goal.x) * res;
        double dy = (c.y - goal.y) * res;
        double dz = (c.z - goal.z) * res;
        return epsilon * std::sqrt(dx * dx + dy * dy + dz * dz);
    };
    auto successors = [&](std::uint32_t id, auto &&relax) {
        const Cell3 cell = unpack(id);
        bool valid[26];
        {
            ScopedPhase phase(profiler, "collision");
            for (std::size_t m = 0; m < kMoves.size(); ++m) {
                Cell3 next{cell.x + kMoves[m].dx, cell.y + kMoves[m].dy,
                           cell.z + kMoves[m].dz};
                ++result.collision_checks;
                valid[m] = !grid_.occupied(next.x, next.y, next.z);
            }
        }
        for (std::size_t m = 0; m < kMoves.size(); ++m) {
            if (!valid[m])
                continue;
            const Cell3 next{cell.x + kMoves[m].dx, cell.y + kMoves[m].dy,
                             cell.z + kMoves[m].dz};
            relax(index(next), kMoves[m].len * res,
                  [&] { return heuristic(next); });
        }
    };
    const std::uint32_t goal_id = index(goal);

    withDenseEngine(
        engine_, ws_, static_cast<std::size_t>(w) * h * d,
        [&](auto &store, auto &open, std::vector<std::uint32_t> &chain) {
            bestFirstSearch(
                store, open, index(start), heuristic(start), successors,
                [goal_id](std::uint32_t id) { return id == goal_id; },
                result, chain);
            result.path.reserve(chain.size());
            for (std::uint32_t id : chain)
                result.path.push_back(unpack(id));
        });
    return result;
}

} // namespace rtr
