#include "search/spacetime_planner.h"

#include <cmath>
#include <memory>

#include "search/best_first.h"
#include "search/dijkstra_heuristic.h"
#include "util/logging.h"
#include "util/rng.h"

namespace rtr {

SpacetimePlan
planMovingTarget(const MovingTargetProblem &problem, PhaseProfiler *profiler)
{
    SpacetimePlan result;
    RTR_ASSERT(problem.field, "problem needs a cost field");
    RTR_ASSERT(!problem.target_trajectory.empty(),
               "problem needs a target trajectory");
    const CostGrid2D &field = *problem.field;
    const int w = field.width();
    const int h = field.height();
    const int horizon =
        static_cast<int>(problem.target_trajectory.size()) +
        problem.time_slack;

    if (!field.passable(problem.robot_start.x, problem.robot_start.y))
        return result;

    // Environment-aware heuristic: backward Dijkstra seeded with every
    // cell the target visits. (For the Euclidean ablation the table is
    // skipped and a straight-line estimate is used instead.)
    const bool use_dijkstra =
        problem.heuristic ==
        MovingTargetProblem::Heuristic::BackwardDijkstra;
    std::unique_ptr<DijkstraHeuristic> dijkstra;
    if (use_dijkstra) {
        dijkstra = std::make_unique<DijkstraHeuristic>(
            field, problem.target_trajectory, profiler,
            problem.search_engine);
    }
    const Cell2 target_end = problem.target_trajectory.back();
    auto h_value = [&](const Cell2 &c) {
        if (use_dijkstra)
            return dijkstra->costToSource(c);
        double dx = c.x - target_end.x;
        double dy = c.y - target_end.y;
        return std::sqrt(dx * dx + dy * dy);
    };

    auto target_at = [&](int t) {
        const auto &traj = problem.target_trajectory;
        return t < static_cast<int>(traj.size()) ? traj[static_cast<std::size_t>(t)]
                                                 : traj.back();
    };
    auto pack = [w, h](const Cell2 &c, int t) {
        return (static_cast<std::uint64_t>(t) * h + c.y) * w + c.x;
    };
    const std::uint64_t plane = static_cast<std::uint64_t>(w) * h;
    auto unpack = [w, h, plane](std::uint64_t key) {
        int x = static_cast<int>(key % w);
        int y = static_cast<int>((key / w) % h);
        int t = static_cast<int>(key / plane);
        return SpacetimeState{Cell2{x, y}, t};
    };

    ScopedPhase search_phase(profiler, "graph-search");

    const double kSqrt2 = std::sqrt(2.0);
    auto successors = [&](std::uint64_t key, auto &&relax) {
        const SpacetimeState state = unpack(key);
        if (state.time >= horizon)
            return;
        double from_cost = field.cost(state.cell.x, state.cell.y);
        for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
                const Cell2 next{state.cell.x + dx, state.cell.y + dy};
                if (!field.passable(next.x, next.y))
                    continue;
                double step = (dx != 0 && dy != 0) ? kSqrt2 : 1.0;
                double edge =
                    0.5 * (from_cost + field.cost(next.x, next.y)) * step;
                relax(pack(next, state.time + 1), edge,
                      [&] { return problem.epsilon * h_value(next); });
            }
        }
    };
    auto caught = [&](std::uint64_t key) {
        const int t = static_cast<int>(key / plane);
        return key == pack(target_at(t), t);
    };

    // Open lists hold the packed (x, y, t) key, not the dense intern
    // id, so equal-f ties pop in key order on both engines.
    std::vector<std::uint64_t> keys;
    auto search = [&](auto &store, auto &open) {
        store.beginQuery();
        open.clear();
        bestFirstSearch(store, open, pack(problem.robot_start, 0),
                        problem.epsilon * h_value(problem.robot_start),
                        successors, caught, result, keys);
    };
    if (problem.search_engine == SearchEngine::Flat) {
        static thread_local SparseSearchWorkspace ws;
        search(ws.nodes, ws.open);
    } else {
        SparseNodeStore<HashIntern64> store;
        MinHeap<std::uint64_t> open;
        search(store, open);
    }

    for (std::uint64_t key : keys)
        result.path.push_back(unpack(key));
    if (result.found)
        result.catch_time = result.path.back().time;
    return result;
}

std::vector<Cell2>
makeTargetTrajectory(const CostGrid2D &field, const Cell2 &start, int length,
                     std::uint64_t seed)
{
    RTR_ASSERT(field.passable(start.x, start.y),
               "target start must be passable");
    std::vector<Cell2> traj{start};
    Rng rng(seed);
    Cell2 cur = start;
    // Persistent wander direction with occasional turns; fall back to
    // any passable neighbor when blocked.
    int dir_x = 1, dir_y = 0;
    for (int t = 1; t < length; ++t) {
        if (rng.chance(0.15)) {
            int turn = static_cast<int>(rng.intRange(0, 3));
            dir_x = (turn == 0) - (turn == 1);
            dir_y = (turn == 2) - (turn == 3);
        }
        Cell2 next{cur.x + dir_x, cur.y + dir_y};
        if (!field.passable(next.x, next.y)) {
            bool moved = false;
            for (int attempt = 0; attempt < 8 && !moved; ++attempt) {
                int dx = static_cast<int>(rng.intRange(-1, 1));
                int dy = static_cast<int>(rng.intRange(-1, 1));
                if (field.passable(cur.x + dx, cur.y + dy)) {
                    next = Cell2{cur.x + dx, cur.y + dy};
                    dir_x = dx;
                    dir_y = dy;
                    moved = true;
                }
            }
            if (!moved)
                next = cur;  // trapped: wait in place
        }
        cur = next;
        traj.push_back(cur);
    }
    return traj;
}

} // namespace rtr
