#include "search/dijkstra_heuristic.h"

#include <cmath>

#include "search/best_first.h"
#include "util/logging.h"

namespace rtr {

DijkstraHeuristic::DijkstraHeuristic(const CostGrid2D &field,
                                     const std::vector<Cell2> &sources,
                                     PhaseProfiler *profiler,
                                     SearchEngine engine,
                                     SearchWorkspace *ws)
    : width_(field.width()),
      height_(field.height()),
      table_(static_cast<std::size_t>(field.width()) * field.height(),
             kUnreachable)
{
    ScopedPhase phase(profiler, "heuristic");
    RTR_ASSERT(!sources.empty(), "backward Dijkstra needs >= 1 source");

    const int w = width_;
    const int h = height_;
    auto index = [w](int x, int y) {
        return static_cast<std::uint32_t>(static_cast<std::size_t>(y) * w +
                                          x);
    };
    const double kSqrt2 = std::sqrt(2.0);

    // A multi-source flood with no goal and no parents: distances live
    // in table_ (it IS the output), so a store only keeps closed marks
    // — the workspace's epoch stamps (flat: a rebuild against a warm
    // workspace allocates nothing but the table) or per-query bytes.
    static thread_local SearchWorkspace fallback;
    withDenseEngine(engine, ws != nullptr ? *ws : fallback, table_.size(),
                    [&](auto &store, auto &open, auto &) {
        for (const Cell2 &s : sources) {
            if (s.x < 0 || s.x >= w || s.y < 0 || s.y >= h)
                continue;
            if (!field.passable(s.x, s.y))
                continue;
            const std::uint32_t id = index(s.x, s.y);
            if (table_[id] > 0.0) {
                table_[id] = 0.0;
                open.push(0.0, id);
            }
        }

        while (!open.empty()) {
            auto [dist, id] = open.pop();
            if (store.closed(id))
                continue;
            store.close(id);
            int x = static_cast<int>(id % w);
            int y = static_cast<int>(id / w);
            double from_cost = field.cost(x, y);

            for (int dy = -1; dy <= 1; ++dy) {
                for (int dx = -1; dx <= 1; ++dx) {
                    if (dx == 0 && dy == 0)
                        continue;
                    int nx = x + dx, ny = y + dy;
                    if (nx < 0 || nx >= w || ny < 0 || ny >= h)
                        continue;
                    if (!field.passable(nx, ny))
                        continue;
                    const std::uint32_t nid = index(nx, ny);
                    if (store.closed(nid))
                        continue;
                    double step = (dx != 0 && dy != 0) ? kSqrt2 : 1.0;
                    double edge =
                        0.5 * (from_cost + field.cost(nx, ny)) * step;
                    double candidate = dist + edge;
                    if (candidate < table_[nid]) {
                        table_[nid] = candidate;
                        open.push(candidate, nid);
                    }
                }
            }
        }
    });
}

} // namespace rtr
