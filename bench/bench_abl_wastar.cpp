/**
 * @file
 * Ablation: Weighted A* epsilon sweep (the movtar design choice,
 * §V.06) crossed with the search-engine axis (--search): heuristic
 * inflation trades path cost for search speed, and the flat engine
 * (SoA node pool + epoch stamps + 4-ary open list) must deliver the
 * exact same trade — identical expansions, paths, peak open-list
 * sizes and health counters — faster.
 *
 * Every timed configuration asserts full result identity across the
 * engines and the binary exits 2 on any divergence. `--json [path]` writes
 * BENCH_search.json (default path) so EXPERIMENTS.md tracks measured
 * numbers.
 */

#include <cstring>

#include "bench_common.h"
#include "grid/map_gen.h"
#include "search/grid_planner2d.h"
#include "util/stopwatch.h"

namespace {

using namespace rtr;
using namespace rtr::bench;

bool g_identical = true;

/** Full-result identity; divergence trips the exit-2 gate. */
bool
plansIdentical(const GridPlan2D &a, const GridPlan2D &b)
{
    return a.found == b.found && a.path == b.path && a.cost == b.cost &&
           a.expanded == b.expanded &&
           a.collision_checks == b.collision_checks &&
           a.peak_open == b.peak_open &&
           a.search_stats.stale_pops == b.search_stats.stale_pops &&
           a.search_stats.reopen_skips == b.search_stats.reopen_skips;
}

/** Best-of-@p reps seconds for one call of @p body, after warmup. */
template <typename F>
double
bestOf(int reps, F &&body)
{
    for (int w = 0; w < warmupRuns(); ++w)
        body();
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        Stopwatch timer;
        body();
        best = std::min(best, timer.elapsedSec());
    }
    return best;
}

struct EpsilonRow
{
    double epsilon = 1.0;
    std::size_t expanded = 0;
    std::size_t peak_open = 0;
    std::size_t stale_pops = 0;
    std::size_t reopen_skips = 0;
    double cost_ratio = 1.0;
    bool bound_holds = true;
    double heap_ms = 0.0;
    double flat_ms = 0.0;
    bool identical = true;
};

void
writeJson(const std::string &path, const std::vector<EpsilonRow> &rows)
{
    std::ofstream file(path);
    if (!file) {
        std::cerr << "cannot write " << path << "\n";
        return;
    }
    JsonWriter json(file);
    json.beginObject();
    json.field("benchmark", "search_engines");
    json.field("map", "city 512x512 @ 0.5");
    json.beginArray("epsilon_sweep");
    for (const EpsilonRow &row : rows) {
        json.beginObject();
        json.field("epsilon", row.epsilon);
        json.field("expanded", static_cast<long long>(row.expanded));
        json.field("peak_open", static_cast<long long>(row.peak_open));
        json.field("stale_pops", static_cast<long long>(row.stale_pops));
        json.field("reopen_skips",
                   static_cast<long long>(row.reopen_skips));
        json.field("cost_over_optimal", row.cost_ratio);
        json.field("suboptimality_bound_holds", row.bound_holds);
        json.field("heap_ms", row.heap_ms);
        json.field("flat_ms", row.flat_ms);
        json.field("speedup", row.heap_ms / row.flat_ms);
        json.field("identical", row.identical);
        json.endObject();
    }
    json.endArray();
    json.field("all_identical", g_identical);
    json.endObject();
    std::cout << "\njson: wrote " << path << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Harness harness(argc, argv);
    requireKnownOptions(argc, argv, {"--json [path]"});
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            json_path = "BENCH_search.json";
            if (i + 1 < argc && argv[i + 1][0] != '-')
                json_path = argv[i + 1];
        }
    }

    banner("ablation — Weighted A* epsilon sweep x search engine",
           "WA* inflates the heuristic by epsilon: up to epsilon x "
           "costlier paths for much faster search (paper §V.06); the "
           "flat engine must reproduce every plan bit-for-bit");

    OccupancyGrid2D map = makeCityMap(512, 0.5, 1);
    GridPlanner2D heap_planner(map, nullptr, SearchEngine::Heap);
    GridPlanner2D flat_planner(map, nullptr, SearchEngine::Flat);
    // Long diagonal route, point robot.
    auto find_free = [&](double fx, double fy) {
        Cell2 c{static_cast<int>(512 * fx), static_cast<int>(512 * fy)};
        while (map.occupied(c.x, c.y))
            c.x = (c.x + 1) % 512;
        return c;
    };
    Cell2 start = find_free(0.03, 0.03);
    Cell2 goal = find_free(0.97, 0.97);

    GridPlan2D optimal = heap_planner.plan(start, goal, 1.0);

    // ---- Epsilon x engine ----
    std::vector<EpsilonRow> rows;
    Table table({"epsilon", "expanded", "peak open", "stale pops",
                 "reopen skips", "cost / optimal", "bound", "heap (ms)",
                 "flat (ms)", "flat speedup"});
    for (double epsilon : {1.0, 1.2, 1.5, 2.0, 3.0, 5.0}) {
        GridPlan2D heap_plan, flat_plan;
        EpsilonRow row;
        row.epsilon = epsilon;
        row.heap_ms = 1e3 * bestOf(5, [&] {
            heap_plan = heap_planner.plan(start, goal, epsilon);
        });
        row.flat_ms = 1e3 * bestOf(5, [&] {
            flat_plan = flat_planner.plan(start, goal, epsilon);
        });
        row.identical = plansIdentical(heap_plan, flat_plan);
        g_identical = g_identical && row.identical;
        row.expanded = heap_plan.expanded;
        row.peak_open = heap_plan.peak_open;
        row.stale_pops = heap_plan.search_stats.stale_pops;
        row.reopen_skips = heap_plan.search_stats.reopen_skips;
        row.cost_ratio = heap_plan.cost / optimal.cost;
        row.bound_holds = row.cost_ratio <= epsilon + 1e-9;
        rows.push_back(row);
        table.addRow(
            {Table::num(epsilon, 1),
             Table::count(static_cast<long long>(row.expanded)),
             Table::count(static_cast<long long>(row.peak_open)),
             Table::count(static_cast<long long>(row.stale_pops)),
             Table::count(static_cast<long long>(row.reopen_skips)),
             Table::num(row.cost_ratio, 4),
             row.bound_holds ? "holds" : "VIOLATED",
             Table::num(row.heap_ms, 2), Table::num(row.flat_ms, 2),
             Table::num(row.heap_ms / row.flat_ms, 2) + "x"});
    }
    table.print();

    std::cout << "\nbitwise identical across engines: "
              << (g_identical ? "yes" : "NO") << "\n";
    if (!json_path.empty())
        writeJson(json_path, rows);
    return g_identical ? 0 : 2;
}
