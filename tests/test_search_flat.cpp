/**
 * @file
 * Cross-engine fuzz suite for the graph-search engines (SearchEngine):
 * the flat engine (SoA node pools, epoch stamps, 4-ary open list) must
 * reproduce the heap reference bit-for-bit — same paths, costs,
 * expansion counts, peak open-list sizes and health statistics — over
 * random maps, graphs, epsilons and unreachable goals; and warm flat
 * workspaces must run repeat queries without touching the heap
 * allocator.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "arm/cspace.h"
#include "arm/workspace.h"
#include "geom/angle.h"
#include "grid/map_gen.h"
#include "grid/occupancy_grid2d.h"
#include "grid/occupancy_grid3d.h"
#include "plan/prm.h"
#include "search/astar.h"
#include "search/dary_heap.h"
#include "search/dijkstra_heuristic.h"
#include "search/graph_search.h"
#include "search/grid_planner2d.h"
#include "search/grid_planner3d.h"
#include "search/search_engine.h"
#include "search/spacetime_planner.h"
#include "util/rng.h"

// ---------------------------------------------------------------------
// Global allocation counter: the zero-allocation contract of warm
// workspaces is asserted by counting every operator new in the
// process. Single-threaded tests sample the counter around the call
// under test, so unrelated allocations cannot leak in.
// ---------------------------------------------------------------------

namespace {
std::atomic<std::size_t> g_news{0};
}

void *
operator new(std::size_t size)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

// The replacement operator new above is malloc-backed, so freeing in
// the replacement deletes is correct; GCC's mismatch heuristic cannot
// see through the replacement.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace rtr {
namespace {

// ---------------------------------------------------------------------
// Engine parity helpers
// ---------------------------------------------------------------------

void
expectPlansEqual(const GridPlan2D &flat, const GridPlan2D &heap)
{
    EXPECT_EQ(flat.found, heap.found);
    EXPECT_EQ(flat.path, heap.path);
    EXPECT_EQ(flat.cost, heap.cost) << "costs must be bitwise equal";
    EXPECT_EQ(flat.expanded, heap.expanded);
    EXPECT_EQ(flat.collision_checks, heap.collision_checks);
    EXPECT_EQ(flat.peak_open, heap.peak_open);
    EXPECT_EQ(flat.search_stats.stale_pops, heap.search_stats.stale_pops);
    EXPECT_EQ(flat.search_stats.reopen_skips,
              heap.search_stats.reopen_skips);
}

void
expectPlansEqual(const GridPlan3D &flat, const GridPlan3D &heap)
{
    EXPECT_EQ(flat.found, heap.found);
    EXPECT_EQ(flat.path, heap.path);
    EXPECT_EQ(flat.cost, heap.cost);
    EXPECT_EQ(flat.expanded, heap.expanded);
    EXPECT_EQ(flat.collision_checks, heap.collision_checks);
    EXPECT_EQ(flat.peak_open, heap.peak_open);
    EXPECT_EQ(flat.search_stats.stale_pops, heap.search_stats.stale_pops);
    EXPECT_EQ(flat.search_stats.reopen_skips,
              heap.search_stats.reopen_skips);
}

/** Random obstacle grid with guaranteed-free start/goal candidates. */
OccupancyGrid2D
randomGrid2D(Rng &rng, int size, double density)
{
    OccupancyGrid2D grid(size, size, 1.0);
    for (int y = 0; y < size; ++y)
        for (int x = 0; x < size; ++x)
            if (rng.uniform() < density)
                grid.setOccupied(x, y);
    return grid;
}

Cell2
randomCell2(Rng &rng, int size)
{
    return Cell2{static_cast<int>(rng.intRange(0, size - 1)),
                 static_cast<int>(rng.intRange(0, size - 1))};
}

// ---------------------------------------------------------------------
// Open-list order parity
// ---------------------------------------------------------------------

/**
 * The engine-identity foundation: MinHeap and DaryHeap at every arity
 * pop identical (key, id) sequences for identical pushes — including
 * duplicated keys and duplicated (key, id) entries.
 */
TEST(DaryHeap, PopOrderMatchesMinHeapUnderTies)
{
    Rng rng(1234);
    for (int round = 0; round < 50; ++round) {
        MinHeap<std::uint32_t> reference;
        DaryHeap<std::uint32_t, 2> d2;
        DaryHeap<std::uint32_t, 4> d4;
        DaryHeap<std::uint32_t, 8> d8;
        const int n = 1 + static_cast<int>(rng.intRange(0, 200));
        for (int i = 0; i < n; ++i) {
            // Few distinct keys: plenty of ties.
            double key = static_cast<double>(rng.intRange(0, 8));
            auto id = static_cast<std::uint32_t>(rng.intRange(0, 30));
            reference.push(key, id);
            d2.push(key, id);
            d4.push(key, id);
            d8.push(key, id);
        }
        while (!reference.empty()) {
            auto expected = reference.pop();
            auto a = d2.pop();
            auto b = d4.pop();
            auto c = d8.pop();
            ASSERT_EQ(a.key, expected.key);
            ASSERT_EQ(a.id, expected.id);
            ASSERT_EQ(b.key, expected.key);
            ASSERT_EQ(b.id, expected.id);
            ASSERT_EQ(c.key, expected.key);
            ASSERT_EQ(c.id, expected.id);
        }
        EXPECT_TRUE(d2.empty());
        EXPECT_TRUE(d4.empty());
        EXPECT_TRUE(d8.empty());
    }
}

// ---------------------------------------------------------------------
// 2-D grid planner
// ---------------------------------------------------------------------

/**
 * Random maps, epsilons, endpoints (reachable, unreachable and
 * invalid), with and without a footprint; each planner pair answers
 * several queries so the flat side also exercises workspace reuse.
 */
TEST(SearchFlatFuzz, GridPlanner2DMatchesHeapEngine)
{
    RectFootprint footprint(2.0, 1.2);
    for (std::uint64_t seed = 0; seed < 24; ++seed) {
        Rng rng(seed * 7919 + 1);
        const int size = 24 + static_cast<int>(rng.intRange(0, 40));
        const double density = rng.uniform(0.05, 0.35);
        OccupancyGrid2D grid = randomGrid2D(rng, size, density);
        const bool with_footprint = seed % 2 == 0;
        GridPlanner2D flat(grid, with_footprint ? &footprint : nullptr,
                           SearchEngine::Flat);
        GridPlanner2D heap(grid, with_footprint ? &footprint : nullptr,
                           SearchEngine::Heap);
        const double epsilons[] = {1.0, 1.5, 3.0};
        for (double epsilon : epsilons) {
            Cell2 start = randomCell2(rng, size);
            Cell2 goal = randomCell2(rng, size);
            GridPlan2D a = flat.plan(start, goal, epsilon);
            GridPlan2D b = heap.plan(start, goal, epsilon);
            expectPlansEqual(a, b);
        }
    }
}

// ---------------------------------------------------------------------
// 3-D grid planner
// ---------------------------------------------------------------------

TEST(SearchFlatFuzz, GridPlanner3DMatchesHeapEngine)
{
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        Rng rng(seed * 104729 + 3);
        const int side = 12 + static_cast<int>(rng.intRange(0, 12));
        const int depth = 6 + static_cast<int>(rng.intRange(0, 6));
        OccupancyGrid3D grid(side, side, depth, 1.0);
        const double density = rng.uniform(0.05, 0.3);
        for (int z = 0; z < depth; ++z)
            for (int y = 0; y < side; ++y)
                for (int x = 0; x < side; ++x)
                    if (rng.uniform() < density)
                        grid.setOccupied(x, y, z);
        GridPlanner3D flat(grid, SearchEngine::Flat);
        GridPlanner3D heap(grid, SearchEngine::Heap);
        for (int q = 0; q < 3; ++q) {
            Cell3 start{static_cast<int>(rng.intRange(0, side - 1)),
                        static_cast<int>(rng.intRange(0, side - 1)),
                        static_cast<int>(rng.intRange(0, depth - 1))};
            Cell3 goal{static_cast<int>(rng.intRange(0, side - 1)),
                       static_cast<int>(rng.intRange(0, side - 1)),
                       static_cast<int>(rng.intRange(0, depth - 1))};
            double epsilon = q == 0 ? 1.0 : 1.0 + rng.uniform(0.0, 2.0);
            GridPlan3D a = flat.plan(start, goal, epsilon);
            GridPlan3D b = heap.plan(start, goal, epsilon);
            expectPlansEqual(a, b);
        }
    }
}

// ---------------------------------------------------------------------
// Explicit-graph A*
// ---------------------------------------------------------------------

/** Random geometric graph; far-apart components stay disconnected. */
struct GeometricGraph
{
    ExplicitGraph graph;
    std::vector<std::pair<double, double>> points;
};

GeometricGraph
randomGeometricGraph(Rng &rng, std::size_t n, double radius)
{
    GeometricGraph out;
    for (std::size_t i = 0; i < n; ++i) {
        out.points.emplace_back(rng.uniform(0.0, 10.0),
                                rng.uniform(0.0, 10.0));
        out.graph.addNode();
    }
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            double dx = out.points[i].first - out.points[j].first;
            double dy = out.points[i].second - out.points[j].second;
            double dist = std::sqrt(dx * dx + dy * dy);
            if (dist <= radius)
                out.graph.addEdge(static_cast<std::uint32_t>(i),
                                  static_cast<std::uint32_t>(j), dist);
        }
    }
    return out;
}

TEST(SearchFlatFuzz, GraphAStarMatchesHeapEngine)
{
    SearchWorkspace shared_ws; // reused across every query below
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
        Rng rng(seed * 31337 + 5);
        const std::size_t n = 40 + rng.intRange(0, 120);
        // Small radius on some seeds: guaranteed disconnected pairs.
        const double radius = seed % 3 == 0 ? 0.6 : 1.5;
        GeometricGraph g = randomGeometricGraph(rng, n, radius);
        for (int q = 0; q < 4; ++q) {
            auto start =
                static_cast<std::uint32_t>(rng.intRange(0, n - 1));
            auto goal =
                static_cast<std::uint32_t>(rng.intRange(0, n - 1));
            auto heuristic = [&](std::uint32_t node) {
                double dx =
                    g.points[node].first - g.points[goal].first;
                double dy =
                    g.points[node].second - g.points[goal].second;
                return std::sqrt(dx * dx + dy * dy);
            };
            GraphSearchResult a =
                graphAStar(g.graph, start, goal, heuristic, nullptr,
                           SearchEngine::Flat, &shared_ws);
            GraphSearchResult b =
                graphAStar(g.graph, start, goal, heuristic, nullptr,
                           SearchEngine::Heap);
            EXPECT_EQ(a.found, b.found);
            EXPECT_EQ(a.path, b.path);
            EXPECT_EQ(a.cost, b.cost);
            EXPECT_EQ(a.expanded, b.expanded);
            EXPECT_EQ(a.heuristic_evals, b.heuristic_evals);
            EXPECT_EQ(a.peak_open, b.peak_open);
            EXPECT_EQ(a.search_stats.stale_pops,
                      b.search_stats.stale_pops);
            EXPECT_EQ(a.search_stats.reopen_skips,
                      b.search_stats.reopen_skips);
        }
    }
}

// ---------------------------------------------------------------------
// Generic A*
// ---------------------------------------------------------------------

TEST(SearchFlatFuzz, GenericAStarMatchesHeapEngine)
{
    // Implicit 2-D lattice with a cost bump in the middle; inflated
    // heuristic makes it inconsistent, so reopen_skips is exercised.
    struct PairHash
    {
        std::size_t
        operator()(const std::pair<int, int> &p) const
        {
            return std::hash<long long>()(
                (static_cast<long long>(p.first) << 32) ^
                static_cast<unsigned>(p.second));
        }
    };
    using State = std::pair<int, int>;
    const int kSide = 24;
    const State goal{kSide - 1, kSide - 1};
    AStarProblem<State> problem;
    problem.successors = [&](const State &s,
                             std::vector<std::pair<State, double>> &out) {
        const int moves[4][2] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
        for (const auto &m : moves) {
            State next{s.first + m[0], s.second + m[1]};
            if (next.first < 0 || next.first >= kSide ||
                next.second < 0 || next.second >= kSide)
                continue;
            double bump = (next.first > 8 && next.first < 16 &&
                           next.second > 8 && next.second < 16)
                              ? 4.0
                              : 1.0;
            out.emplace_back(next, bump);
        }
    };
    problem.heuristic = [&](const State &s) {
        return std::abs(goal.first - s.first) +
               std::abs(goal.second - s.second);
    };
    problem.isGoal = [&](const State &s) { return s == goal; };

    for (double epsilon : {1.0, 2.0, 5.0}) {
        problem.epsilon = epsilon;
        problem.search_engine = SearchEngine::Flat;
        auto a = astarSearch<State, PairHash>({0, 0}, problem);
        problem.search_engine = SearchEngine::Heap;
        auto b = astarSearch<State, PairHash>({0, 0}, problem);
        EXPECT_EQ(a.found, b.found);
        EXPECT_EQ(a.path, b.path);
        EXPECT_EQ(a.cost, b.cost);
        EXPECT_EQ(a.expanded, b.expanded);
        EXPECT_EQ(a.generated, b.generated);
        EXPECT_EQ(a.peak_open, b.peak_open);
        EXPECT_EQ(a.search_stats.stale_pops, b.search_stats.stale_pops);
        EXPECT_EQ(a.search_stats.reopen_skips,
                  b.search_stats.reopen_skips);
        EXPECT_TRUE(a.found);
    }
}

// ---------------------------------------------------------------------
// Space-time planner + backward Dijkstra
// ---------------------------------------------------------------------

TEST(SearchFlatFuzz, DijkstraHeuristicTableIdenticalAcrossEngines)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        CostGrid2D field = makeCostField(48, 48, seed);
        std::vector<Cell2> sources{{4, 4}, {40, 20}, {20, 40}};
        DijkstraHeuristic flat(field, sources, nullptr,
                               SearchEngine::Flat);
        DijkstraHeuristic heap(field, sources, nullptr,
                               SearchEngine::Heap);
        for (int y = 0; y < 48; ++y) {
            for (int x = 0; x < 48; ++x) {
                ASSERT_EQ(flat.costToSource({x, y}),
                          heap.costToSource({x, y}))
                    << "cell (" << x << ", " << y << ") diverged";
            }
        }
    }
}

TEST(SearchFlatFuzz, SpacetimePlannerMatchesHeapEngine)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        CostGrid2D field = makeCostField(40, 40, seed);
        Cell2 target_start{30, 30};
        while (!field.passable(target_start.x, target_start.y))
            ++target_start.x;
        MovingTargetProblem problem;
        problem.field = &field;
        problem.target_trajectory =
            makeTargetTrajectory(field, target_start, 60, seed * 3 + 1);
        problem.robot_start = Cell2{4, 4};
        while (!field.passable(problem.robot_start.x,
                               problem.robot_start.y))
            ++problem.robot_start.y;
        problem.epsilon = seed % 2 == 0 ? 1.0 : 2.5;
        problem.heuristic =
            seed % 3 == 0 ? MovingTargetProblem::Heuristic::Euclidean
                          : MovingTargetProblem::Heuristic::
                                BackwardDijkstra;

        problem.search_engine = SearchEngine::Flat;
        SpacetimePlan a = planMovingTarget(problem);
        problem.search_engine = SearchEngine::Heap;
        SpacetimePlan b = planMovingTarget(problem);

        EXPECT_EQ(a.found, b.found);
        EXPECT_EQ(a.cost, b.cost);
        EXPECT_EQ(a.expanded, b.expanded);
        EXPECT_EQ(a.catch_time, b.catch_time);
        EXPECT_EQ(a.peak_open, b.peak_open);
        EXPECT_EQ(a.search_stats.stale_pops, b.search_stats.stale_pops);
        EXPECT_EQ(a.search_stats.reopen_skips,
                  b.search_stats.reopen_skips);
        ASSERT_EQ(a.path.size(), b.path.size());
        for (std::size_t i = 0; i < a.path.size(); ++i) {
            EXPECT_EQ(a.path[i].cell, b.path[i].cell);
            EXPECT_EQ(a.path[i].time, b.path[i].time);
        }
    }
}

// ---------------------------------------------------------------------
// PRM online query
// ---------------------------------------------------------------------

TEST(SearchFlatFuzz, PrmQueryMatchesHeapEngine)
{
    PlanarArm arm = PlanarArm::uniform({0.25, 0.0}, 4, 0.45);
    Workspace workspace = makeMapC();
    ConfigSpace space(4, -kPi, kPi);
    ArmCollisionChecker checker(arm, workspace);

    auto makePlanner = [&](SearchEngine engine) {
        PrmConfig config;
        config.n_samples = 300;
        config.search_engine = engine;
        auto planner =
            std::make_unique<PrmPlanner>(space, checker, config);
        Rng rng(9); // same seed: identical roadmaps
        planner->build(rng);
        return planner;
    };
    auto flat = makePlanner(SearchEngine::Flat);
    auto heap = makePlanner(SearchEngine::Heap);

    Rng rng(21);
    PrmQueryWorkspace worker_ws; // exercised across all queries
    for (int q = 0; q < 6; ++q) {
        ArmConfig start = space.sample(rng);
        ArmConfig goal = space.sample(rng);
        std::size_t evals_flat = 0, evals_heap = 0;
        MotionPlan a = flat->query(start, goal, checker, nullptr,
                                   &evals_flat, &worker_ws);
        MotionPlan b =
            heap->query(start, goal, checker, nullptr, &evals_heap);
        EXPECT_EQ(a.found, b.found);
        EXPECT_EQ(a.cost, b.cost);
        EXPECT_EQ(a.path, b.path);
        EXPECT_EQ(evals_flat, evals_heap);
        EXPECT_EQ(a.tree_size, b.tree_size);
        EXPECT_EQ(a.collision_checks, b.collision_checks);

        // The workspace-reusing overload and the copy-per-query
        // overload must agree with each other too.
        std::size_t evals_again = 0;
        MotionPlan c = flat->query(start, goal, checker, nullptr,
                                   &evals_again, nullptr);
        EXPECT_EQ(c.found, a.found);
        EXPECT_EQ(c.cost, a.cost);
        EXPECT_EQ(c.path, a.path);
        EXPECT_EQ(evals_again, evals_flat);
    }
}

// ---------------------------------------------------------------------
// Zero-allocation contract
// ---------------------------------------------------------------------

/** Allocations performed by @p fn (single-threaded exact count). */
template <typename Fn>
std::size_t
allocationsDuring(Fn &&fn)
{
    const std::size_t before = g_news.load(std::memory_order_relaxed);
    fn();
    return g_news.load(std::memory_order_relaxed) - before;
}

/**
 * A warm flat workspace answers repeat queries without allocating on
 * the expansion path. The goal sits in a walled-off pocket, so the
 * search exhausts the start's component and no path is built — every
 * byte the query touches is workspace-owned.
 */
TEST(SearchFlatZeroAlloc, WarmGrid2DUnreachableQueryDoesNotAllocate)
{
    const int kSide = 64;
    OccupancyGrid2D grid(kSide, kSide, 1.0);
    for (int y = 0; y < kSide; ++y)
        grid.setOccupied(kSide - 8, y); // full wall: right strip sealed
    GridPlanner2D planner(grid, nullptr, SearchEngine::Flat);
    const Cell2 start{2, 2};
    const Cell2 goal{kSide - 4, kSide - 4}; // inside the pocket

    GridPlan2D warmup = planner.plan(start, goal);
    ASSERT_FALSE(warmup.found);
    ASSERT_GT(warmup.expanded, 0u);

    GridPlan2D warm;
    const std::size_t allocs =
        allocationsDuring([&] { warm = planner.plan(start, goal); });
    EXPECT_EQ(allocs, 0u)
        << "warm flat repeat query must not touch the allocator";
    EXPECT_EQ(warm.expanded, warmup.expanded);
    EXPECT_EQ(warm.peak_open, warmup.peak_open);
}

TEST(SearchFlatZeroAlloc, WarmGraphAStarUnreachableQueryDoesNotAllocate)
{
    // Two components: a chain 0-1-2 and an isolated node 3.
    ExplicitGraph graph;
    for (int i = 0; i < 4; ++i)
        graph.addNode();
    graph.addEdge(0, 1, 1.0);
    graph.addEdge(1, 2, 1.0);

    SearchWorkspace ws;
    std::function<double(std::uint32_t)> zero =
        [](std::uint32_t) { return 0.0; };
    GraphSearchResult warmup = graphAStar(graph, 0, 3, zero, nullptr,
                                          SearchEngine::Flat, &ws);
    ASSERT_FALSE(warmup.found);

    GraphSearchResult warm;
    const std::size_t allocs = allocationsDuring([&] {
        warm = graphAStar(graph, 0, 3, zero, nullptr,
                          SearchEngine::Flat, &ws);
    });
    EXPECT_EQ(allocs, 0u);
    EXPECT_EQ(warm.expanded, warmup.expanded);
}

/** The heap engine, by contrast, allocates per query by design. */
TEST(SearchFlatZeroAlloc, HeapEngineAllocatesPerQuery)
{
    OccupancyGrid2D grid(32, 32, 1.0);
    GridPlanner2D planner(grid, nullptr, SearchEngine::Heap);
    planner.plan({1, 1}, {30, 30});
    const std::size_t allocs = allocationsDuring(
        [&] { (void)planner.plan({1, 1}, {30, 30}); });
    EXPECT_GT(allocs, 0u);
}

} // namespace
} // namespace rtr
