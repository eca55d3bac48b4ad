/**
 * @file
 * Tests for the min-heap, the generic A*, and explicit-graph search.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "search/astar.h"
#include "search/graph_search.h"
#include "search/dary_heap.h"
#include "util/rng.h"

namespace rtr {
namespace {

TEST(MinHeap, PopsInKeyOrder)
{
    MinHeap<std::uint32_t> heap;
    Rng rng(1);
    std::vector<double> keys;
    for (int i = 0; i < 500; ++i) {
        double key = rng.uniform(0, 100);
        keys.push_back(key);
        heap.push(key, static_cast<std::uint32_t>(i));
    }
    std::sort(keys.begin(), keys.end());
    for (double expected : keys) {
        auto [key, id] = heap.pop();
        EXPECT_DOUBLE_EQ(key, expected);
    }
    EXPECT_TRUE(heap.empty());
}

TEST(MinHeap, DuplicateIdsAllowed)
{
    MinHeap<std::uint32_t> heap;
    heap.push(3.0, 7);
    heap.push(1.0, 7);
    EXPECT_DOUBLE_EQ(heap.pop().key, 1.0);
    EXPECT_DOUBLE_EQ(heap.pop().key, 3.0);
}

TEST(MinHeap, TopDoesNotRemove)
{
    MinHeap<std::uint64_t> heap;
    heap.push(5.0, 1);
    heap.push(2.0, 2);
    EXPECT_EQ(heap.top().id, 2u);
    EXPECT_EQ(heap.size(), 2u);
}

/** Implicit 1-D chain: 0 - 1 - 2 - ... - n. */
AStarProblem<int>
chainProblem(int goal)
{
    AStarProblem<int> problem;
    problem.successors = [](const int &s,
                            std::vector<std::pair<int, double>> &out) {
        out.emplace_back(s + 1, 1.0);
        if (s > 0)
            out.emplace_back(s - 1, 1.0);
    };
    problem.heuristic = [goal](const int &s) {
        return static_cast<double>(std::abs(goal - s));
    };
    problem.isGoal = [goal](const int &s) { return s == goal; };
    return problem;
}

TEST(AStar, SolvesChain)
{
    auto result = astarSearch(0, chainProblem(10));
    ASSERT_TRUE(result.found);
    EXPECT_DOUBLE_EQ(result.cost, 10.0);
    ASSERT_EQ(result.path.size(), 11u);
    EXPECT_EQ(result.path.front(), 0);
    EXPECT_EQ(result.path.back(), 10);
}

TEST(AStar, StartIsGoal)
{
    auto result = astarSearch(5, chainProblem(5));
    ASSERT_TRUE(result.found);
    EXPECT_DOUBLE_EQ(result.cost, 0.0);
    EXPECT_EQ(result.path.size(), 1u);
}

TEST(AStar, RespectsExpansionCap)
{
    AStarProblem<int> problem = chainProblem(1000000);
    problem.max_expansions = 100;
    auto result = astarSearch(0, problem);
    EXPECT_FALSE(result.found);
    EXPECT_LE(result.expanded, 101u);
}

TEST(AStar, UnreachableGoalExhaustsSpace)
{
    // Bounded chain 0..5 with goal outside.
    AStarProblem<int> problem;
    problem.successors = [](const int &s,
                            std::vector<std::pair<int, double>> &out) {
        if (s < 5)
            out.emplace_back(s + 1, 1.0);
        if (s > 0)
            out.emplace_back(s - 1, 1.0);
    };
    problem.heuristic = [](const int &) { return 0.0; };
    problem.isGoal = [](const int &s) { return s == 99; };
    auto result = astarSearch(0, problem);
    EXPECT_FALSE(result.found);
    EXPECT_EQ(result.expanded, 6u);
}

TEST(AStar, HeuristicReducesExpansions)
{
    // Bidirectional chain: the blind search wastes expansions on the
    // negative side, the informed one does not.
    auto two_way = [](int goal) {
        AStarProblem<int> problem;
        problem.successors =
            [](const int &s, std::vector<std::pair<int, double>> &out) {
                out.emplace_back(s + 1, 1.0);
                out.emplace_back(s - 1, 1.0);
            };
        problem.heuristic = [goal](const int &s) {
            return static_cast<double>(std::abs(goal - s));
        };
        problem.isGoal = [goal](const int &s) { return s == goal; };
        return problem;
    };
    auto with_h = astarSearch(0, two_way(50));
    AStarProblem<int> blind = two_way(50);
    blind.heuristic = [](const int &) { return 0.0; };
    auto without_h = astarSearch(0, blind);
    EXPECT_TRUE(with_h.found);
    EXPECT_TRUE(without_h.found);
    EXPECT_DOUBLE_EQ(with_h.cost, without_h.cost);
    EXPECT_LT(with_h.expanded, without_h.expanded);
}

/** Random explicit graphs: A* must match Dijkstra's optimal cost. */
class GraphSeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(GraphSeeds, AStarMatchesDijkstra)
{
    Rng rng(GetParam());
    ExplicitGraph graph;
    const std::uint32_t n = 60;
    std::vector<std::pair<double, double>> coords;
    for (std::uint32_t i = 0; i < n; ++i) {
        graph.addNode();
        coords.emplace_back(rng.uniform(0, 10), rng.uniform(0, 10));
    }
    // Random geometric edges with Euclidean costs (keeps the straight-
    // line heuristic admissible).
    for (std::uint32_t i = 0; i < n; ++i) {
        for (std::uint32_t j = i + 1; j < n; ++j) {
            double dx = coords[i].first - coords[j].first;
            double dy = coords[i].second - coords[j].second;
            double dist = std::sqrt(dx * dx + dy * dy);
            if (dist < 2.5)
                graph.addEdge(i, j, dist);
        }
    }

    auto heuristic = [&](std::uint32_t node) {
        double dx = coords[node].first - coords[n - 1].first;
        double dy = coords[node].second - coords[n - 1].second;
        return std::sqrt(dx * dx + dy * dy);
    };
    auto zero = [](std::uint32_t) { return 0.0; };

    GraphSearchResult astar = graphAStar(graph, 0, n - 1, heuristic);
    GraphSearchResult dijkstra = graphAStar(graph, 0, n - 1, zero);
    EXPECT_EQ(astar.found, dijkstra.found);
    if (astar.found) {
        EXPECT_NEAR(astar.cost, dijkstra.cost, 1e-9);
        EXPECT_LE(astar.expanded, dijkstra.expanded);
        // Path endpoints and edge continuity.
        EXPECT_EQ(astar.path.front(), 0u);
        EXPECT_EQ(astar.path.back(), n - 1);
        double walked = 0.0;
        for (std::size_t k = 0; k + 1 < astar.path.size(); ++k) {
            bool edge_exists = false;
            for (const auto &edge : graph.neighbors(astar.path[k])) {
                if (edge.to == astar.path[k + 1]) {
                    edge_exists = true;
                    walked += edge.cost;
                    break;
                }
            }
            EXPECT_TRUE(edge_exists);
        }
        EXPECT_NEAR(walked, astar.cost, 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphSeeds,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(ExplicitGraph, EdgeCount)
{
    ExplicitGraph graph;
    graph.addNode();
    graph.addNode();
    graph.addNode();
    graph.addEdge(0, 1, 1.0);
    graph.addEdge(1, 2, 1.0);
    EXPECT_EQ(graph.size(), 3u);
    EXPECT_EQ(graph.edgeCount(), 2u);
    EXPECT_EQ(graph.neighbors(1).size(), 2u);
}

TEST(GraphAStar, CountsHeuristicEvals)
{
    ExplicitGraph graph;
    for (int i = 0; i < 3; ++i)
        graph.addNode();
    graph.addEdge(0, 1, 1.0);
    graph.addEdge(1, 2, 1.0);
    auto result =
        graphAStar(graph, 0, 2, [](std::uint32_t) { return 0.0; });
    EXPECT_TRUE(result.found);
    EXPECT_GE(result.heuristic_evals, 3u);
}

} // namespace
} // namespace rtr
