/**
 * @file
 * A* over explicit adjacency-list graphs (the PRM roadmap's online
 * query, paper §V.07).
 */

#ifndef RTR_SEARCH_GRAPH_SEARCH_H
#define RTR_SEARCH_GRAPH_SEARCH_H

#include <cstdint>
#include <functional>
#include <vector>

#include "search/search_engine.h"
#include "search/search_workspace.h"
#include "util/profiler.h"

namespace rtr {

/** An undirected weighted graph stored as adjacency lists. */
class ExplicitGraph
{
  public:
    /** One directed half of an undirected edge. */
    struct Edge
    {
        std::uint32_t to;
        double cost;
    };

    /** Append a node; returns its id. */
    std::uint32_t
    addNode()
    {
        adjacency_.emplace_back();
        return static_cast<std::uint32_t>(adjacency_.size() - 1);
    }

    /** Add an undirected edge between two existing nodes. */
    void
    addEdge(std::uint32_t a, std::uint32_t b, double cost)
    {
        adjacency_[a].push_back(Edge{b, cost});
        adjacency_[b].push_back(Edge{a, cost});
    }

    /** Number of nodes. */
    std::size_t size() const { return adjacency_.size(); }

    /** Total undirected edge count. */
    std::size_t edgeCount() const;

    /** Neighbors of a node. */
    const std::vector<Edge> &
    neighbors(std::uint32_t node) const
    {
        return adjacency_[node];
    }

    /**
     * Undo the most recent addEdge(a, b, ...): both half-edges must
     * still be the last entries of their adjacency lists. Together
     * with popNode() this lets a caller attach temporary nodes (PRM
     * start/goal linking), search, and detach — without copying the
     * whole graph per query.
     */
    void popEdge(std::uint32_t a, std::uint32_t b);

    /** Undo the most recent addNode(); the node must have no edges. */
    void popNode();

  private:
    std::vector<std::vector<Edge>> adjacency_;
};

/** Result of an explicit-graph search. */
struct GraphSearchResult
{
    /** Whether the goal was reached. */
    bool found = false;
    /** Node ids from start to goal. */
    std::vector<std::uint32_t> path;
    /** Path cost. */
    double cost = 0.0;
    /** Nodes expanded. */
    std::size_t expanded = 0;
    /** Heuristic evaluations performed (the L2-norm count for PRM). */
    std::size_t heuristic_evals = 0;
    /** Largest open-list size reached (includes stale lazy entries). */
    std::size_t peak_open = 0;
    /** Open-list health counters (identical across engines). */
    SearchStats search_stats;
};

/**
 * A* from start to goal over an explicit graph.
 *
 * @param heuristic Estimated cost-to-goal per node id; pass a function
 *        returning 0 for Dijkstra.
 * @param profiler Optional; the run is one "graph-search" phase.
 * @param engine Search engine; both produce identical results.
 * @param ws Flat-engine workspace to reuse (allocation-free repeat
 *        queries). nullptr falls back to a thread-local workspace.
 */
GraphSearchResult graphAStar(const ExplicitGraph &graph,
                             std::uint32_t start, std::uint32_t goal,
                             const std::function<double(std::uint32_t)>
                                 &heuristic,
                             PhaseProfiler *profiler = nullptr,
                             SearchEngine engine = SearchEngine::Flat,
                             SearchWorkspace *ws = nullptr);

} // namespace rtr

#endif // RTR_SEARCH_GRAPH_SEARCH_H
