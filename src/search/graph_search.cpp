#include "search/graph_search.h"

#include "search/best_first.h"
#include "util/logging.h"

namespace rtr {

std::size_t
ExplicitGraph::edgeCount() const
{
    std::size_t half_edges = 0;
    for (const auto &list : adjacency_)
        half_edges += list.size();
    return half_edges / 2;
}

void
ExplicitGraph::popEdge(std::uint32_t a, std::uint32_t b)
{
    RTR_ASSERT(!adjacency_[a].empty() && adjacency_[a].back().to == b,
               "popEdge out of add order");
    RTR_ASSERT(!adjacency_[b].empty() && adjacency_[b].back().to == a,
               "popEdge out of add order");
    adjacency_[a].pop_back();
    adjacency_[b].pop_back();
}

void
ExplicitGraph::popNode()
{
    RTR_ASSERT(!adjacency_.empty() && adjacency_.back().empty(),
               "popNode with live edges");
    adjacency_.pop_back();
}

GraphSearchResult
graphAStar(const ExplicitGraph &graph, std::uint32_t start,
           std::uint32_t goal,
           const std::function<double(std::uint32_t)> &heuristic,
           PhaseProfiler *profiler, SearchEngine engine,
           SearchWorkspace *ws)
{
    ScopedPhase phase(profiler, "graph-search");
    RTR_ASSERT(start < graph.size() && goal < graph.size(),
               "start/goal out of graph");
    static thread_local SearchWorkspace fallback;
    GraphSearchResult result;
    auto successors = [&](std::uint32_t id, auto &&relax) {
        for (const ExplicitGraph::Edge &edge : graph.neighbors(id)) {
            relax(edge.to, edge.cost, [&] {
                ++result.heuristic_evals;
                return heuristic(edge.to);
            });
        }
    };
    withDenseEngine(
        engine, ws != nullptr ? *ws : fallback, graph.size(),
        [&](auto &store, auto &open, auto &) {
            ++result.heuristic_evals;
            bestFirstSearch(
                store, open, start, heuristic(start), successors,
                [goal](std::uint32_t id) { return id == goal; }, result,
                result.path);
        });
    return result;
}

} // namespace rtr
