/**
 * @file
 * The best-first expansion loop shared by every A* / Weighted-A* search
 * in the suite: the grid planners, the explicit-graph query, the
 * space-time planner and the generic astarSearch (hence the symbolic
 * planner).
 *
 * The loop is written once and templated on a node store (the
 * per-node g, parent and open/closed state, see search_workspace.h)
 * and an open list (DaryHeap). The search engine is nothing more than
 * the choice of that pair:
 *
 *   flat  SearchWorkspace or SparseSearchWorkspace + DaryHeap<Id, 4>
 *   heap  per-query DenseNodeStore or SparseNodeStore<HashIntern64>
 *         + DaryHeap<Id, 2>
 *
 * Both stores answer the same queries identically and both open lists
 * pop in the strict (key, id) order, so one loop yields bitwise-
 * identical expansions, paths and statistics on either engine.
 */

#ifndef RTR_SEARCH_BEST_FIRST_H
#define RTR_SEARCH_BEST_FIRST_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "search/dary_heap.h"
#include "search/search_engine.h"
#include "search/search_workspace.h"

namespace rtr {

/**
 * Best-first search from @p start with lazy deletion: a pop of a closed
 * node is a stale duplicate, and a successor is (re)pushed only when
 * `candidate < g` improves its g. Closed nodes are never reopened.
 *
 * @param store Node store; @p open holds its keys (@p Key).
 * @param start_f Priority of the start key (its weighted heuristic).
 * @param successors Called as `successors(key, relax)` on each expanded
 *        key; it reports every successor as `relax(next, edge_cost, h)`,
 *        where `h()` returns the successor's weighted heuristic and is
 *        evaluated only when the successor is pushed.
 * @param is_goal Goal test on a popped key.
 * @param result Receives found, cost, expanded, peak_open (sampled per
 *        expansion; includes stale entries) and search_stats.
 * @param path The keys from start to goal; empty unless found.
 * @param max_expansions Give up (not found) after this many
 *        expansions; 0 = unbounded.
 */
template <typename Key, typename Store, typename Open, typename Successors,
          typename IsGoal, typename Result>
void
bestFirstSearch(Store &store, Open &open, const Key &start, double start_f,
                Successors &&successors, IsGoal &&is_goal, Result &result,
                std::vector<Key> &path, std::size_t max_expansions = 0)
{
    path.clear();
    store.relax(store.intern(start), 0.0, Store::kNoParent);
    open.push(start_f, start);
    result.peak_open = open.size();

    while (!open.empty()) {
        const Key key = open.pop().id;
        const std::uint32_t node = store.find(key);
        if (store.closed(node)) {
            ++result.search_stats.stale_pops;
            continue;
        }
        store.close(node);
        ++result.expanded;
        if (max_expansions != 0 && result.expanded > max_expansions)
            return;

        if (is_goal(key)) {
            result.found = true;
            result.cost = store.g(node);
            for (std::uint32_t cur = node; cur != Store::kNoParent;
                 cur = store.parent(cur))
                path.push_back(store.keyOf(cur));
            std::reverse(path.begin(), path.end());
            return;
        }

        const double g = store.g(node);
        successors(key, [&](const Key &next, double edge_cost,
                            auto &&heuristic) {
            const double candidate = g + edge_cost;
            const std::uint32_t next_node = store.intern(next);
            if (store.discovered(next_node)) {
                if (store.closed(next_node)) {
                    if (candidate < store.g(next_node))
                        ++result.search_stats.reopen_skips;
                    return;
                }
                if (!(candidate < store.g(next_node)))
                    return;
            }
            store.relax(next_node, candidate, node);
            open.push(candidate + heuristic(), next);
        });
        // The heap only grows inside the successor loop, so sampling
        // once per expansion captures the true peak.
        if (open.size() > result.peak_open)
            result.peak_open = open.size();
    }
}

/**
 * Call `search(store, open, chain)` with the node store and open list
 * that @p engine selects over the dense domain [0, n): @p ws armed for
 * one query with its 4-ary open list and path scratch (flat), or
 * per-query vectors and a binary heap (heap).
 */
template <typename Search>
void
withDenseEngine(SearchEngine engine, SearchWorkspace &ws, std::size_t n,
                Search &&search)
{
    if (engine == SearchEngine::Flat) {
        ws.beginQuery(n);
        search(ws, ws.open(), ws.chain());
        return;
    }
    DenseNodeStore store(n);
    MinHeap<std::uint32_t> open;
    std::vector<std::uint32_t> chain;
    search(store, open, chain);
}

} // namespace rtr

#endif // RTR_SEARCH_BEST_FIRST_H
