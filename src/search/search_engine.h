/**
 * @file
 * The graph-search engines.
 *
 * Every A* search in the suite runs one best-first loop
 * (search/best_first.h); an engine is the node store and open list
 * that loop runs on (DESIGN.md "Graph-search engine"):
 *
 *   flat  cache-conscious stores: dense SoA node pools indexed by cell
 *         or node id, epoch-stamped visited/closed entries (query reset
 *         is a counter bump, not an O(n) clear), and an implicit 4-ary
 *         open list — reusable through a per-planner/per-worker
 *         SearchWorkspace so repeat queries are allocation-free (the
 *         default);
 *   heap  the reference: per-query node vectors (or a std::unordered_map
 *         intern on the space-time lattice) and a binary open list.
 *
 * Both open lists share one strict (key, id) total order, so popped
 * expansion order — and therefore paths, costs, `expanded`, and
 * `peak_open` — is identical across engines at every thread count.
 * Planners and config structs take the engine as an explicit value
 * (flat unless told otherwise). The heap stores survive as the test
 * oracle: the SearchFlatFuzz suite, the service replay test and
 * bench_abl_wastar pass SearchEngine::Heap through that argument.
 */

#ifndef RTR_SEARCH_SEARCH_ENGINE_H
#define RTR_SEARCH_SEARCH_ENGINE_H

#include <cstddef>

namespace rtr {

/** Which engine runs graph-search expansion loops. */
enum class SearchEngine
{
    Flat, ///< SoA node pools + epoch stamps + 4-ary heap (the default).
    Heap, ///< Per-query vectors / hash intern + binary heap (reference).
};

/**
 * Open-list health counters of one search run. Both engines use lazy
 * deletion (decrease-key = push a duplicate, discard stale pops), and
 * neither reopens closed nodes, so these counters quantify the slack
 * that policy costs: identical across engines by the expansion-order
 * contract.
 */
struct SearchStats
{
    /** Pops discarded because the node was already closed (the lazy-
     *  deletion duplicates that survived to the top of the heap). */
    std::size_t stale_pops = 0;
    /** Relaxations that found a strictly better g for an already-
     *  closed node and were suppressed — nonzero only when the
     *  (inflated) heuristic is inconsistent, e.g. under WA*. Each one
     *  is a node a reopening search would have re-expanded. */
    std::size_t reopen_skips = 0;
};

} // namespace rtr

#endif // RTR_SEARCH_SEARCH_ENGINE_H
