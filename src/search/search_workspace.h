/**
 * @file
 * Node stores of the two graph-search engines: the per-node g, parent
 * and open/closed state that the shared best-first loop
 * (search/best_first.h) reads and writes. A store also maps the keys
 * the open list holds to dense node ids (the identity on dense
 * domains, an intern table on sparse ones).
 *
 * Flat engine. Resetting the arrays between queries costs O(1), not
 * O(domain): every per-node entry (g, parent) is guarded by an epoch
 * stamp, and a query reset is `epoch += 2`. The stamp encodes three
 * states in one byte —
 *
 *     stamp <  epoch      untouched this query (g/parent garbage)
 *     stamp == epoch      discovered and open
 *     stamp == epoch + 1  closed
 *
 * — so the open/closed test is one load and the "visited" arrays are
 * almost never cleared (the rtr::service PRM/pp2d handlers run
 * thousands of searches against one immutable World; an O(n) memset per
 * query would dwarf the searches themselves on small maps). Stamps are
 * a single byte: the closed-test array must stay as dense as the
 * reference engine's closed bytes or full-domain floods (epsilon = 1
 * on a large grid) lose the cache-residency contest that this engine
 * exists to win. Byte stamps wrap every 126 queries, at which point one
 * honest O(n) clear re-arms them — amortized O(n/126), noise.
 *
 * A workspace is NOT thread-safe: it is scratch, owned per planner
 * instance or per service worker (the WorkerContext pattern), exactly
 * like the collision checker's FK scratch. Warm workspaces make repeat
 * queries allocation-free on the expansion path (asserted by
 * tests/test_search_flat.cpp).
 *
 * Heap engine (the reference). Plain NodeArrays allocated per query:
 * DenseNodeStore over a dense domain, SparseNodeStore<HashIntern64>
 * (a std::unordered_map intern) over the space-time lattice.
 */

#ifndef RTR_SEARCH_SEARCH_WORKSPACE_H
#define RTR_SEARCH_SEARCH_WORKSPACE_H

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "search/dary_heap.h"
#include "util/logging.h"

namespace rtr {

/**
 * Flat search state over a dense id domain [0, n): epoch-stamped SoA
 * node pool (g, parent, stamp), a 4-ary open list, and a path-chain
 * scratch buffer. One instance serves any number of sequential queries
 * over domains of any size (the arrays grow monotonically to the
 * largest domain seen).
 */
class SearchWorkspace
{
  public:
    /** Parent sentinel of a search root. */
    static constexpr std::uint32_t kNoParent = 0xFFFFFFFF;

    /**
     * Arm the pool for one query over ids [0, n). O(1) except on
     * domain growth and on byte-epoch wrap (every 126 queries).
     */
    void
    beginQuery(std::size_t n)
    {
        extend(n);
        if (epoch_ >= 254u) {
            std::fill(stamp_.begin(), stamp_.end(),
                      std::uint8_t{0});
            epoch_ = 0;
        }
        epoch_ += 2;
        open_.clear();
    }

    /**
     * Grow the domain to ids [0, n) without resetting the query (for
     * searches that number states as they discover them); new ids
     * start untouched.
     */
    void
    extend(std::size_t n)
    {
        if (n > stamp_.size()) {
            stamp_.resize(n, 0);
            g_.resize(n);
            parent_.resize(n);
        }
    }

    /** Dense domain: open-list keys are node ids. */
    static std::uint32_t intern(std::uint32_t id) { return id; }
    static std::uint32_t find(std::uint32_t id) { return id; }
    static std::uint32_t keyOf(std::uint32_t id) { return id; }

    /** Whether the node has been touched (open or closed) this query. */
    bool
    discovered(std::uint32_t id) const
    {
        return stamp_[id] >= epoch_;
    }

    /** Whether the node has been expanded this query. */
    bool
    closed(std::uint32_t id) const
    {
        return stamp_[id] == epoch_ + 1;
    }

    /** First-touch or improving relaxation: stamp open, set g/parent. */
    void
    relax(std::uint32_t id, double g, std::uint32_t parent)
    {
        stamp_[id] = static_cast<std::uint8_t>(epoch_);
        g_[id] = g;
        parent_[id] = parent;
    }

    /** Mark a discovered node expanded (g/parent stay readable). */
    void
    close(std::uint32_t id)
    {
        stamp_[id] = static_cast<std::uint8_t>(epoch_ + 1);
    }

    /** g-value of a discovered node. */
    double g(std::uint32_t id) const { return g_[id]; }

    /** Parent id of a discovered node (kNoParent for the root). */
    std::uint32_t parent(std::uint32_t id) const { return parent_[id]; }

    /** The flat engine's open list. */
    DaryHeap<std::uint32_t, 4> &open() { return open_; }

    /** Scratch for goal-to-start parent chains (path reconstruction). */
    std::vector<std::uint32_t> &chain() { return chain_; }

  private:
    /** Byte stamps: as cache-dense as the reference closed bitmap. */
    std::vector<std::uint8_t> stamp_;
    std::vector<double> g_;
    std::vector<std::uint32_t> parent_;
    /** Current query's open stamp (epoch_ + 1 = closed); < 255. */
    std::uint32_t epoch_ = 0;
    DaryHeap<std::uint32_t, 4> open_;
    std::vector<std::uint32_t> chain_;
};

/**
 * Epoch-stamped open-addressing map from sparse 64-bit keys to dense
 * 32-bit ids, for searches whose state space is too large (or
 * unbounded) to index directly — the spacetime planner's (x, y, t)
 * lattice. Linear probing over power-of-two arrays; a slot is live only
 * when its stamp matches the current epoch, so clearing between
 * queries is the same counter bump as the node pool's. Replaces the
 * reference engine's per-query std::unordered_map (one heap node per
 * entry) with three flat arrays.
 */
class FlatIntern64
{
  public:
    /** Reset to an empty map; O(1) except on epoch wrap. */
    void
    beginQuery()
    {
        if (cap_ == 0)
            grow(1024);
        if (epoch_ == 0xFFFFFFFFu) {
            std::fill(stamp_.begin(), stamp_.end(), 0u);
            epoch_ = 0;
        }
        ++epoch_;
        count_ = 0;
    }

    /** Live entry count this query. */
    std::uint32_t size() const { return count_; }

    /**
     * Id of @p key, interning it (as the next dense id) when absent.
     * @p fresh reports whether this call created the entry.
     */
    std::uint32_t
    internId(std::uint64_t key, bool &fresh)
    {
        if (count_ + (count_ >> 1) >= cap_) // load factor 2/3
            grow(cap_ * 2);
        std::size_t slot = probe(key);
        if (stamp_[slot] == epoch_) {
            fresh = false;
            return id_[slot];
        }
        stamp_[slot] = epoch_;
        key_[slot] = key;
        id_[slot] = count_;
        fresh = true;
        return count_++;
    }

    /** Id of a key that is known to be present. */
    std::uint32_t
    findId(std::uint64_t key) const
    {
        std::size_t slot = probe(key);
        RTR_ASSERT(stamp_[slot] == epoch_, "findId on an absent key");
        return id_[slot];
    }

  private:
    /** First slot holding @p key, or the empty slot to claim for it. */
    std::size_t
    probe(std::uint64_t key) const
    {
        std::size_t slot = hash(key) & (cap_ - 1);
        while (stamp_[slot] == epoch_ && key_[slot] != key)
            slot = (slot + 1) & (cap_ - 1);
        return slot;
    }

    static std::uint64_t
    hash(std::uint64_t x)
    {
        // splitmix64 finalizer: full avalanche, so linear probing sees
        // uniform slots even for the packed (x, y, t) keys' low entropy.
        x += 0x9E3779B97F4A7C15ull;
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
        x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
        return x ^ (x >> 31);
    }

    void
    grow(std::size_t new_cap)
    {
        std::vector<std::uint32_t> old_stamp = std::move(stamp_);
        std::vector<std::uint64_t> old_key = std::move(key_);
        std::vector<std::uint32_t> old_id = std::move(id_);
        std::size_t old_cap = cap_;
        cap_ = new_cap < 1024 ? 1024 : new_cap;
        stamp_.assign(cap_, 0u);
        key_.assign(cap_, 0u);
        id_.assign(cap_, 0u);
        if (epoch_ == 0)
            epoch_ = 1; // stamps start distinguishable from "empty"
        for (std::size_t s = 0; s < old_cap; ++s) {
            if (old_stamp[s] != epoch_)
                continue;
            std::size_t slot = probe(old_key[s]);
            stamp_[slot] = epoch_;
            key_[slot] = old_key[s];
            id_[slot] = old_id[s];
        }
    }

    std::vector<std::uint32_t> stamp_;
    std::vector<std::uint64_t> key_;
    std::vector<std::uint32_t> id_;
    std::size_t cap_ = 0;
    std::uint32_t epoch_ = 0;
    std::uint32_t count_ = 0;
};

/**
 * Per-node g, parent and a new/open/closed byte, indexed by dense id:
 * the heap engine's node data, and the node half of the sparse stores
 * (which append a slot per interned key).
 */
class NodeArrays
{
  public:
    /** Parent sentinel of a search root. */
    static constexpr std::uint32_t kNoParent = 0xFFFFFFFF;

    /** Grow to ids [0, n); new ids start undiscovered. */
    void
    extend(std::size_t n)
    {
        if (n > state_.size()) {
            g_.resize(n);
            parent_.resize(n);
            state_.resize(n, kNew);
        }
    }

    /** Append one undiscovered node (the next dense id). */
    void
    append()
    {
        g_.push_back(0.0);
        parent_.push_back(kNoParent);
        state_.push_back(kNew);
    }

    /** Drop every node (keeps capacity). */
    void
    clear()
    {
        g_.clear();
        parent_.clear();
        state_.clear();
    }

    bool discovered(std::uint32_t id) const { return state_[id] != kNew; }
    bool closed(std::uint32_t id) const { return state_[id] == kClosed; }

    /** First-touch or improving relaxation: mark open, set g/parent. */
    void
    relax(std::uint32_t id, double g, std::uint32_t parent)
    {
        state_[id] = kOpen;
        g_[id] = g;
        parent_[id] = parent;
    }

    void close(std::uint32_t id) { state_[id] = kClosed; }
    double g(std::uint32_t id) const { return g_[id]; }
    std::uint32_t parent(std::uint32_t id) const { return parent_[id]; }

  private:
    enum : std::uint8_t { kNew, kOpen, kClosed };

    std::vector<double> g_;
    std::vector<std::uint32_t> parent_;
    std::vector<std::uint8_t> state_;
};

/** The heap engine's dense store: NodeArrays allocated per query. */
class DenseNodeStore : public NodeArrays
{
  public:
    explicit DenseNodeStore(std::size_t n) { extend(n); }

    /** Dense domain: open-list keys are node ids. */
    static std::uint32_t intern(std::uint32_t id) { return id; }
    static std::uint32_t find(std::uint32_t id) { return id; }
    static std::uint32_t keyOf(std::uint32_t id) { return id; }
};

/**
 * The heap engine's sparse intern: a per-query std::unordered_map (one
 * heap node per entry), with FlatIntern64's interface.
 */
class HashIntern64
{
  public:
    void beginQuery() { ids_.clear(); }

    std::uint32_t
    internId(std::uint64_t key, bool &fresh)
    {
        auto [it, inserted] =
            ids_.emplace(key, static_cast<std::uint32_t>(ids_.size()));
        fresh = inserted;
        return it->second;
    }

    std::uint32_t findId(std::uint64_t key) const { return ids_.at(key); }

  private:
    std::unordered_map<std::uint64_t, std::uint32_t> ids_;
};

/**
 * Store over sparse 64-bit keys (the space-time lattice): @p Intern
 * maps each key to the next dense id as it is discovered, and the node
 * data lives in NodeArrays indexed by that id. Open lists over such a
 * store hold the *sparse* key, so equal-f ties pop in key order on
 * either engine. Costs one intern probe per generated successor and
 * one find per pop.
 */
template <typename Intern>
class SparseNodeStore : public NodeArrays
{
  public:
    /** Reset for one query (capacity is kept warm). */
    void
    beginQuery()
    {
        intern_.beginQuery();
        clear();
        keys_.clear();
    }

    /** Dense id of @p key, appending an undiscovered node when new. */
    std::uint32_t
    intern(std::uint64_t key)
    {
        bool fresh = false;
        std::uint32_t id = intern_.internId(key, fresh);
        if (fresh) {
            append();
            keys_.push_back(key);
        }
        return id;
    }

    /** Dense id of a key that is known to be present. */
    std::uint32_t find(std::uint64_t key) const
    {
        return intern_.findId(key);
    }

    /** Sparse key a dense id was interned from (path reconstruction). */
    std::uint64_t keyOf(std::uint32_t id) const { return keys_[id]; }

  private:
    Intern intern_;
    std::vector<std::uint64_t> keys_;
};

/** The flat engine's sparse state: intern table, nodes, 4-ary open list. */
struct SparseSearchWorkspace
{
    SparseNodeStore<FlatIntern64> nodes;
    DaryHeap<std::uint64_t, 4> open;
};

} // namespace rtr

#endif // RTR_SEARCH_SEARCH_WORKSPACE_H
