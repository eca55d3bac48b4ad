/**
 * @file
 * Implicit d-ary min-heap with lazy deletion, the open list of every
 * best-first search in the suite.
 *
 * decrease-key is realized by pushing a duplicate entry and discarding
 * stale pops against the caller's closed marks — the standard
 * high-performance choice for A* open lists, trading a little heap
 * slack for pointer-free array storage. With Arity children per node
 * the tree is shallower by a factor of log2(Arity), sift-down compares
 * Arity children that sit in one or two cache lines, and sift-up — the
 * common operation on A*'s mostly-monotone key streams — does
 * log_Arity(n) hops instead of log2(n). The flat search engine uses
 * arity 4, the heap reference engine arity 2 (MinHeap).
 *
 * Entries are ordered by the strict (key, id) lexicographic total
 * order at every arity: equal-key entries pop in id order, never in
 * structure-dependent order, which is what makes the two engines'
 * expansion order — and every downstream path and statistic — bitwise
 * identical (DESIGN.md "Graph-search engine", tie-break proof sketch).
 */

#ifndef RTR_SEARCH_DARY_HEAP_H
#define RTR_SEARCH_DARY_HEAP_H

#include <cstdint>
#include <vector>

namespace rtr {

/** d-ary min-heap of (key, id) pairs under the strict (key, id) order. */
template <typename Id = std::uint32_t, unsigned Arity = 4>
class DaryHeap
{
    static_assert(Arity >= 2, "a heap needs at least two children");

  public:
    /** One heap entry. */
    struct Entry
    {
        double key;
        Id id;
    };

    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }

    /** Reserve storage for n entries. */
    void reserve(std::size_t n) { entries_.reserve(n); }

    /** Drop everything (keeps capacity — workspaces reuse it). */
    void clear() { entries_.clear(); }

    /** Insert an entry (duplicates allowed; see file comment). */
    void
    push(double key, Id id)
    {
        entries_.push_back(Entry{key, id});
        siftUp(entries_.size() - 1);
    }

    /** Smallest entry under the (key, id) order. */
    const Entry &top() const { return entries_.front(); }

    /** Remove and return the smallest entry. */
    Entry
    pop()
    {
        Entry out = entries_.front();
        entries_.front() = entries_.back();
        entries_.pop_back();
        if (!entries_.empty())
            siftDown(0);
        return out;
    }

  private:
    static bool
    less(const Entry &a, const Entry &b)
    {
        return a.key < b.key || (a.key == b.key && a.id < b.id);
    }

    void
    siftUp(std::size_t i)
    {
        Entry e = entries_[i];
        while (i > 0) {
            std::size_t parent = (i - 1) / Arity;
            if (!less(e, entries_[parent]))
                break;
            entries_[i] = entries_[parent];
            i = parent;
        }
        entries_[i] = e;
    }

    void
    siftDown(std::size_t i)
    {
        Entry e = entries_[i];
        const std::size_t n = entries_.size();
        while (true) {
            std::size_t first = Arity * i + 1;
            if (first >= n)
                break;
            std::size_t last =
                first + Arity < n ? first + Arity : n;
            std::size_t smallest = first;
            for (std::size_t c = first + 1; c < last; ++c) {
                if (less(entries_[c], entries_[smallest]))
                    smallest = c;
            }
            if (!less(entries_[smallest], e))
                break;
            entries_[i] = entries_[smallest];
            i = smallest;
        }
        entries_[i] = e;
    }

    std::vector<Entry> entries_;
};

/** Binary heap: the heap reference engine's open list. */
template <typename Id = std::uint32_t> using MinHeap = DaryHeap<Id, 2>;

} // namespace rtr

#endif // RTR_SEARCH_DARY_HEAP_H
