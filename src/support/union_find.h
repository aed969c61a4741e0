/**
 * @file
 * Union-find with path halving, used to collapse pointer-equivalence
 * cycles in the Andersen solver (lazy cycle detection) and merged
 * nodes produced by HVN.
 */

#pragma once

#include <cstdint>
#include <numeric>
#include <vector>

#include "support/common.h"

namespace oha {

/** Disjoint-set forest over dense uint32 ids. */
class UnionFind
{
  public:
    explicit UnionFind(std::size_t n = 0) { reset(n); }

    /** Reinitialize with @p n singleton sets. */
    void
    reset(std::size_t n)
    {
        parent_.resize(n);
        std::iota(parent_.begin(), parent_.end(), 0);
        rank_.assign(n, 0);
    }

    /** Grow to at least @p n elements. */
    void
    grow(std::size_t n)
    {
        const std::size_t old = parent_.size();
        if (n <= old)
            return;
        parent_.resize(n);
        rank_.resize(n, 0);
        for (std::size_t i = old; i < n; ++i)
            parent_[i] = static_cast<std::uint32_t>(i);
    }

    /** Representative of @p x (with path halving). */
    std::uint32_t
    find(std::uint32_t x)
    {
        while (parent_[x] != x) {
            parent_[x] = parent_[parent_[x]];
            x = parent_[x];
        }
        return x;
    }

    /** Merge the sets of @p a and @p b; returns the new representative. */
    std::uint32_t
    merge(std::uint32_t a, std::uint32_t b)
    {
        a = find(a);
        b = find(b);
        if (a == b)
            return a;
        if (rank_[a] < rank_[b])
            std::swap(a, b);
        parent_[b] = a;
        if (rank_[a] == rank_[b])
            ++rank_[a];
        return a;
    }

    /**
     * Merge with a caller-chosen representative: @p drop's set joins
     * @p keep's, and @p keep stays the representative.  Both must
     * already be representatives.  Used where the surviving id is
     * semantically significant (the Andersen solver collapses cycles
     * to the minimum member id so node naming is independent of
     * discovery order); plain merge() picks by rank instead.
     */
    void
    mergeInto(std::uint32_t keep, std::uint32_t drop)
    {
        OHA_ASSERT(parent_[keep] == keep && parent_[drop] == drop);
        if (keep == drop)
            return;
        parent_[drop] = keep;
        if (rank_[keep] <= rank_[drop])
            rank_[keep] = static_cast<std::uint8_t>(rank_[drop] + 1);
    }

    bool same(std::uint32_t a, std::uint32_t b) { return find(a) == find(b); }

    std::size_t size() const { return parent_.size(); }

  private:
    std::vector<std::uint32_t> parent_;
    std::vector<std::uint8_t> rank_;
};

} // namespace oha
