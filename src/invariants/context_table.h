/**
 * @file
 * Interned call-site chains, the one store of the likely-unused
 * call-contexts invariant (Section 5.2.3): the profiler pushes node
 * ids as calls go by, the checker probes find(top, site) on every
 * call, and CS Andersen keys its instances by ids of its own table.
 * Chains are expanded to print, fingerprint or persist them, and to
 * carry one from one table to another (a violation, an observed check).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "support/common.h"
#include "support/flat_map.h"

namespace oha::inv {

/** A call context: chain of call-site instruction ids, outermost first. */
using CallContext = std::vector<InstrId>;

/**
 * Call stacks deeper than this are exempt from the call-context
 * invariant: the profiler stops recording them and the runtime
 * checker skips checking them.  Both sides must use this one constant
 * — if the caps ever diverged, deep recursion would mis-speculate on
 * contexts the profiler never had a chance to record.
 */
constexpr std::size_t kMaxContextDepth = 64;

/** 64-bit hash of a call context: the `observed` value a call-context
 *  violation (and its injected fault) records. */
std::uint64_t contextHash(const CallContext &context);

/**
 * A set of call-site chains, interned as a prefix tree.  The root, id
 * 0, is the empty chain; every other node is (parent id, call site),
 * found by one FlatMap probe on (parent << 32) | site, with ids dense
 * in creation order.  The set is the nodes whose present bit is set:
 * forgetting a chain keeps its node, so its extensions stay present.
 */
class ContextTable
{
  public:
    using Id = std::uint32_t;
    static constexpr Id kRoot = 0;     ///< the empty chain, never present
    static constexpr Id kNone = ~Id{0}; ///< no such node

    ContextTable() : nodes_{Node{kNone, kNoInstr, 0, false}} {}

    /** Node (@p parent, @p site), present or not, or kNone. */
    Id
    find(Id parent, InstrId site) const
    {
        const Id *id = index_.find((std::uint64_t{parent} << 32) | site);
        return id ? *id : kNone;
    }

    /** The node of @p chain, present or not, or kNone. */
    Id find(const CallContext &chain) const;

    /** Make @p parent's chain plus @p site present; @return its id. */
    Id
    insert(Id parent, InstrId site)
    {
        const Id id = node(parent, site);
        size_ += !nodes_[id].present;
        nodes_[id].present = true;
        return id;
    }

    /** Make @p chain and every prefix present; @return whether any of
     *  them was new. */
    bool insert(const CallContext &chain);

    /** Forget @p chain alone; @return whether it was present. */
    bool erase(const CallContext &chain);

    /** Add @p other's present chains, remapping its nodes in id order;
     *  @return whether any was new. */
    bool merge(const ContextTable &other);

    bool present(Id id) const { return nodes_[id].present; }

    bool
    contains(const CallContext &chain) const
    {
        const Id id = find(chain);
        return id != kNone && present(id);
    }

    CallContext chain(Id id) const;

    std::uint32_t depth(Id id) const { return nodes_[id].depth; }

    std::size_t size() const { return size_; } ///< present chains

    /** One past the largest node id. */
    std::size_t numIds() const { return nodes_.size(); }

    /** The present chains in lexicographic order, the order of
     *  std::set<CallContext>: prefixes before extensions. */
    std::vector<CallContext> chains() const;

    /** Same present chains, whatever the insertion order or ids. */
    bool
    operator==(const ContextTable &other) const
    {
        return size_ == other.size_ && chains() == other.chains();
    }

  private:
    struct Node
    {
        Id parent;
        InstrId site;
        std::uint32_t depth;
        bool present;
    };

    /** The node (parent, site), created absent if new. */
    Id
    node(Id parent, InstrId site)
    {
        Id &slot = index_[(std::uint64_t{parent} << 32) | site];
        if (slot == kRoot) { // a fresh slot: no child is the root
            slot = static_cast<Id>(nodes_.size());
            nodes_.push_back({parent, site, nodes_[parent].depth + 1, false});
        }
        return slot;
    }

    std::vector<Node> nodes_;
    support::FlatMap<Id> index_;
    std::size_t size_ = 0;
};

} // namespace oha::inv
