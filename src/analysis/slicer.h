/**
 * @file
 * Static backward (data-flow) slicing in the style of Weiser [52],
 * as used by OptSlice (Section 5.1.1).
 *
 * The slicer lazily explores a definition-use graph whose nodes are
 * (context instance, instruction) pairs.  Edges run backwards:
 *  - register uses to the defs of those registers (parameters route
 *    through call sites; call results route through callee returns);
 *  - loads to may-aliasing stores, resolved with the points-to
 *    analysis and filtered flow-sensitively within a function (only
 *    stores whose block may precede the load's block are considered);
 *  - joins to the returns of spawned thread functions.
 *
 * Context sensitivity comes for free from the Andersen context
 * instances.  Every edge table is a flat array indexed by a dense key
 * (register, cell, context), built once per slicer, and the visited
 * set is a dense bitset over the node ids the constructor lays out;
 * the paper's BDD sets [6, 9] measured 15-60x slower on the slice
 * workloads.  Predicated slicing (invariants present in the Andersen
 * result's construction) simply never sees pruned blocks/contexts
 * because the underlying DUG lacks them.
 */

#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "analysis/andersen.h"

namespace oha::analysis {

/** Slicer configuration. */
struct SlicerOptions
{
    /** Invariants assumed (must match those given to Andersen). */
    const inv::InvariantSet *invariants = nullptr;
    /** Work budget; exceeding it marks the slice incomplete. */
    std::uint64_t maxWork = 200'000'000;
};

/** One computed slice. */
struct StaticSliceResult
{
    bool completed = true;
    /** Instructions in the slice (projected over contexts). */
    std::set<InstrId> instructions;
    std::uint64_t workUnits = 0;
};

/**
 * Reusable slicer over one (module, points-to result) pair.  Whether
 * slicing is context-sensitive / predicated is inherited from how
 * @p andersen was computed.  slice() is const and may run
 * concurrently.
 */
class StaticSlicer
{
  public:
    StaticSlicer(const ir::Module &module, const AndersenResult &andersen,
                 SlicerOptions options);

    /** Backward slice from @p endpoint (typically an Output). */
    StaticSliceResult slice(InstrId endpoint) const;

  private:
    /** Lists of T keyed by a dense index, stored flat. */
    template <typename T>
    struct FlatLists
    {
        /** Items of key k are items[offsets[k], offsets[k + 1]). */
        std::vector<std::uint32_t> offsets;
        std::vector<T> items;

        /** Groups (key, item) pairs by key, keeping their order. */
        static FlatLists
        group(std::size_t numKeys,
              const std::vector<std::pair<std::uint32_t, T>> &pairs);

        std::span<const T>
        operator[](std::size_t key) const
        {
            return {items.data() + offsets[key],
                    items.data() + offsets[key + 1]};
        }
    };

    /** A (context instance, instruction) pair. */
    using CtxInstr = std::pair<std::uint32_t, InstrId>;

    const ir::Module &module_;
    const AndersenResult &andersen_;
    SlicerOptions options_;

    /** live_[instr]: the instruction's block is assumed reachable. */
    std::vector<bool> live_;
    /** First register key of each function in defs_. */
    std::vector<std::uint32_t> regBase_;
    /** defs_[regBase_[func] + reg] = live instructions defining reg. */
    FlatLists<InstrId> defs_;
    /** cell -> (ctx, store) pairs that may write it. */
    FlatLists<CtxInstr> cellStores_;
    /** calleeCtx -> (callerCtx, call site). */
    FlatLists<CtxInstr> reverseCalls_;
    /** callerCtx -> (call site, callee ctx), sorted by site. */
    FlatLists<std::pair<InstrId, std::uint32_t>> forwardCalls_;
    /** Live Ret instructions per function. */
    FlatLists<InstrId> retsOf_;
    /** Live Spawn sites. */
    std::vector<InstrId> spawnSites_;
    /** The only function where intra-procedural flow-sensitive
     *  load/store filtering is sound (runs at most once), or kNoFunc. */
    FuncId flowSensitiveFunc_ = kNoFunc;

    /** Node layout of the visited bitset: context ctx's nodes start
     *  at ctxBase_[ctx], two (one per role) per instruction of its
     *  function, counted from funcFirst_[func]. */
    std::vector<std::size_t> ctxBase_;
    std::vector<InstrId> funcFirst_;
    std::size_t numNodes_ = 0;
};

} // namespace oha::analysis
