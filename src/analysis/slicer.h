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
 * instances.  The visited set is a hashed set of node ids; the
 * paper's BDD sets [6, 9] measured 15-60x slower on the slice
 * workloads.  Predicated slicing (invariants present in the Andersen
 * result's construction) simply never sees pruned blocks/contexts
 * because the underlying DUG lacks them.
 */

#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "analysis/andersen.h"
#include "ir/cfg.h"

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
    std::uint64_t nodesVisited = 0;
};

/**
 * Reusable slicer over one (module, points-to result) pair.  Whether
 * slicing is context-sensitive / predicated is inherited from how
 * @p andersen was computed.
 */
class StaticSlicer
{
  public:
    StaticSlicer(const ir::Module &module, const AndersenResult &andersen,
                 SlicerOptions options);

    /** Backward slice from @p endpoint (typically an Output). */
    StaticSliceResult slice(InstrId endpoint) const;

  private:
    bool live(BlockId block) const;
    const ir::Cfg &cfgOf(FuncId func) const;

    const ir::Module &module_;
    const AndersenResult &andersen_;
    SlicerOptions options_;

    /** defs[func][reg] = live instructions defining reg. */
    std::vector<std::map<ir::Reg, std::vector<InstrId>>> defs_;
    /** cell -> (ctx, store) pairs that may write it. */
    std::map<CellId, std::vector<std::pair<std::uint32_t, InstrId>>>
        cellStores_;
    /** calleeCtx -> (callerCtx, call site). */
    std::map<std::uint32_t,
             std::vector<std::pair<std::uint32_t, InstrId>>>
        reverseCalls_;
    /** (ctx, call site) -> callee ctx instances. */
    std::map<std::pair<std::uint32_t, InstrId>, std::vector<std::uint32_t>>
        forwardCalls_;
    /** Live Ret instructions per function. */
    std::vector<std::vector<InstrId>> retsOf_;
    /** Live Spawn sites. */
    std::vector<InstrId> spawnSites_;
    /** The only function where intra-procedural flow-sensitive
     *  load/store filtering is sound (runs at most once), or kNoFunc. */
    FuncId flowSensitiveFunc_ = kNoFunc;

    /** Lazily-built per-function CFGs; the mutex makes concurrent
     *  const slice() calls (batched per-endpoint slicing) safe. */
    mutable std::mutex cfgMutex_;
    mutable std::map<FuncId, std::unique_ptr<ir::Cfg>> cfgs_;
};

} // namespace oha::analysis
