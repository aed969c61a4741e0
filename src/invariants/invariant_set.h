/**
 * @file
 * Likely invariants: the dynamically-gathered, statically-assumed
 * facts at the heart of optimistic hybrid analysis (Section 2.1).
 *
 * An InvariantSet is the *merged* artifact of a profiling campaign:
 * reachable-style invariants (visited blocks, callee sets, call
 * contexts) are unions over runs, while constraint-style invariants
 * (must-alias locks, singleton threads) hold only if no profiled run
 * violated them.  The set is (de)serializable as a text file, exactly
 * as the paper's tools store it.
 */

#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "invariants/context_table.h"
#include "support/common.h"
#include "support/sparse_bit_set.h"

namespace oha::dyn {
struct Violation;
} // namespace oha::dyn

namespace oha::inv {

/** The merged likely-invariant artifact consumed by predicated
 *  static analysis and the runtime invariant checker. */
struct InvariantSet
{
    /** Number of blocks in the module (for LUC complement). */
    std::uint32_t numBlocks = 0;

    /** Blocks observed executed in some profiled run.  Likely
     *  unreachable code = complement (Section 4.2.1). */
    SparseBitSet visitedBlocks;

    /** Indirect call site -> functions observed as targets
     *  (Section 5.2.2).  Union across runs. */
    std::map<InstrId, std::set<FuncId>> calleeSets;

    /** Observed call contexts including every prefix
     *  (Section 5.2.3).  Union across runs. */
    ContextTable callContexts;

    /** Lock-site pairs (a <= b, reflexive included) observed to
     *  always lock one and the same dynamic object (Section 4.2.2). */
    std::set<std::pair<InstrId, InstrId>> mustAliasLocks;

    /** Spawn sites observed to create exactly one thread in every
     *  profiled run (Section 4.2.3). */
    std::set<InstrId> singletonSpawnSites;

    /** Lock sites whose instrumentation may be elided under the
     *  no-custom-synchronization invariant (Section 4.2.4). */
    std::set<InstrId> elidableLockSites;

    /** Whether call-context invariants were profiled (OptSlice only:
     *  profiling them is pointless for a context-insensitive client). */
    bool hasCallContexts = false;

    /** True if @p block was visited in some profiled run. */
    bool
    blockVisited(BlockId block) const
    {
        return visitedBlocks.contains(block);
    }

    /** True if (a, b) — order-normalized — is a must-alias lock pair. */
    bool
    locksMustAlias(InstrId a, InstrId b) const
    {
        if (a > b)
            std::swap(a, b);
        return mustAliasLocks.count({a, b}) > 0;
    }

    /**
     * Remove exactly the fact @p violation disproved — the repair
     * step of adaptive misspeculation recovery (driven by
     * runOptFt/runOptSlice after a rollback).  By family:
     *  - UnreachableBlock: mark the block visited (it is reachable);
     *  - CalleeSet: admit the observed target into the site's set (a
     *    *missing* entry means "the site never executes" to the
     *    predicated analyses — LUC guards that — so the set must be
     *    widened, never dropped);
     *  - CallContext: admit the observed chain and all its prefixes;
     *  - MustAliasLock: a single-site rebind removes every pair the
     *    site participates in; a pair divergence removes that pair;
     *  - SingletonSpawn: drop the site from the singleton set;
     *  - ElidedLockRace: withdraw lock elision entirely (the rollback
     *    predicate is global, so no one site can be blamed).
     * Returns whether anything changed.
     */
    bool demote(const dyn::Violation &violation);

    /** Total number of individual invariant facts (for convergence). */
    std::size_t factCount() const;

    /** Serialize to the paper's text-file format. */
    std::string saveText() const;

    bool operator==(const InvariantSet &other) const;
};

} // namespace oha::inv
