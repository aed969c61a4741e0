/**
 * @file
 * Static may-happen-in-parallel (MHP) analysis (Section 4.1).
 *
 * The program is partitioned into thread regions: the main region and
 * one region per Spawn site (the functions reachable from the spawned
 * function).  Two instructions may happen in parallel unless their
 * regions are provably ordered:
 *  - an access in the main function is ordered before a thread if it
 *    must precede the spawn, and after it if it is dominated by the
 *    matching join (requires the spawn to be provably single-shot);
 *  - two different spawn sites are ordered when one's matching join
 *    dominates the other's spawn;
 *  - two accesses of the *same* spawn site are ordered only when the
 *    site creates exactly one thread — statically provable only in
 *    trivial cases, which is precisely what the likely-singleton-
 *    thread invariant supplies to the predicated analysis
 *    (Section 4.2.3).
 */

#pragma once

#include <map>
#include <set>
#include <vector>

#include "analysis/callgraph.h"

namespace oha::analysis {

/** MHP facts over a module. */
class MhpAnalysis
{
  public:
    MhpAnalysis(const ir::Module &module, const AndersenResult &andersen,
                const CallGraph &callGraph,
                const inv::InvariantSet *invariants);

    /** Conservative MHP query for two instructions. */
    bool mayHappenInParallel(InstrId a, InstrId b) const;

    /** Spawn sites the analysis could prove single-shot. */
    const std::set<InstrId> &singletonSites() const { return singleton_; }

    /** Join instruction matched to @p spawnSite, or kNoInstr. */
    InstrId
    matchedJoin(InstrId spawnSite) const
    {
        auto it = joinOf_.find(spawnSite);
        return it == joinOf_.end() ? kNoInstr : it->second;
    }

  private:
    /** Region 0 is the main thread; region i+1 is spawn site i. */
    using RegionId = std::uint32_t;

    bool orderedRegions(RegionId a, InstrId ia, RegionId b,
                        InstrId ib) const;
    bool mustPrecedeInFunction(InstrId a, InstrId b) const;
    bool dominatesInFunction(InstrId a, InstrId b) const;

    const ir::Module &module_;
    /** The single-invocation function where before-spawn ordering is
     *  sound (the non-re-entrant entry function), or kNoFunc. */
    FuncId orderingFunc_ = kNoFunc;
    std::vector<InstrId> spawnSites_;
    /** func -> regions containing it. */
    std::vector<std::set<RegionId>> funcRegions_;
    std::set<InstrId> singleton_;
    std::map<InstrId, InstrId> joinOf_;
};

} // namespace oha::analysis
