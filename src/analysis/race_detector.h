/**
 * @file
 * Chord-style static data-race detector (Section 4.1).
 *
 * Pipeline: points-to (Andersen, CI) → thread-escape filtering →
 * may-happen-in-parallel pairing → lockset pruning.  The lockset
 * phase needs must-alias lock information, which a sound may-alias
 * analysis cannot provide — so, exactly as in the paper, the *sound*
 * detector skips lockset pruning (prior hybrid analyses removed it
 * for soundness [47]) and the *predicated* detector re-enables it
 * using the likely-guarding-locks invariant.
 *
 * The output is the set of accesses that may race; a hybrid FastTrack
 * elides read/write instrumentation everywhere else.
 */

#pragma once

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "analysis/andersen.h"

namespace oha::analysis {

/** Result of static race analysis. */
struct StaticRaceResult
{
    /** Load/Store instructions that may participate in a race. */
    std::set<InstrId> racyAccesses;
    /** The may-race pairs themselves (a <= b). */
    std::set<std::pair<InstrId, InstrId>> racyPairs;
    /** Pre-lockset candidates: pairs that passed alias ∧ MHP ∧
     *  at-least-one-write, racy or guarded alike.  Stored so the
     *  incremental re-analysis of an edited module can reuse the
     *  clean-region verdicts and re-evaluate only the lock guard
     *  (which depends on the new invariant set) per candidate. */
    std::set<std::pair<InstrId, InstrId>> candidatePairs;
    /** Must-alias lock pairs the pruning actually relied on; the
     *  runtime must verify exactly these (Section 4.2.2). */
    std::set<std::pair<InstrId, InstrId>> usedLockAliases;
    /** Singleton-spawn sites the MHP pruning relied on. */
    std::set<InstrId> usedSingletonSites;
    /** Total analysis effort (points-to + detector), abstract units. */
    std::uint64_t workUnits = 0;
    /** Number of memory accesses considered. */
    std::size_t accessesConsidered = 0;
};

/** Approximate heap footprint, for cache byte budgeting.  std::set
 *  nodes cost roughly payload + two pointers + color + allocator
 *  overhead; 48 bytes is a sane per-node charge. */
inline std::size_t
byteSizeEstimate(const StaticRaceResult &result)
{
    return sizeof(result) +
           result.racyAccesses.size() * (sizeof(InstrId) + 48) +
           (result.racyPairs.size() + result.candidatePairs.size() +
            result.usedLockAliases.size()) *
               (sizeof(std::pair<InstrId, InstrId>) + 48) +
           result.usedSingletonSites.size() * (sizeof(InstrId) + 48);
}

/**
 * Run the static race detector.
 * @param invariants null => sound analysis (no lockset pruning, no
 *        invariant-based MHP refinement); non-null => predicated.
 * @param shared when non-null (and pointing at @p module), the
 *        points-to phase goes through the process-wide memo cache
 *        (andersen_cache.h) so repeated configurations — calibration
 *        sweeps, the lock-elision pass — reuse one solve.
 * @param referenceSolver run the points-to phase on the pre-overhaul
 *        solver (AndersenOptions::referenceSolver); exists for the
 *        delta-solver parity test.
 */
StaticRaceResult
runStaticRaceDetector(const ir::Module &module,
                      const inv::InvariantSet *invariants,
                      const std::shared_ptr<const ir::Module> &shared =
                          nullptr,
                      bool referenceSolver = false);

struct ConstraintDiff; // analysis/constraint_diff.h

/** A cached detector run for an ancestor version of the module,
 *  usable as a patch base. */
struct RaceIncrementalInput
{
    std::shared_ptr<const ir::Module> baseModule;
    std::shared_ptr<const StaticRaceResult> baseRace;
    /** Invariant set the base detector ran under (null = sound). */
    std::shared_ptr<const inv::InvariantSet> baseInvariants;
    /** Lowered diff base -> module, usable. */
    const ConstraintDiff *diff = nullptr;
};

/**
 * Re-run the detector on an edited module by patching @p input: the
 * points-to phase goes through the incremental solver (via the memo
 * layer), and the O(accesses²) pair matrix is evaluated only for
 * pairs touching a *dirty* function — a function whose constraints,
 * points-to values or invariant slice differ between the versions.
 * Clean-pair alias/MHP verdicts are reused from the base run's
 * candidatePairs; the lock guard (which depends on the new invariant
 * set) is re-evaluated for every candidate.  Falls back to the full
 * detector — reporting @p usedIncremental = false — whenever a
 * global structure guard fails: unusable diff, edited entry function
 * (body, invariant slice or re-entrancy determination), edited
 * spawn/join structure, call-graph or thread-escape drift.
 * Either way the reported races equal a from-scratch run's.
 */
StaticRaceResult runStaticRaceDetectorIncremental(
    const std::shared_ptr<const ir::Module> &module,
    const inv::InvariantSet *invariants,
    const RaceIncrementalInput &input, bool *usedIncremental = nullptr);

} // namespace oha::analysis
