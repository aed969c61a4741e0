/**
 * @file
 * Memoized static-phase results, backed by the shared cross-request
 * cache (service/shared_cache.h).
 *
 * The pipeline and the calibration sweeps (Figures 7/8, Table 2) run
 * the same Andersen configurations repeatedly: the sound analyses are
 * identical across every sweep point, the predicated ones repeat
 * whenever the profiled invariant set has converged, and a single
 * OptFT/OptSlice invocation itself re-runs configurations (the CI
 * pre-pass of a sound CS solve doubles as the endpoint-ranking
 * analysis; lock-elision calibration re-runs the predicated CI
 * analysis the race detector already solved).  In service mode
 * (service/analysis_service.h) the same sharing happens *across
 * requests*: the Nth request for a hot (module, invariant-set) pair
 * skips its static phase entirely.
 *
 * Results are immutable after solving, so they are cached
 * process-wide, keyed by
 *
 *   (module fingerprint, invariant-set fingerprint, solver options)
 *
 * where the fingerprints hash the module's printed form and the
 * invariant set's canonical text serialization — value identity, not
 * object identity, so sweeps (and requests) that rebuild equal
 * workloads still hit.  Entries hold the module alive (results
 * reference it internally) until they are evicted: the shared cache
 * is LRU-evicting against a configurable byte budget, so a long-lived
 * daemon's memory is bounded.
 *
 * Correctness properties of the cache layer:
 *  - every hit verifies a second, independent fingerprint stored in
 *    the entry, so a 64-bit key collision degrades to a counted
 *    verified-miss + fresh solve instead of silently returning the
 *    wrong result;
 *  - inserts are generation-stamped: a solve that started before a
 *    resetAndersenCache() is dropped (counted as staleDrop) instead
 *    of re-populating the fresh cache with a pre-reset result;
 *  - solves run outside the cache lock and the first insert wins, so
 *    concurrent clients share one result object.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "analysis/andersen.h"
#include "analysis/race_detector.h"
#include "ir/module.h"
#include "service/shared_cache.h"

namespace oha::analysis {

/** Cache counters for bench reporting (a view of the shared cache's
 *  counters — see service::SharedCacheStats for field semantics). */
struct AndersenCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /** Primary-fingerprint hits rejected by the secondary-fingerprint
     *  verification (real collisions, served as fresh solves). */
    std::uint64_t verifiedMisses = 0;
    std::uint64_t evictions = 0;
    /** Inserts dropped because a reset intervened mid-solve. */
    std::uint64_t staleDrops = 0;
    /** Misses served by patching a cached ancestor version's result
     *  through the incremental solver instead of solving from
     *  scratch (version lineage; see runAndersenMemo). */
    std::uint64_t lineageHits = 0;
    std::size_t entries = 0;
    std::size_t bytesCached = 0;
    std::size_t byteBudget = 0;
};

/**
 * Memoized runAndersen.  @p module must be the module the options'
 * invariants were profiled on; the returned result (and the cache
 * entry behind it, until evicted) keeps it alive.
 *
 * Version lineage: every insert also records the module in a bounded
 * recency list of known versions (depth OHA_LINEAGE_DEPTH, default 8;
 * 0 disables).  A miss for an *edited* module first looks for a
 * cached ancestor version, diffs the two modules (ir::ModuleDiff →
 * analysis::ConstraintDiff) and, when the diff is usable, patches the
 * ancestor's result through AndersenSolver::resolveIncremental
 * instead of solving from scratch — counted as a lineageHit, results
 * identical to a cold solve (only workUnits reflects the smaller
 * incremental effort).  Lineage entries are generation-stamped like
 * everything else: a reset() drops them, so a stale version is never
 * used as a patch base.
 */
std::shared_ptr<const AndersenResult>
runAndersenMemo(const std::shared_ptr<const ir::Module> &module,
                const AndersenOptions &options);

/**
 * Memoized runStaticRaceDetector on the production solver, keyed by
 * (module fingerprint, invariant fingerprint).  Beyond the points-to
 * reuse of runAndersenMemo this caches the *whole* detector output —
 * escape analysis, MHP, locksets and the pair matrix — so calibration
 * sweeps whose invariant sets have converged skip the detector
 * entirely.  The stored workUnits are the deterministic cost of the
 * one real computation, so modeled static-phase costs are identical
 * with or without hits.
 */
std::shared_ptr<const StaticRaceResult>
runStaticRaceDetectorMemo(const std::shared_ptr<const ir::Module> &module,
                          const inv::InvariantSet *invariants);

/** Static slices over a fixed endpoint list at one analysis level
 *  (OptSlice phase 3), in memoizable form. */
struct SliceSetResult
{
    std::vector<std::set<InstrId>> slices;
    /** The endpoint instruction slices[i] was computed for (filled by
     *  the memo layer on insert).  Cached entries need them so a
     *  lineage patch for an edited module can match endpoints across
     *  versions — instruction ids are reassigned by every edit. */
    std::vector<InstrId> endpoints;
    bool contextSensitive = false;
    bool complete = false;
    std::uint64_t workUnits = 0;
};

/** Approximate heap footprint, for cache byte budgeting. */
inline std::size_t
byteSizeEstimate(const SliceSetResult &result)
{
    std::size_t bytes =
        sizeof(result) + result.endpoints.size() * sizeof(InstrId);
    for (const std::set<InstrId> &slice : result.slices)
        bytes += sizeof(slice) + slice.size() * (sizeof(InstrId) + 48);
    return bytes;
}

struct ConstraintDiff; // analysis/constraint_diff.h

/** A cached slice set for an ancestor version of the module, offered
 *  to sliceSetMemo's computeIncremental callback as a patch base
 *  (version lineage — see runAndersenMemo). */
struct SliceLineageBase
{
    std::shared_ptr<const ir::Module> module;
    std::shared_ptr<const SliceSetResult> slices;
    /** Invariant set the base slices were computed under (null =
     *  sound). */
    std::shared_ptr<const inv::InvariantSet> invariants;
    /** Lowered diff base -> requested module, usable. */
    const ConstraintDiff *diff = nullptr;
};

/**
 * Memoize a slice-set computation.  Keyed by (module, invariants,
 * configKey, endpoints); @p configKey must encode every slicing knob
 * that can change the output (work budget, picked analysis level).
 * On a miss @p compute runs outside the cache lock; first insert
 * wins.
 *
 * When @p computeIncremental is provided, a miss for an *edited*
 * module first offers cached ancestor-version slice sets (same
 * configKey, usable constraint diff, in lineage recency order) to the
 * callback; a non-nullopt return is cached as the result and counted
 * as a lineageHit, so per-endpoint patching (core/optslice.cc)
 * composes with the cache exactly like the Andersen and detector
 * lineage paths.  The callback must return slices identical to what
 * @p compute would produce.
 */
std::shared_ptr<const SliceSetResult>
sliceSetMemo(const std::shared_ptr<const ir::Module> &module,
             const inv::InvariantSet *invariants, std::uint64_t configKey,
             const std::vector<InstrId> &endpoints,
             const std::function<SliceSetResult()> &compute,
             const std::function<std::optional<SliceSetResult>(
                 const SliceLineageBase &)> &computeIncremental = {});

/**
 * Snapshot-portable view of one cached detector run: both
 * fingerprints of each key component plus the plain-data result.
 * Restored entries are admitted without a module object, so they can
 * serve dual-fingerprint-verified hits but are excluded from version
 * lineage (they can never be incremental patch bases).  Opaque
 * AndersenResult entries are deliberately NOT exportable — points-to
 * graphs reference hash-consed pools and the live module and are
 * recomputed after a restart.
 */
struct RaceSectionEntry
{
    service::Fingerprint moduleFp;
    service::Fingerprint invariantFp;
    std::shared_ptr<const StaticRaceResult> result;
};

/** Slice-set twin of RaceSectionEntry (adds the slicing config key
 *  and the endpoint-list fingerprint). */
struct SliceSectionEntry
{
    service::Fingerprint moduleFp;
    service::Fingerprint invariantFp;
    std::uint64_t configKey = 0;
    service::Fingerprint auxFp;
    std::shared_ptr<const SliceSetResult> result;
};

/** Copy the cached detector / slice-set entries out for snapshotting
 *  (service/snapshot.cc).  Safe to call concurrently with requests. */
std::vector<RaceSectionEntry> exportRaceSection();
std::vector<SliceSectionEntry> exportSliceSection();

/** Re-admit a restored entry (warm start).  First insert wins: a live
 *  entry for the same key is never displaced.  The entry joins the
 *  LRU spine with its byte estimate charged against the budget. */
void admitRaceSectionEntry(const RaceSectionEntry &entry);
void admitSliceSectionEntry(const SliceSectionEntry &entry);

/** Process-wide cache counters since start / last reset. */
AndersenCacheStats andersenCacheStats();

/** Byte budget the shared cache evicts against.  Convenience
 *  forwarders to service::SharedCache::instance(). */
void setStaticCacheByteBudget(std::size_t bytes);
std::size_t staticCacheByteBudget();

/** Drop all cached results (static results AND recorded traces — the
 *  whole shared cache) and zero the counters (tests, benchmarks). */
void resetAndersenCache();

} // namespace oha::analysis
