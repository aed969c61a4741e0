/**
 * @file
 * Warm-start snapshots of the shared cross-request cache.
 *
 * A long-lived analysis daemon (analysis_service.h) earns its warm
 * hit rate over many requests; a restart used to throw all of that
 * away.  This module persists the *plain-data* sections of the shared
 * cache — profiling observations, static race results and slice sets
 * — into one checksummed, atomically published container
 * (support/durable_file.h, kind Snapshot), and re-admits them at boot.
 *
 * What is deliberately NOT persisted: Andersen points-to results.
 * They are opaque (hash-consed pools, live module references), so
 * after a restart they are recomputed from scratch — the paper's
 * "reject, count, recompute" degradation, applied to the one section
 * that cannot be re-verified from bytes.
 *
 * Restore semantics: every restored entry keeps both fingerprints of
 * every key component, so a post-restart request still performs the
 * full dual-fingerprint verification before a hit is served.  Entries
 * are admitted with null module pointers; they serve verified hits
 * only.  Any entry that fails structural validation is rejected and
 * counted individually; any container-level defect (truncation, bit
 * flip, version skew, wrong kind) rejects the whole file and the daemon
 * simply starts cold.  A snapshot load NEVER crashes the process and
 * NEVER admits unverified data.
 *
 * Write failures (disk full, I/O error, injected fault) are counted
 * and warned; the cache stays fully functional in memory — snapshots
 * are an optimization, never a dependency.
 */

#pragma once

#include <cstdint>
#include <string>

namespace oha::service {

/** Format version in a snapshot's meta block.  Bump when any entry
 *  encoding or key changes (3: structural keys; 4: observation keys
 *  without a schedule-replay field); loadSnapshot() rejects every
 *  other version wholesale (recompute, don't guess). */
inline constexpr std::uint32_t kSnapshotVersion = 4;

/** Snapshot-subsystem counters (process-wide, atomically updated). */
struct SnapshotStats
{
    /** Successful writeSnapshot() calls. */
    std::uint64_t writes = 0;
    /** writeSnapshot() calls that failed (I/O error, injected fault);
     *  the previously published snapshot, if any, is untouched. */
    std::uint64_t writeFailures = 0;
    /** Successful loadSnapshot() calls (the container verified). */
    std::uint64_t loads = 0;
    /** loadSnapshot() calls rejected wholesale (missing file is NOT
     *  counted — only defective ones). */
    std::uint64_t loadRejects = 0;
    /** Entries linked into the cache across all loads.  A valid entry
     *  dropped because a live entry already holds its key counts as
     *  neither restored nor rejected. */
    std::uint64_t entriesRestored = 0;
    /** Entries individually rejected by semantic validation. */
    std::uint64_t entriesRejected = 0;
    /** errno of the most recent write failure (0 = none). */
    int lastErrno = 0;
};

SnapshotStats snapshotStats();

/** Canonical snapshot path under a state directory. */
std::string defaultSnapshotPath(const std::string &stateDir);

/**
 * Serialize the shared cache's plain-data sections to @p path using
 * the atomic temp+fsync+rename protocol.  An I/O failure anywhere
 * aborts the write, counts a writeFailure and leaves any previously
 * published snapshot untouched.  False on failure (with @p errorOut
 * set).
 */
bool writeSnapshot(const std::string &path,
                   std::string *errorOut = nullptr);

/**
 * Load @p path and re-admit every valid entry into the shared cache.
 * Missing file: returns false quietly (cold start, not an error).
 * Defective file: rejected wholesale, counted, warned — returns
 * false.  Individually invalid entries are skipped and counted; the
 * rest still restore.  True when the container verified (even if
 * zero entries survived semantic validation).
 */
bool loadSnapshot(const std::string &path,
                  std::string *errorOut = nullptr);

} // namespace oha::service
