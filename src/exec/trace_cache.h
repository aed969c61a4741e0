/**
 * @file
 * Memoized trace capture, backed by the shared cross-request cache
 * (service/shared_cache.h).
 *
 * A recorded trace is a pure function of (module, ExecConfig): the
 * interpreter is deterministic and the recorder captures every event
 * unconditionally, before plan filtering.  So a capture — easily the
 * most expensive per-input step of record-once/analyze-many — is as
 * memoizable as a points-to solve.  The pipelines consult it only
 * with useTraceReplay (the default runs every input live and records
 * nothing); then, in service mode (service/analysis_service.h),
 * repeated analyses of a hot (module, corpus) pair skip the
 * recording run and replay the cached streams.
 *
 * Entries share the LRU spine and byte budget of the static-result
 * caches (andersen_cache.h) and inherit the same correctness
 * machinery: dual-fingerprint verification on hit, generation-stamped
 * inserts, first-insert-wins.  Traces are immutable after recording
 * and replays only read, so one cached trace may serve any number of
 * concurrent replays.
 */

#pragma once

#include <memory>
#include <vector>

#include "exec/trace.h"
#include "ir/module.h"
#include "service/shared_cache.h"

namespace oha::exec {

/** Approximate heap footprint of a recorded trace (event stream +
 *  recorded run outcome), for cache byte budgeting. */
std::size_t byteSizeEstimate(const RecordedTrace &trace);

/**
 * Memoized recordRun.  Keyed by (module fingerprint, exec-config
 * fingerprint) — every ExecConfig field participates, including the
 * replay schedule — in the shared cross-request cache.  On a miss the
 * recording run executes outside the cache lock; first insert wins.
 * The returned trace (and the cache entry behind it, until evicted)
 * keeps @p module alive.
 */
std::shared_ptr<const RecordedTrace>
recordRunMemo(const std::shared_ptr<const ir::Module> &module,
              const ExecConfig &config);

/**
 * Snapshot-portable view of one cached capture: both fingerprints of
 * each key component plus the (immutable, plain-data) trace.  Used by
 * the warm-start snapshot (service/snapshot.cc); restored entries are
 * admitted without a module object — replays fetch the module from
 * the request, the entry only needs to verify fingerprints.
 */
struct TraceSectionEntry
{
    service::Fingerprint moduleFp;
    service::Fingerprint configFp;
    std::shared_ptr<const RecordedTrace> trace;
};

/** Copy the cached captures out for snapshotting.  Safe to call
 *  concurrently with requests. */
std::vector<TraceSectionEntry> exportTraceSection();

/** Re-admit a restored capture (warm start).  First insert wins; the
 *  entry joins the LRU spine with its byte estimate charged. */
void admitTraceSectionEntry(const TraceSectionEntry &entry);

} // namespace oha::exec
