/**
 * @file
 * OHA as a service: a persistent analysis daemon core.
 *
 * Batch mode pays the full cost of every pipeline invocation: each
 * runOptFt/runOptSlice call profiles, solves and runs its corpus from
 * scratch, and the process exits with the caches it warmed.  The
 * AnalysisService turns the pipeline into a long-lived server:
 * requests (a workload + pipeline configuration) enter a bounded
 * queue, worker shards drain them through the unmodified pipeline
 * entry points, and the shared cross-request cache
 * (service/shared_cache.h) — static results via analysis/
 * andersen_cache.h and profiling observations via profile/
 * observation_cache.h — carries the expensive intermediate state from
 * one request to the next.  A warm request for a hot (module, corpus)
 * pair skips its static phase and its profiling runs entirely; its
 * testing and calibration inputs still run live.
 *
 * Admission control: the queue depth is capped; at the cap a submit
 * either blocks (AdmissionPolicy::Block — back pressure) or fails
 * fast with RequestOutcome::Shed (AdmissionPolicy::Shed).  Requests
 * may carry a deadline; a request still queued when its deadline
 * passes is completed as Expired without running — shed work is
 * cheap, abandoned work is free.
 *
 * Determinism contract: the pipeline entry points are pure functions
 * of (workload, config), and every cache layer is value-keyed with
 * results bit-identical to a fresh computation (stored workUnits are
 * the one real computation's deterministic cost).  Therefore a
 * request's result is byte-identical to a direct batch-mode call —
 * at ANY shard count, on any cache state, in any arrival order.  The
 * service-vs-batch parity test pins this.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>

#include "core/optft.h"
#include "core/optslice.h"
#include "workloads/workloads.h"

namespace oha::service {

/** What submit() does when the request queue is full. */
enum class AdmissionPolicy
{
    Block, ///< back pressure: submit() waits for a free slot
    Shed,  ///< fail fast: submit() completes the request as Shed
};

/** Daemon configuration. */
struct ServiceConfig
{
    /** Worker shards draining the queue (each runs one request at a
     *  time through the pipeline).  0 = OHA_THREADS. */
    std::size_t shards = 1;
    /** Queue-depth cap (admission control). */
    std::size_t maxQueueDepth = 64;
    AdmissionPolicy admission = AdmissionPolicy::Block;
    /** Durable-state directory.  Non-empty: the shared cache is
     *  warm-started from <dir>/oha-cache.snapshot at construction and
     *  snapshotted back on graceful shutdown (service/snapshot.h).
     *  Empty: falls back to OHA_STATE_DIR; persistence is off when
     *  that is unset too. */
    std::string stateDir;
    /** Seconds between periodic background snapshots while running.
     *  0 falls back to OHA_SNAPSHOT_INTERVAL; 0 there too means
     *  snapshot on shutdown only. */
    std::uint64_t snapshotIntervalSeconds = 0;
};

/** One analysis request: a workload plus the pipeline configuration
 *  to run it under.  workload.race selects the pipeline (OptFT for
 *  race workloads, OptSlice otherwise). */
struct AnalysisRequest
{
    workloads::Workload workload;
    core::OptFtConfig ftConfig;       ///< used when workload.race
    core::OptSliceConfig sliceConfig; ///< used otherwise
    /** Maximum time the request may sit in the queue; still queued
     *  after this, it completes as Expired without running.  Zero =
     *  no deadline. */
    std::chrono::milliseconds deadline{0};
};

enum class RequestOutcome
{
    Done,    ///< ran to completion
    Shed,    ///< refused at admission (queue full, Shed policy)
    Expired, ///< deadline passed while queued; never ran
    Failed,  ///< the pipeline threw; see error
};

/** Result of one service request. */
struct ServiceRunResult
{
    RequestOutcome outcome = RequestOutcome::Done;
    std::string error;
    /** Exactly one is set when outcome == Done. */
    std::optional<core::OptFtResult> ft;
    std::optional<core::OptSliceResult> slice;
    /** Milliseconds spent queued / running (wall clock). */
    double queueMs = 0;
    double runMs = 0;
};

/** Monotonic service counters. */
struct ServiceCounters
{
    std::uint64_t accepted = 0;
    std::uint64_t shed = 0;
    std::uint64_t expired = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
};

/**
 * The daemon core.  Construction spawns the shards; destruction
 * closes the queue, completes every accepted request, and joins the
 * shards (graceful drain — accepted work is never dropped).
 */
class AnalysisService
{
  public:
    explicit AnalysisService(ServiceConfig config = {});
    ~AnalysisService();

    AnalysisService(const AnalysisService &) = delete;
    AnalysisService &operator=(const AnalysisService &) = delete;

    /**
     * Submit a request.  The future completes when the request has
     * been run, shed, or expired.  Under AdmissionPolicy::Block this
     * call blocks while the queue is at its depth cap.  Submitting
     * after shutdown() completes the request as Shed.
     */
    std::future<ServiceRunResult> submit(AnalysisRequest request);

    /** Block until every accepted request has completed.  New
     *  submissions remain possible afterwards. */
    void drain();

    /** Graceful shutdown: refuse new requests, run everything already
     *  accepted, join the shards.  With a state directory configured,
     *  a final cache snapshot is written after the shards drain.
     *  Idempotent; implied by ~. */
    void shutdown();

    /** Write a cache snapshot now (no-op without a state directory).
     *  False when persistence is off or the write failed — the
     *  service keeps running in memory either way. */
    bool snapshotNow();

    /** The resolved state directory ("" = persistence off). */
    const std::string &stateDir() const;

    std::size_t queueDepth() const;
    std::size_t shards() const;
    ServiceCounters counters() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace oha::service
