/**
 * @file
 * OptSlice: the end-to-end optimistic hybrid dynamic-slicing
 * pipeline (Section 5).
 *
 * Phases:
 *  1. profile likely invariants (including call contexts) to
 *     stability;
 *  2. pick the most accurate static analyses that run within budget —
 *     context-sensitive if it completes, context-insensitive
 *     otherwise — separately for the sound and predicated variants
 *     and separately for points-to and slicing, exactly like the
 *     AT columns of Table 2;
 *  3. choose non-trivial slice endpoints (sound static slice at least
 *     a threshold size, Section 6.1.2);
 *  4. run the testing corpus under the traditional hybrid slicer and
 *     under OptSlice (speculative, invariant-checked, with rollback
 *     to the hybrid configuration on violation).
 */

#pragma once

#include <string>
#include <vector>

#include "analysis/slicer.h"
#include "core/cost_model.h"
#include "dyn/fault_injector.h"
#include "dyn/violation.h"
#include "workloads/workloads.h"

namespace oha::core {

/** OptSlice pipeline configuration. */
struct OptSliceConfig
{
    std::size_t maxProfileRuns = 48;
    std::size_t convergenceWindow = 6;
    /** Non-trivial endpoint threshold (instructions in sound slice). */
    std::size_t minSliceSize = 25;
    std::size_t maxEndpoints = 3;
    /** Context budget of the CS points-to attempt: a read-only name
     *  for analysis::kDefaultMaxContexts, the default every Andersen
     *  solve of the pipeline runs at. */
    static constexpr std::uint32_t csContextBudget =
        analysis::kDefaultMaxContexts;
    /** Work budget for one static slice. */
    static constexpr std::uint64_t sliceWorkBudget = 3'000'000;
    /** >1 enables aggressive likely-unreachable code (Section 2.1). */
    std::uint64_t aggressiveLucMinVisits = 0;
    /** Worker threads for batched runs (profiling and test
     *  evaluation); 0 = OHA_THREADS env var, 1 = serial.  Results are
     *  merged in input-index order, so they are identical for any
     *  value — only wall-clock time changes. */
    std::size_t threads = 0;
    /** How each testing input is executed.  Off (the default): one
     *  live interpreter run per input per round, with the hybrid and
     *  the optimistic union Giri graphs as two attachment groups of
     *  the first round's run, and no recording.  On
     *  (record-once/analyze-many): each input is recorded once and
     *  every round replays the capture with the same groups.  All
     *  reported results are identical either way; only
     *  interpretedSteps/replayedEvents (and wall-clock time) differ. */
    bool useTraceReplay = false;
    /** With useTraceReplay: serve captures from the shared
     *  cross-request cache (exec/trace_cache.h) instead of recording
     *  privately — see OptFtConfig::cacheTraceCaptures.  Ignored on the
     *  live path. */
    bool cacheTraceCaptures = true;
    /** Serve profiling observations from the shared cache — see
     *  OptFtConfig::cacheProfileObservations. */
    bool cacheProfileObservations = true;
    /** Adaptive misspeculation recovery: after a rollback, demote the
     *  violated invariant, re-run the predicated points-to + slicing
     *  phase through the memo caches, rebuild the optimistic plans,
     *  and continue the remaining (input, endpoint) tasks under the
     *  repaired plans.  Off reproduces the historical behavior. */
    bool adaptiveRecovery = true;
    /** Circuit breaker: maximum demote + re-predicate repairs before
     *  the remaining corpus degrades to the sound hybrid plans. */
    std::size_t maxRepredications = 4;
    /** Circuit breaker: degrade when rollbacks / tasks-evaluated
     *  exceeds this rate (see minRunsForMisspecRate). */
    double misspecRateThreshold = 0.5;
    /** Rate threshold only arms after this many evaluated tasks. */
    std::size_t minRunsForMisspecRate = 8;
    /** Non-zero: deterministically perturb the profiled invariants
     *  (dyn::FaultInjector) so the testing corpus mis-speculates.
     *  CI sweeps this via OHA_FAULT_SEED (see ci/run.sh faults). */
    std::uint64_t faultSeed = 0;
    CostModel cost;
};

/** Analysis-type pick for one analysis (a Table 2 "AT" cell). */
struct AnalysisPick
{
    bool contextSensitive = false;
    double seconds = 0;
};

/** End-to-end result for one benchmark (Figure 6 / Table 2 row). */
struct OptSliceResult
{
    std::string name;

    AnalysisPick soundPts, soundSlice;
    AnalysisPick optPts, optSlice;

    double profileSeconds = 0;
    std::size_t profileRunsUsed = 0;

    std::size_t endpoints = 0;
    std::size_t testRuns = 0;
    double baselineSeconds = 0;
    RunCost hybrid;
    RunCost optimistic;
    std::uint64_t misSpeculations = 0;
    bool sliceResultsMatch = true;

    /** Mean static slice sizes over the chosen endpoints (Figure 10). */
    double soundSliceSize = 0;
    double optSliceSize = 0;
    /** Load/store alias rates over the optimistic access set (Fig 9). */
    double soundAliasRate = 0;
    double optAliasRate = 0;

    double dynSpeedup = 1.0;
    /** Break-even baseline-seconds vs. traditional hybrid; <0 never;
     *  0 means optimistic is cheaper from the very first run. */
    double breakEven = -1.0;

    // Execute-once/replay-many accounting over the testing corpus
    // (see OptFtResult for the parity rules: the first two differ
    // between modes by design, the seconds metrics do not).
    std::uint64_t interpretedSteps = 0;
    std::uint64_t replayedEvents = 0;
    double recordSeconds = 0;
    double replayRollbackSeconds = 0;

    // Adaptive-recovery accounting (see OptFtResult).
    std::size_t repredications = 0;
    double repredStaticSeconds = 0;
    bool circuitBroken = false;
    std::vector<dyn::Violation> demotions;
    std::vector<dyn::FaultInjection> injectedFaults;
};

/** Run the whole OptSlice pipeline on @p workload. */
OptSliceResult runOptSlice(const workloads::Workload &workload,
                           const OptSliceConfig &config = {});

} // namespace oha::core
