/**
 * @file
 * OptFT: the end-to-end optimistic hybrid race-detection pipeline
 * (Section 4).
 *
 * Phases, exactly as the paper lays them out:
 *  1. profile likely invariants until the learned set stabilizes
 *     (Section 6.1: "profile increasing numbers of executions until
 *     the number of learned dynamic invariants stabilize");
 *  2. no-custom-synchronization calibration: optimistically elide
 *     lock instrumentation around check-free critical sections, then
 *     verify against a sound detector on profiling inputs and restore
 *     offending locks (Section 4.2.4);
 *  3. sound static race detection (for hybrid FastTrack) and
 *     predicated static race detection (for OptFT);
 *  4. run the testing corpus under full FastTrack, hybrid FastTrack
 *     and OptFT; OptFT executes speculatively, rolling back to the
 *     sound hybrid configuration on invariant violations (and on race
 *     reports when lock elision is active, which must be treated as
 *     potential mis-speculations).
 */

#pragma once

#include <set>
#include <string>
#include <vector>

#include "analysis/race_detector.h"
#include "core/cost_model.h"
#include "dyn/fault_injector.h"
#include "dyn/violation.h"
#include "workloads/workloads.h"

namespace oha::core {

/** OptFT pipeline configuration. */
struct OptFtConfig
{
    /** Stop profiling after this many runs even if not converged. */
    std::size_t maxProfileRuns = 48;
    /** Declare convergence after this many runs with no new facts. */
    std::size_t convergenceWindow = 6;
    /** Profiling runs used by the no-custom-sync calibration. */
    std::size_t customSyncCalibrationRuns = 6;
    /** >1 enables aggressive likely-unreachable code (Section 2.1's
     *  strength/stability trade-off): blocks executed fewer than this
     *  many times across the whole profiling campaign are assumed
     *  unreachable. */
    std::uint64_t aggressiveLucMinVisits = 0;
    /** Worker threads for batched runs (profiling, calibration, test
     *  evaluation); 0 = OHA_THREADS env var, 1 = serial.  Results are
     *  merged in input-index order, so they are identical for any
     *  value — only wall-clock time changes. */
    std::size_t threads = 0;
    /** How each testing and calibration input is executed.  Off (the
     *  default): one live interpreter run per input per round drives
     *  every configuration as its own attachment group — full, hybrid
     *  and optimistic FastTrack with its checker on the first round,
     *  the sound and trial plans on a calibration round — with no
     *  recording.  On (record-once/analyze-many): each input is
     *  recorded once and every round replays the capture with the same
     *  groups.  All reported results are identical either way; only
     *  interpretedSteps/replayedEvents (and wall-clock time) differ. */
    bool useTraceReplay = false;
    /** With useTraceReplay: serve captures from the shared
     *  cross-request cache (exec/trace_cache.h) instead of recording
     *  privately.  Captures are value-keyed on (module, exec config),
     *  so repeated pipeline invocations over a hot corpus skip the
     *  recording run.  Results are identical either way (a capture is
     *  a pure function of its key).  Ignored on the live path. */
    bool cacheTraceCaptures = true;
    /** Serve per-input profiling observations from the shared
     *  cross-request cache (profile/observation_cache.h).  Like trace
     *  captures, an observation is a pure function of (module, input),
     *  so the merged invariant set — and everything downstream — is
     *  identical either way; a warm service request skips the live
     *  profiling interpreter entirely. */
    bool cacheProfileObservations = true;
    /** Adaptive misspeculation recovery (Section 2.3's rollback, made
     *  a loop): after a rollback, demote the violated invariant,
     *  re-run the predicated static phase through the andersen_cache
     *  memo, rebuild the optimistic plan, and continue the remaining
     *  testing inputs under the repaired plan.  Off reproduces the
     *  historical fire-and-forget behavior (every input keeps the
     *  original plan and pays its own rollback). */
    bool adaptiveRecovery = true;
    /** Circuit breaker: maximum demote + re-predicate repairs before
     *  the remaining corpus degrades to the sound hybrid plan. */
    std::size_t maxRepredications = 4;
    /** Circuit breaker: degrade when rollbacks / inputs-evaluated
     *  exceeds this rate (see minRunsForMisspecRate). */
    double misspecRateThreshold = 0.5;
    /** Rate threshold only arms after this many evaluated inputs. */
    std::size_t minRunsForMisspecRate = 8;
    /** Non-zero: deterministically perturb the profiled invariants
     *  (dyn::FaultInjector) so the testing corpus mis-speculates —
     *  exercises rollback/demotion/breaker paths on demand.  CI
     *  sweeps this via OHA_FAULT_SEED (see ci/run.sh faults). */
    std::uint64_t faultSeed = 0;
    CostModel cost;
};

/** End-to-end result for one benchmark (Figure 5 / Table 1 row). */
struct OptFtResult
{
    std::string name;
    bool staticallyRaceFree = false;

    // Modeled offline costs (seconds).
    double soundStaticSeconds = 0;
    double predStaticSeconds = 0;
    double profileSeconds = 0;
    std::size_t profileRunsUsed = 0;

    // Testing-corpus accounting.
    std::size_t testRuns = 0;
    double baselineSeconds = 0; ///< uninstrumented corpus runtime
    RunCost fastTrack;          ///< full FastTrack
    RunCost hybridFt;           ///< sound-hybrid FastTrack
    RunCost optFt;              ///< OptFT (speculative)
    std::uint64_t misSpeculations = 0;

    /** Optimistic reports equal to sound reports on every test run. */
    bool raceReportsMatch = true;
    /** Races seen across the corpus (after recovery), full detector. */
    std::size_t racesObserved = 0;

    std::size_t soundRacyAccesses = 0;
    std::size_t predRacyAccesses = 0;
    std::size_t elidedLockSites = 0;

    /** Speedups (ratios of normalized dynamic runtimes). */
    double speedupVsFastTrack = 1.0;
    double speedupVsHybrid = 1.0;

    /** Break-even baseline-seconds; negative = never. */
    double breakEvenVsHybrid = -1.0;
    double breakEvenVsFastTrack = -1.0;

    // Execution accounting over the testing corpus.  These two
    // deliberately differ between useTraceReplay modes, so parity
    // checks must exclude them.
    /** Guest instructions actually pushed through fetch/decode/eval:
     *  one run (live pass or recording) per input, plus, live, each
     *  kept repair-round run.  Evaluations a parallel round discards
     *  past a rollback are not counted, so the figure does not depend
     *  on the thread count. */
    std::uint64_t interpretedSteps = 0;
    /** Event records decoded from traces (0 on the direct path). */
    std::uint64_t replayedEvents = 0;

    // Modeled record/replay costs (seconds).  Additive metrics only:
    // the headline fastTrack/hybridFt/optFt figures keep pricing
    // rollback as a full re-execution so Figure 5 stays comparable to
    // the paper; these report what the replay-based paths cost
    // instead.  Both are derived from run results that are identical
    // in either mode, so they are parity-comparable.
    /** Modeled cost of capturing each testing input's trace once. */
    double recordSeconds = 0;
    /** Modeled cost of the rollback re-analyses when performed as
     *  trace replays rather than re-executions. */
    double replayRollbackSeconds = 0;

    // Adaptive-recovery accounting (all zero when adaptiveRecovery is
    // off or nothing mis-speculated).
    /** Demote + re-predicate repair cycles performed. */
    std::size_t repredications = 0;
    /** Modeled cost of the repair-time static re-analyses.  Additive
     *  metric, like recordSeconds: not folded into predStaticSeconds,
     *  so the headline upfront figures stay comparable to the
     *  non-adaptive pipeline. */
    double repredStaticSeconds = 0;
    /** The circuit breaker degraded the remaining corpus to hybrid. */
    bool circuitBroken = false;
    /** Invariant facts demoted, in rollback order. */
    std::vector<dyn::Violation> demotions;
    /** Faults injected when config.faultSeed is non-zero. */
    std::vector<dyn::FaultInjection> injectedFaults;
};

/**
 * OptFT's rollback trigger (Section 2.3 + Section 4.2.4).
 *
 * An invariant violation always rolls back.  A race report additionally
 * forces rollback whenever lock elision is active *anywhere* in the
 * plan — not merely at the reported pair — because an elided lock
 * removes happens-before edges globally: the false race it introduces
 * can surface between accesses that never touch the elided lock
 * (Figure 4).  There is no per-race attribution that is sound without
 * re-running, so the global condition is deliberately conservative;
 * the sound re-analysis then confirms or discards the report.
 */
bool optFtShouldRollBack(bool invariantViolated, bool racesReported,
                         bool lockElisionActive);

/** Run the whole OptFT pipeline on @p workload. */
OptFtResult runOptFt(const workloads::Workload &workload,
                     const OptFtConfig &config = {});

} // namespace oha::core
