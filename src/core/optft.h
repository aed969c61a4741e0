/**
 * @file
 * OptFT: the end-to-end optimistic hybrid race-detection pipeline
 * (Section 4).
 *
 * Phases, in the order the code runs them:
 *  1. profile likely invariants until the learned set stabilizes
 *     (Section 6.1: "profile increasing numbers of executions until
 *     the number of learned dynamic invariants stabilize");
 *  1b. when config.faultSeed is set, perturb them so the testing
 *     corpus mis-speculates;
 *  2. sound static race detection (for hybrid FastTrack) and
 *     predicated static race detection (for OptFT);
 *  2b. no-custom-synchronization calibration, which reads the
 *     predicated result of phase 2: optimistically elide lock
 *     instrumentation around check-free critical sections, then
 *     verify against a sound detector on profiling inputs and restore
 *     offending locks (Section 4.2.4);
 *  3. run the testing corpus under full FastTrack, hybrid FastTrack
 *     and OptFT; OptFT executes speculatively, rolling back to the
 *     sound hybrid configuration on invariant violations (and on race
 *     reports when lock elision is active, which must be treated as
 *     potential mis-speculations), with adaptive recovery
 *     (runAdaptiveRounds) repairing the plan after each rollback.
 */

#pragma once

#include "core/recovery.h"
#include "workloads/workloads.h"

namespace oha::core {

/** OptFT pipeline configuration: the shared fields plus its own. */
struct OptFtConfig : PipelineConfig
{
    /** Profiling runs used by the no-custom-sync calibration. */
    std::size_t customSyncCalibrationRuns = 6;
};

/** End-to-end result for one benchmark (Figure 5 / Table 1 row). */
struct OptFtResult : PipelineResult
{
    bool staticallyRaceFree = false;

    // Modeled offline costs (seconds).
    double soundStaticSeconds = 0;
    double predStaticSeconds = 0;

    RunCost fastTrack; ///< full FastTrack
    RunCost hybridFt;  ///< sound-hybrid FastTrack
    RunCost optFt;     ///< OptFT (speculative)

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
