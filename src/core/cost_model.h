/**
 * @file
 * The deterministic cost model that converts event counts into
 * modeled runtimes.
 *
 * The paper reports wall-clock overheads on the authors' testbed;
 * our substrate is an interpreter, so absolute wall time is
 * meaningless.  Instead — following the paper's own observation that
 * "the overhead of dynamic analysis is roughly proportional to the
 * amount of instrumentation" (Section 2.3) — every run is priced as
 * Σ events × per-event cost.  Costs are in abstract units; a fixed
 * units-per-second constant converts to the modeled seconds shown in
 * the Table 1/2 reproductions.  All results are therefore exactly
 * reproducible across machines.
 */

#pragma once

#include <cstdint>

#include "exec/interpreter.h"

namespace oha::core {

/** Per-event cost constants (abstract units). */
struct CostModel
{
    /** Uninstrumented guest instruction. */
    double baseInstr = 1.0;

    /** RoadRunner-style framework interception of a memory or sync
     *  event, paid by every FastTrack-family tool regardless of
     *  elision (Figure 5's "Framework Overhead" band).  Giri-family
     *  tools use compile-time instrumentation and pay nothing. */
    double framework = 2.0;

    /** FastTrack epoch/VC check per instrumented load/store. */
    double ftMemCheck = 38.0;
    /** FastTrack vector-clock transfer per lock/unlock/spawn/join. */
    double ftSync = 60.0;

    /** Giri trace append per instrumented instruction.  Dynamic
     *  slicing is extremely heavyweight (the paper's traditional
     *  hybrid slicer reaches 339x, Figure 6). */
    double giriEvent = 260.0;

    /** Invariant checks (designed to be cheap, Section 2.1). */
    double lucCheck = 0.1;          ///< per unreachable-block entry hit
    double calleeCheck = 0.8;       ///< per checked indirect call
    double contextCheckFast = 1.4;  ///< per call/ret context update
    double contextCheckSlow = 8.0;  ///< per exact-set fallback probe
    double lockCheck = 0.8;         ///< per checked lock acquisition
    double spawnCheck = 0.8;        ///< per checked spawn

    /** Modeled interpreter speed: units per modeled second. */
    double unitsPerSecond = 60e6;
    /** Static-analysis solver speed: work units per modeled second. */
    double staticUnitsPerSecond = 1.2e5;
    /** Profiling overhead multiplier vs. an uninstrumented run. */
    double profilingOverhead = 12.0;
    /** Corpus-scale normalization for offline (profiling + static)
     *  costs.  Our generated programs and corpora are ~2-3 orders of
     *  magnitude smaller than the paper's benchmarks; offline costs
     *  are scaled so the break-even analysis of Tables 1/2 plays out
     *  on the paper's minutes-scale axis. */
    double offlineScale = 400.0;

    /** Modeled seconds of a static analysis that did @p workUnits of
     *  solver work, scaled like every offline cost. */
    double
    staticSeconds(std::uint64_t workUnits) const
    {
        return double(workUnits) / staticUnitsPerSecond * offlineScale;
    }

    /** Modeled seconds of profiling @p steps guest instructions,
     *  scaled like every offline cost. */
    double
    profileSeconds(double steps) const
    {
        return steps * profilingOverhead / unitsPerSecond * offlineScale;
    }
};

/** Cost breakdown of one dynamic-analysis run (or a corpus of runs). */
struct RunCost
{
    double base = 0;       ///< uninstrumented execution
    double framework = 0;  ///< interception framework
    double analysis = 0;   ///< the analysis' own checks
    double invariants = 0; ///< likely-invariant verification
    double rollback = 0;   ///< sound re-analysis after mis-speculation

    double
    total() const
    {
        return base + framework + analysis + invariants + rollback;
    }

    /** Runtime normalized to uninstrumented execution (Figures 5/6). */
    double
    normalized() const
    {
        return base > 0 ? total() / base : 0.0;
    }

    void
    add(const RunCost &other)
    {
        base += other.base;
        framework += other.framework;
        analysis += other.analysis;
        invariants += other.invariants;
        rollback += other.rollback;
    }

    bool operator==(const RunCost &other) const = default;
};

/** Price a FastTrack-family run from its event accounting.
 *  @param ftDelivered events delivered to the FastTrack tool
 *  @param checker     events delivered to the invariant checker
 *                     (null when none attached)
 *  @param slowContextChecks exact-set context probes performed */
RunCost priceFastTrackRun(const CostModel &model,
                          const exec::RunResult &run,
                          const exec::EventCounts &ftDelivered,
                          const exec::EventCounts *checker = nullptr,
                          std::uint64_t slowContextChecks = 0);

/** Price a Giri-family run. */
RunCost priceGiriRun(const CostModel &model, const exec::RunResult &run,
                     const exec::EventCounts &giriDelivered,
                     const exec::EventCounts *checker = nullptr,
                     std::uint64_t slowContextChecks = 0);

} // namespace oha::core
