/**
 * @file
 * The profiling phase both pipelines share, and the circuit-breaker
 * policy for adaptive misspeculation recovery.
 *
 * Adaptive recovery (runOptFt/runOptSlice with
 * config.adaptiveRecovery) repairs the optimistic plan after every
 * rollback: demote the lying invariant, re-run the predicated static
 * phase through the memo cache, continue the corpus.  That loop must
 * not be allowed to spin when speculation keeps losing — each repair
 * costs a (memoized) static re-analysis, and a corpus that violates
 * invariants at a high rate is telling us the profile does not
 * transfer, so the honest move is the paper's fallback: run the
 * remainder under the sound hybrid plan.  The breaker trips on either
 * signal:
 *  - the repair budget is exhausted (repredications >=
 *    maxRepredications), or
 *  - the observed misspeculation rate over the inputs evaluated so
 *    far exceeds misspecRateThreshold, once at least minRunsForRate
 *    inputs have been seen (so one early rollback cannot trip it).
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dyn/fault_injector.h"
#include "invariants/invariant_set.h"
#include "workloads/workloads.h"

namespace oha::core {

/** What Phases 1 and 1b hand to the rest of a pipeline. */
struct ProfilePhase
{
    /** The profiled invariants, perturbed when a fault seed is set. */
    inv::InvariantSet invariants;
    /** Guest instructions of each merged profiling run, in merge
     *  order, and their total. */
    std::vector<std::uint64_t> runSteps;
    std::uint64_t profiledSteps = 0;
    /** Faults injected when config.faultSeed is non-zero. */
    std::vector<dyn::FaultInjection> injectedFaults;
};

/**
 * Phases 1 and 1b of runOptFt and runOptSlice (`Config` is
 * OptFtConfig or OptSliceConfig):
 *  1. profile the workload's profiling set until the learned
 *     invariants converge, through the shared observation cache when
 *     config.cacheProfileObservations is set, and take the
 *     invariants (with aggressive likely-unreachable code when
 *     config.aggressiveLucMinVisits > 1);
 *  1b. when config.faultSeed is non-zero, perturb the invariants in
 *     the @p families so the testing corpus provably mis-speculates
 *     (tests, CI seed sweeps).  The corpus is observed through the
 *     same observer, so a warm request does not re-profile it.
 * @p callContexts selects call-context profiling; it must match
 * whether @p families asks for the CallContext family.
 */
template <typename Config>
ProfilePhase
runProfilePhase(const workloads::Workload &workload, const Config &config,
                bool callContexts,
                std::vector<dyn::ViolationFamily> families =
                    dyn::FaultInjectorOptions{}.families);

/** Decides when adaptive recovery must degrade to the hybrid plan. */
struct RecoveryBreaker
{
    std::size_t maxRepredications = 4;
    double misspecRateThreshold = 0.5;
    std::size_t minRunsForRate = 8;

    /** Evaluate the policy after a rollback: @p repredications repairs
     *  performed, @p rollbacks total rollbacks, @p evaluated inputs
     *  scanned so far. */
    bool
    tripped(std::size_t repredications, std::uint64_t rollbacks,
            std::size_t evaluated) const
    {
        if (repredications >= maxRepredications)
            return true;
        return evaluated >= minRunsForRate &&
               double(rollbacks) >
                   misspecRateThreshold * double(evaluated);
    }
};

} // namespace oha::core
