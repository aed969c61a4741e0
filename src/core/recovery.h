/**
 * @file
 * What OptFT and OptSlice share: their common configuration
 * (PipelineConfig) and result accounting (PipelineResult), the
 * profiling phase (runProfilePhase), and the adaptive-recovery engine
 * both run over their testing corpus (runAdaptiveRounds).
 *
 * The engine is Section 2.3's rollback made a loop.  The corpus is a
 * task space of testing inputs × endpoints per input, in input-major
 * order: OptFT has one endpoint per input, OptSlice one per slice
 * endpoint.  A round evaluates the remaining tasks in order under the
 * current optimistic plan and starts no input past the first rollback
 * (support::runBatchUntil); the outcomes are then scanned serially in
 * task order.  At the first rollback the engine demotes the lying
 * invariant, the pipeline re-predicates its static phase through the
 * memo caches and rebuilds its plans, and the next round restarts at
 * the task after the rollback — mid-input when an input has several
 * endpoints.  So the results equal those of the serial repair loop at
 * any thread count: evaluations a parallel round started past the
 * rollback are discarded, not kept.
 *
 * The loop must not spin when speculation keeps losing: each repair
 * costs a (memoized) static re-analysis, and a corpus that violates
 * invariants at a high rate is telling us the profile does not
 * transfer.  The honest move is then the paper's fallback: the circuit
 * breaker (RecoveryBreaker) degrades the rest of the corpus to the
 * sound hybrid plan.  It trips on either signal:
 *  - the repair budget is exhausted (repredications >=
 *    maxRepredications), or
 *  - the observed misspeculation rate over the tasks evaluated so far
 *    exceeds misspecRateThreshold, once at least minRunsForRate tasks
 *    have been seen (so one early rollback cannot trip it).
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/cost_model.h"
#include "dyn/fault_injector.h"
#include "dyn/violation.h"
#include "invariants/invariant_set.h"
#include "support/thread_pool.h"
#include "workloads/workloads.h"

namespace oha::core {

/** Configuration both pipelines take (OptFtConfig and OptSliceConfig
 *  add their own fields). */
struct PipelineConfig
{
    /** Stop profiling after this many runs even if not converged. */
    std::size_t maxProfileRuns = 48;
    /** Declare convergence after this many runs with no new facts. */
    std::size_t convergenceWindow = 6;
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
    /** No effect; kept only because perfbench/ops.cc assigns it.
     *  Delete with the next benchmark change. */
    bool useTraceReplay = false;
    /** No effect; kept only because perfbench/ops.cc assigns it.
     *  Delete with the next benchmark change. */
    bool cacheTraceCaptures = true;
    /** Serve per-input profiling observations from the shared
     *  cross-request cache (profile/observation_cache.h).  An
     *  observation is a pure function of (module, input), so the
     *  merged invariant set — and everything downstream — is identical
     *  either way; a warm service request skips the live profiling
     *  interpreter entirely. */
    bool cacheProfileObservations = true;
    /** Adaptive misspeculation recovery (runAdaptiveRounds): after a
     *  rollback, demote the violated invariant, re-run the predicated
     *  static phase through the memo caches, rebuild the optimistic
     *  plans, and continue the remaining tasks under the repaired
     *  plans.  Off reproduces the historical fire-and-forget behavior
     *  (every task keeps the original plan and pays its own
     *  rollback). */
    bool adaptiveRecovery = true;
    /** Circuit breaker: maximum demote + re-predicate repairs before
     *  the remaining corpus degrades to the sound hybrid plan. */
    std::size_t maxRepredications = 4;
    /** Circuit breaker: degrade when rollbacks / tasks-evaluated
     *  exceeds this rate (see minRunsForMisspecRate). */
    double misspecRateThreshold = 0.5;
    /** Rate threshold only arms after this many evaluated tasks. */
    std::size_t minRunsForMisspecRate = 8;
    /** Non-zero: deterministically perturb the profiled invariants
     *  (dyn::FaultInjector) so the testing corpus mis-speculates —
     *  exercises rollback/demotion/breaker paths on demand.  CI
     *  sweeps this via OHA_FAULT_SEED (see ci/run.sh faults). */
    std::uint64_t faultSeed = 0;
    CostModel cost;
};

/** Result fields both pipelines report (OptFtResult and
 *  OptSliceResult add their own). */
struct PipelineResult
{
    std::string name;

    /** Modeled profiling cost (seconds) and profiling runs merged. */
    double profileSeconds = 0;
    std::size_t profileRunsUsed = 0;

    /** Testing inputs, and their uninstrumented runtime (seconds). */
    std::size_t testRuns = 0;
    double baselineSeconds = 0;
    /** Tasks whose speculation rolled back. */
    std::uint64_t misSpeculations = 0;

    /** Guest instructions interpreted over the testing corpus: one
     *  live run per input in the fused first round, plus each kept
     *  repair-round run.  Evaluations a parallel round discards past a
     *  rollback are not counted, so the figure does not depend on the
     *  thread count. */
    std::uint64_t interpretedSteps = 0;

    // Adaptive-recovery accounting (all zero when adaptiveRecovery is
    // off or nothing mis-speculated).
    /** Demote + re-predicate repair cycles performed. */
    std::size_t repredications = 0;
    /** Modeled cost of the repair-time static re-analyses.  Additive
     *  metric: not folded into the predicated static figures, so the
     *  headline upfront costs stay comparable to the non-adaptive
     *  pipeline. */
    double repredStaticSeconds = 0;
    /** The circuit breaker degraded the remaining corpus to hybrid. */
    bool circuitBroken = false;
    /** Invariant facts demoted, in rollback order. */
    std::vector<dyn::Violation> demotions;
    /** Faults injected when config.faultSeed is non-zero. */
    std::vector<dyn::FaultInjection> injectedFaults;
};

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
 * Phases 1 and 1b of runOptFt and runOptSlice:
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
ProfilePhase
runProfilePhase(const workloads::Workload &workload,
                const PipelineConfig &config, bool callContexts,
                std::vector<dyn::ViolationFamily> families =
                    dyn::FaultInjectorOptions{}.families);

/** Decides when adaptive recovery must degrade to the hybrid plan. */
struct RecoveryBreaker
{
    std::size_t maxRepredications = 4;
    double misspecRateThreshold = 0.5;
    std::size_t minRunsForRate = 8;

    /** Evaluate the policy after a rollback: @p repredications repairs
     *  performed, @p rollbacks total rollbacks, @p evaluated tasks
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

/** One task's outcome under the speculative plan. */
template <typename Run>
struct SpeculativeEval
{
    /** The optimistic run; the hybrid reference once the breaker has
     *  degraded the task (no speculation, no checker). */
    Run optimistic;
    bool rolledBack = false;
    /** The invariant fact that failed, when rolledBack. */
    dyn::Violation violation;
};

/**
 * Evaluate the testing corpus's speculative runs in adaptive rounds
 * (see the file comment) and return one evaluation per task, in task
 * order (input * @p endpoints + endpoint).
 *
 * @p firstRound holds each input's evaluations of all its endpoints
 * under the initial plan; it comes out of the pipeline's fused
 * reference pass, which counts its steps.  The pipeline supplies:
 *  - evaluate(input, first): the evaluations of endpoints
 *    [first, endpoints) of @p input under the current plans, read off
 *    one run of the input (so they share its verdict and its steps,
 *    `optimistic.result.steps`);
 *  - repair(violation): after @p invariants demoted @p violation,
 *    re-predicate and rebuild the plans; returns the modeled seconds
 *    of the static re-analysis;
 *  - hybrid(task): the hybrid reference run of @p task, which by
 *    determinism is also its evaluation once degraded.
 * Writes the recovery accounting into @p result: the steps of each
 * kept repair-round run, demotions, repredications,
 * repredStaticSeconds and circuitBroken.
 */
template <typename Run, typename Evaluate, typename Repair, typename Hybrid>
std::vector<SpeculativeEval<Run>>
runAdaptiveRounds(const PipelineConfig &config, std::size_t inputs,
                  std::size_t endpoints,
                  std::vector<std::vector<SpeculativeEval<Run>>> firstRound,
                  inv::InvariantSet &invariants, Evaluate &&evaluate,
                  Repair &&repair, Hybrid &&hybrid, PipelineResult &result)
{
    using Evals = std::vector<SpeculativeEval<Run>>;
    const std::size_t tasks = inputs * endpoints;
    Evals out(tasks);
    const RecoveryBreaker breaker{config.maxRepredications,
                                  config.misspecRateThreshold,
                                  config.minRunsForMisspecRate};
    std::uint64_t rollbacks = 0;
    bool degraded = false;
    std::vector<Evals> round = std::move(firstRound);
    std::size_t next = 0;
    while (next < tasks) {
        if (degraded) {
            for (std::size_t task = next; task < tasks; ++task)
                out[task].optimistic = hybrid(task);
            break;
        }
        const std::size_t firstInput = next / endpoints;
        const std::size_t firstEndpoint = next % endpoints;
        if (next != 0) {
            round = support::runBatchUntil(
                inputs - firstInput,
                [&](std::size_t k) {
                    return evaluate(firstInput + k,
                                    k == 0 ? firstEndpoint : 0);
                },
                [&](const Evals &evals) {
                    return config.adaptiveRecovery &&
                           evals.front().rolledBack;
                },
                config.threads);
            // A repair round's run is one more interpretation of its
            // input; the round ends at its first rollback, so every
            // run it returns is kept.
            for (const Evals &evals : round)
                result.interpretedSteps +=
                    evals.front().optimistic.result.steps;
        }

        std::size_t task = next;
        next = tasks;
        for (std::size_t k = 0; k < round.size() && next == tasks; ++k) {
            for (SpeculativeEval<Run> &eval : round[k]) {
                const std::size_t t = task++;
                out[t] = std::move(eval);
                if (!out[t].rolledBack)
                    continue;
                ++rollbacks;
                if (!config.adaptiveRecovery)
                    continue; // historical behavior: plans never change
                const dyn::Violation &violation = out[t].violation;
                // An unrepairable violation (nothing left to demote)
                // must degrade rather than spin.
                if (breaker.tripped(result.repredications, rollbacks,
                                    t + 1) ||
                    !invariants.demote(violation)) {
                    degraded = true;
                    result.circuitBroken = true;
                } else {
                    result.demotions.push_back(violation);
                    ++result.repredications;
                    result.repredStaticSeconds += repair(violation);
                }
                next = t + 1; // discard this round's later evaluations
                break;
            }
        }
    }
    return out;
}

} // namespace oha::core
