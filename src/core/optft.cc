#include "core/optft.h"

#include "analysis/andersen_cache.h"
#include "analysis/callgraph.h"
#include "analysis/lockset.h"
#include "core/recovery.h"
#include "dyn/fasttrack.h"
#include "dyn/invariant_checker.h"
#include "dyn/plans.h"
#include "exec/interpreter.h"
#include "support/env.h"
#include "support/thread_pool.h"

namespace oha::core {

namespace {

using RacePairs = std::set<std::pair<InstrId, InstrId>>;

/** Outcome of one FastTrack configuration (optionally checked). */
struct FtRun
{
    exec::RunResult result;
    RacePairs races;
    exec::EventCounts ftDelivered;
    exec::EventCounts checkerDelivered;
    std::uint64_t slowChecks = 0;
    bool violated = false;
};

/** Read one configuration's outcome off its run, its FastTrack tool
 *  (attached first) and its checker (attached second, if any). */
FtRun
collectFtRun(exec::RunResult result, const dyn::FastTrack &tool,
             const dyn::InvariantChecker *checker)
{
    FtRun out;
    out.result = std::move(result);
    out.races = tool.racePairs();
    out.ftDelivered = out.result.delivered[0];
    if (checker) {
        out.checkerDelivered = out.result.delivered[1];
        out.slowChecks = checker->slowContextChecks();
        out.violated = checker->violated();
    }
    return out;
}

/** One FastTrack configuration of a grouped run: its plan and, for a
 *  speculative configuration, the invariant checker guarding it. */
struct FtConfig
{
    const exec::InstrumentationPlan *plan;
    dyn::InvariantChecker *checker = nullptr;
};

/**
 * Run every configuration over one live run of @p input, each
 * configuration its own attachment group, so a checker's abort stops
 * only its own configuration.  Every FtRun equals a standalone run of
 * that configuration alone.
 */
std::vector<FtRun>
runFastTracks(const ir::Module &module, const exec::ExecConfig &input,
              const std::vector<FtConfig> &configs)
{
    exec::Interpreter run(module, input);
    std::vector<dyn::FastTrack> tools(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const exec::Interpreter::GroupId group =
            c == 0 ? 0 : run.addGroup();
        run.attach(group, &tools[c], configs[c].plan);
        if (dyn::InvariantChecker *checker = configs[c].checker) {
            checker->setControl(&run.control(group));
            run.attach(group, checker, &checker->plan());
        }
    }
    std::vector<exec::RunResult> results = run.runGroups();
    std::vector<FtRun> out;
    out.reserve(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c)
        out.push_back(collectFtRun(std::move(results[c]), tools[c],
                                   configs[c].checker));
    return out;
}

/** Lock and unlock sites in profiled-visited code. */
struct LockSiteSets
{
    std::set<InstrId> locks;
    std::set<InstrId> unlocks;
};

LockSiteSets
collectLockSites(const ir::Module &module,
                 const inv::InvariantSet &invariants)
{
    LockSiteSets sites;
    for (InstrId id = 0; id < module.numInstrs(); ++id) {
        const ir::Instruction &ins = module.instr(id);
        if (!invariants.blockVisited(ins.block))
            continue;
        if (ins.op == ir::Opcode::Lock)
            sites.locks.insert(id);
        else if (ins.op == ir::Opcode::Unlock)
            sites.unlocks.insert(id);
    }
    return sites;
}

/** Lock sites held at some potentially-racy access (these must keep
 *  their instrumentation: they order the accesses the dynamic
 *  detector still watches). */
std::set<InstrId>
guardingLockSites(const ir::Module &module,
                  const analysis::AndersenResult &andersen,
                  const inv::InvariantSet &invariants,
                  const std::set<InstrId> &racyAccesses)
{
    const analysis::LocksetAnalysis locksets(module, andersen,
                                             &invariants);
    std::set<InstrId> guarding;
    for (InstrId access : racyAccesses) {
        const auto &held = locksets.locksHeldAt(access);
        guarding.insert(held.begin(), held.end());
    }
    return guarding;
}

/** Close an elided-lock set over its unlocks: an unlock is elidable
 *  when every lock site it may release is elided. */
std::set<InstrId>
elidableWithUnlocks(const analysis::AndersenResult &andersen,
                    const LockSiteSets &sites,
                    const std::set<InstrId> &locks)
{
    std::set<InstrId> all = locks;
    for (InstrId unlock : sites.unlocks) {
        const SparseBitSet targets = andersen.pointerTargets(unlock);
        bool allElided = true;
        for (InstrId lock : sites.locks) {
            if (andersen.pointerTargets(lock).intersects(targets) &&
                !locks.count(lock)) {
                allElided = false;
                break;
            }
        }
        if (allElided)
            all.insert(unlock);
    }
    return all;
}

/** What the no-custom-sync calibration decided and executed. */
struct Calibration
{
    /** Lock and unlock sites whose instrumentation is elided. */
    std::set<InstrId> elided;
    /** Guest instructions of one run of each calibration input. */
    std::uint64_t steps = 0;
};

/**
 * No-custom-sync calibration (Section 4.2.4): propose eliding
 * lock/unlock sites whose critical sections contain no remaining
 * dynamic checks, validate against a sound FastTrack on profiling
 * inputs, and withdraw candidates that produce false races.
 */
Calibration
calibrateLockElision(const ir::Module &module,
                     const inv::InvariantSet &invariants,
                     const analysis::StaticRaceResult &predicated,
                     const workloads::Workload &workload,
                     std::size_t calibrationRuns, std::size_t threads,
                     const std::vector<std::uint64_t> &profiledSteps)
{
    // Candidate lock sites: no potentially-racy access holds them.
    // This is the same predicated CI configuration the static race
    // detector just solved, so the memo cache serves it back for free.
    analysis::AndersenOptions aopts;
    aopts.invariants = &invariants;
    const std::shared_ptr<const analysis::AndersenResult> andersenSp =
        analysis::runAndersenMemo(workload.module, aopts);
    const analysis::AndersenResult &andersen = *andersenSp;

    const std::set<InstrId> guardingSites = guardingLockSites(
        module, andersen, invariants, predicated.racyAccesses);
    const LockSiteSets sites = collectLockSites(module, invariants);

    std::set<InstrId> candidates;
    for (InstrId lock : sites.locks)
        if (!guardingSites.count(lock))
            candidates.insert(lock);

    const std::size_t runs =
        std::min(calibrationRuns, workload.profilingSet.size());

    Calibration out;
    if (candidates.empty()) {
        // Nothing to validate, but the cost model prices the
        // calibration runs all the same.  A calibration input the
        // campaign profiled took as many steps then (@p profiledSteps
        // is in profiling-input order); any other is counted on a pass
        // without tools.
        const std::vector<std::uint64_t> steps = support::runBatch(
            runs,
            [&](std::size_t i) {
                if (i < profiledSteps.size())
                    return profiledSteps[i];
                return exec::Interpreter(module, workload.profilingSet[i])
                    .run()
                    .steps;
            },
            threads);
        for (std::uint64_t n : steps)
            out.steps += n;
        return out;
    }

    // For withdrawing offenders below: which functions each false
    // race implicates, including their direct callees.
    const analysis::CallGraph callgraph(module, andersen, &invariants);

    const exec::InstrumentationPlan soundPlan =
        dyn::fullFastTrackPlan(module);

    // Every round makes one live run of each calibration input, with
    // each requested plan its own attachment group.
    auto calibPass = [&](std::size_t i,
                         const std::vector<FtConfig> &configs) {
        return runFastTracks(module, workload.profilingSet[i], configs);
    };

    // The sound reference races are loop-invariant (the plan never
    // changes across rounds): the first round computes them alongside
    // its trial, in the same pass over each input, and its sound
    // runs count the calibration steps.
    std::vector<RacePairs> soundRaces;
    while (!candidates.empty()) {
        inv::InvariantSet trial = invariants;
        trial.elidableLockSites =
            elidableWithUnlocks(andersen, sites, candidates);
        const exec::InstrumentationPlan optPlan =
            dyn::optimisticFastTrackPlan(module, predicated.racyAccesses,
                                         trial);

        // Validate every calibration trial of this round concurrently.
        const bool firstRound = soundRaces.size() < runs;
        std::vector<std::vector<FtRun>> roundRuns = support::runBatch(
            runs,
            [&](std::size_t i) {
                return firstRound ? calibPass(i, {{&soundPlan}, {&optPlan}})
                                  : calibPass(i, {{&optPlan}});
            },
            threads);
        std::vector<RacePairs> optRaces;
        for (std::vector<FtRun> &passRuns : roundRuns) {
            if (firstRound) {
                out.steps += passRuns.front().result.steps;
                soundRaces.push_back(std::move(passRuns.front().races));
            }
            optRaces.push_back(std::move(passRuns.back().races));
        }

        std::set<InstrId> falseRaceFuncs;
        bool mismatch = false;
        for (std::size_t i = 0; i < runs; ++i) {
            for (const auto &race : optRaces[i]) {
                if (!soundRaces[i].count(race)) {
                    mismatch = true;
                    falseRaceFuncs.insert(module.instr(race.first).func);
                    falseRaceFuncs.insert(module.instr(race.second).func);
                }
            }
        }
        if (!mismatch)
            break;

        // Restore instrumentation for offending locks: candidates in
        // the functions involved in false races, plus — Figure 4: the
        // lost happens-before edge can surface as a false race in a
        // *caller* of the function whose lock was elided — candidates
        // in functions directly called from an implicated function
        // (fall back to popping one candidate if the heuristic makes
        // no progress).
        std::set<FuncId> offendingFuncs = falseRaceFuncs;
        for (FuncId func : falseRaceFuncs) {
            const std::set<FuncId> &callees = callgraph.callees(func);
            offendingFuncs.insert(callees.begin(), callees.end());
        }
        bool removed = false;
        for (auto it = candidates.begin(); it != candidates.end();) {
            const ir::Instruction &lock = module.instr(*it);
            if (offendingFuncs.count(lock.func) > 0) {
                it = candidates.erase(it);
                removed = true;
            } else {
                ++it;
            }
        }
        if (!removed)
            candidates.erase(std::prev(candidates.end()));
    }

    if (!candidates.empty())
        out.elided = elidableWithUnlocks(andersen, sites, candidates);
    return out;
}

/**
 * Adaptive recovery: a demotion can only grow the predicated
 * racy-access set, so calibrated elisions may now sit on locks that
 * guard racy accesses.  Keep the already-validated elided lock sites
 * that still guard nothing racy and re-derive the elidable unlocks
 * for the surviving set; never add new elisions — that would need
 * the calibration runs again.
 */
std::set<InstrId>
refilterElidableLocks(const std::shared_ptr<const ir::Module> &moduleSp,
                      const inv::InvariantSet &invariants,
                      const analysis::StaticRaceResult &predicated)
{
    if (invariants.elidableLockSites.empty())
        return {};
    const ir::Module &module = *moduleSp;
    analysis::AndersenOptions aopts;
    aopts.invariants = &invariants;
    const std::shared_ptr<const analysis::AndersenResult> andersenSp =
        analysis::runAndersenMemo(moduleSp, aopts);
    const analysis::AndersenResult &andersen = *andersenSp;

    const std::set<InstrId> guarding = guardingLockSites(
        module, andersen, invariants, predicated.racyAccesses);
    const LockSiteSets sites = collectLockSites(module, invariants);

    std::set<InstrId> kept;
    for (InstrId lock : sites.locks)
        if (invariants.elidableLockSites.count(lock) &&
            !guarding.count(lock))
            kept.insert(lock);
    if (kept.empty())
        return {};
    return elidableWithUnlocks(andersen, sites, kept);
}

} // namespace

bool
optFtShouldRollBack(bool invariantViolated, bool racesReported,
                    bool lockElisionActive)
{
    // See the header: a race report only implies possible
    // mis-speculation when a lost happens-before edge could have
    // produced it, i.e. when any lock site is elided — and then
    // globally, because the false race need not involve the elided
    // lock itself.
    return invariantViolated || (racesReported && lockElisionActive);
}

OptFtResult
runOptFt(const workloads::Workload &workload, const OptFtConfig &config)
{
    OHA_ASSERT(workload.race, "runOptFt needs a race workload");
    const ir::Module &module = *workload.module;
    const CostModel &cost = config.cost;

    OptFtResult result;
    result.name = workload.name;

    // ---- Phases 1 and 1b: profiling, optional fault injection --------
    ProfilePhase profiled =
        runProfilePhase(workload, config, /*callContexts=*/false);
    inv::InvariantSet &invariants = profiled.invariants;
    result.profileRunsUsed = profiled.runSteps.size();
    result.injectedFaults = std::move(profiled.injectedFaults);

    // ---- Phase 2: static analyses -------------------------------------
    // Sound and predicated detectors are independent; run them
    // concurrently (collected in index order for determinism) and
    // route them through the static-result memo, so calibration
    // sweeps with converged invariants reuse whole detector outputs.
    const auto detectors = support::runBatch(
        2,
        [&](std::size_t i) {
            return analysis::runStaticRaceDetectorMemo(
                workload.module, i == 0 ? nullptr : &invariants);
        },
        config.threads);
    const analysis::StaticRaceResult &sound = *detectors[0];
    // Mutable handle: adaptive recovery re-runs the predicated
    // detector (through the memo) after each demotion.
    std::shared_ptr<const analysis::StaticRaceResult> predicatedSp =
        detectors[1];
    const analysis::StaticRaceResult &predicated = *predicatedSp;
    result.soundStaticSeconds =
        double(sound.workUnits) / cost.staticUnitsPerSecond * cost.offlineScale;
    result.predStaticSeconds =
        double(predicated.workUnits) / cost.staticUnitsPerSecond * cost.offlineScale;
    result.staticallyRaceFree = sound.racyAccesses.empty();
    result.soundRacyAccesses = sound.racyAccesses.size();
    result.predRacyAccesses = predicated.racyAccesses.size();

    // ---- Phase 2b: no-custom-sync calibration -------------------------
    // Every elision round runs each calibration input once, live.
    const std::size_t calibRuns = std::min(
        config.customSyncCalibrationRuns, workload.profilingSet.size());
    Calibration calibration = calibrateLockElision(
        module, invariants, predicated, workload, calibRuns, config.threads,
        profiled.runSteps);
    invariants.elidableLockSites = std::move(calibration.elided);
    result.elidedLockSites = invariants.elidableLockSites.size();
    // Calibration executions count as profiling cost, priced at their
    // uninstrumented step counts (the sound plan never aborts).
    result.profileSeconds =
        (double(profiled.profiledSteps) +
         2.0 * double(calibration.steps)) *
        cost.profilingOverhead / cost.unitsPerSecond * cost.offlineScale;

    // ---- Phase 3: dynamic analysis over the testing corpus ------------
    const auto fullPlan = dyn::fullFastTrackPlan(module);
    const auto hybridPlan =
        dyn::hybridFastTrackPlan(module, sound.racyAccesses);
    exec::InstrumentationPlan optPlan = dyn::optimisticFastTrackPlan(
        module, predicatedSp->racyAccesses, invariants);

    dyn::CheckerConfig checkerConfig;
    checkerConfig.callContexts = false;

    const std::size_t numTests = workload.testingSet.size();

    // Reference runs.  Full and hybrid FastTrack do not depend on the
    // speculative plan, so they are evaluated once per input up
    // front; the hybrid result doubles as the deterministic rollback
    // re-analysis (identical by determinism) and as the degraded
    // configuration once the circuit breaker trips.
    struct RefEval
    {
        FtRun full;
        FtRun hybrid;
    };
    struct OptEval
    {
        FtRun optimistic;
        bool rolledBack = false;
        bool degraded = false;
        dyn::Violation violation;
    };
    // Judge one optimistic run under the current invariants.
    auto judge = [&](FtRun run, const dyn::InvariantChecker &checker) {
        OptEval eval;
        eval.optimistic = std::move(run);
        if (optFtShouldRollBack(eval.optimistic.violated,
                                !eval.optimistic.races.empty(),
                                !invariants.elidableLockSites.empty())) {
            eval.rolledBack = true;
            if (checker.violated()) {
                eval.violation = checker.violation();
            } else {
                eval.violation.family = dyn::ViolationFamily::ElidedLockRace;
            }
        }
        return eval;
    };

    // One live run per input serves the references and the first
    // adaptive round together: full, hybrid and optimistic FastTrack
    // (with its checker) are three attachment groups, so the checker's
    // abort stops only the optimistic configuration.
    struct FusedEval
    {
        RefEval ref;
        OptEval opt;
    };
    std::vector<FusedEval> fused = support::runBatch(
        numTests,
        [&](std::size_t i) {
            dyn::InvariantChecker checker(module, invariants, checkerConfig);
            std::vector<FtRun> runs = runFastTracks(
                module, workload.testingSet[i],
                {{&fullPlan}, {&hybridPlan}, {&optPlan, &checker}});
            FusedEval eval;
            eval.ref.full = std::move(runs[0]);
            eval.ref.hybrid = std::move(runs[1]);
            eval.opt = judge(std::move(runs[2]), checker);
            return eval;
        },
        config.threads);
    std::vector<RefEval> refs(numTests);
    std::vector<OptEval> firstRound;
    firstRound.reserve(numTests);
    for (std::size_t i = 0; i < numTests; ++i) {
        refs[i] = std::move(fused[i].ref);
        firstRound.push_back(std::move(fused[i].opt));
    }

    // Speculative runs, in adaptive rounds.  Each round runs the
    // remaining inputs in order under the current optimistic plan and
    // starts no input past the first rollback (runBatchUntil), then
    // scans the outcomes serially in input-index order.  At the first
    // rollback the round stops: the lying invariant is demoted, the
    // predicated static phase re-runs through the memo cache, the
    // plan is rebuilt, and the next round restarts at the following
    // input — so results are exactly those of the serial repair loop
    // at any thread count (evaluations a parallel round started past
    // the rollback are discarded, not folded).  A circuit breaker
    // degrades the remaining corpus to the sound hybrid configuration
    // when the repair budget or the observed misspeculation rate is
    // exceeded.
    // The first round came out of the fused reference pass; later
    // rounds run only the optimistic configuration.
    std::vector<OptEval> opts(numTests);
    const RecoveryBreaker breaker{config.maxRepredications,
                                  config.misspecRateThreshold,
                                  config.minRunsForMisspecRate};
    std::uint64_t rollbacksSeen = 0;
    bool degraded = false;
    std::size_t next = 0;
    while (next < numTests) {
        if (degraded) {
            // Sound fallback: the rest of the corpus runs the hybrid
            // configuration (no speculation, no checker).  By
            // determinism that evaluation is identical to the hybrid
            // reference, so reuse it.
            for (std::size_t i = next; i < numTests; ++i) {
                opts[i].optimistic = refs[i].hybrid;
                opts[i].degraded = true;
            }
            break;
        }
        const std::size_t start = next;
        const std::vector<OptEval> round =
            start == 0
                ? std::move(firstRound)
                : support::runBatchUntil(
                      numTests - start,
                      [&](std::size_t k) {
                          const std::size_t i = start + k;
                          dyn::InvariantChecker checker(module, invariants,
                                                        checkerConfig);
                          return judge(
                              std::move(runFastTracks(
                                  module, workload.testingSet[i],
                                  {{&optPlan, &checker}})[0]),
                              checker);
                      },
                      [&](const OptEval &eval) {
                          return config.adaptiveRecovery && eval.rolledBack;
                      },
                      config.threads);

        next = numTests;
        for (std::size_t k = 0; k < round.size(); ++k) {
            const std::size_t i = start + k;
            opts[i] = round[k];
            // A repair round's run is one more interpretation of the
            // input.
            if (start != 0)
                result.interpretedSteps += opts[i].optimistic.result.steps;
            if (!opts[i].rolledBack)
                continue;
            ++rollbacksSeen;
            if (!config.adaptiveRecovery)
                continue; // historical behavior: plan never changes
            const dyn::Violation &violation = opts[i].violation;
            if (breaker.tripped(result.repredications, rollbacksSeen,
                                i + 1)) {
                degraded = true;
                result.circuitBroken = true;
            } else if (!invariants.demote(violation)) {
                // Defensive: an unrepairable violation (nothing left
                // to remove) must degrade rather than spin.
                degraded = true;
                result.circuitBroken = true;
            } else {
                result.demotions.push_back(violation);
                ++result.repredications;
                if (violation.family !=
                    dyn::ViolationFamily::ElidedLockRace) {
                    // Re-predicate on the repaired invariants.  The
                    // memo keys on the invariant text, so repeated
                    // repairs of converging sets are incremental in
                    // practice.
                    predicatedSp = analysis::runStaticRaceDetectorMemo(
                        workload.module, &invariants);
                    result.repredStaticSeconds +=
                        double(predicatedSp->workUnits) /
                        cost.staticUnitsPerSecond * cost.offlineScale;
                    invariants.elidableLockSites = refilterElidableLocks(
                        workload.module, invariants, *predicatedSp);
                }
                optPlan = dyn::optimisticFastTrackPlan(
                    module, predicatedSp->racyAccesses, invariants);
            }
            next = i + 1; // discard this round's later evaluations
            break;
        }
    }

    // Fold the outcomes serially in input-index order, so
    // accumulation — including floating-point cost sums — is
    // identical for any thread count.
    std::set<std::pair<InstrId, InstrId>> allRaces;
    for (std::size_t i = 0; i < numTests; ++i) {
        const RefEval &ref = refs[i];
        const OptEval &opt = opts[i];
        result.fastTrack.add(priceFastTrackRun(cost, ref.full.result,
                                               ref.full.ftDelivered));
        allRaces.insert(ref.full.races.begin(), ref.full.races.end());

        result.hybridFt.add(priceFastTrackRun(cost, ref.hybrid.result,
                                              ref.hybrid.ftDelivered));
        if (ref.hybrid.races != ref.full.races)
            result.raceReportsMatch = false;

        RunCost optCost = priceFastTrackRun(
            cost, opt.optimistic.result, opt.optimistic.ftDelivered,
            &opt.optimistic.checkerDelivered, opt.optimistic.slowChecks);
        RacePairs finalRaces = opt.optimistic.races;
        if (opt.rolledBack) {
            ++result.misSpeculations;
            // Roll back: deterministic re-analysis under the sound
            // hybrid configuration (Section 2.3) — identical to the
            // hybrid reference by determinism, so reuse it.
            const FtRun &redo = ref.hybrid;
            const RunCost redoCost = priceFastTrackRun(
                cost, redo.result, redo.ftDelivered);
            optCost.rollback = redoCost.total();
            finalRaces = redo.races;
        }
        result.optFt.add(optCost);
        if (finalRaces != ref.full.races)
            result.raceReportsMatch = false;

        // The fused run is step-identical to the full-plan run, which
        // never aborts.
        result.interpretedSteps += ref.full.result.steps;
    }

    result.testRuns = workload.testingSet.size();
    result.racesObserved = allRaces.size();
    result.baselineSeconds = result.fastTrack.base / cost.unitsPerSecond;

    // ---- Derived metrics ----------------------------------------------
    const double normFt = result.fastTrack.normalized();
    const double normHybrid = result.hybridFt.normalized();
    const double normOpt = result.optFt.normalized();
    if (normOpt > 0) {
        result.speedupVsFastTrack = normFt / normOpt;
        result.speedupVsHybrid = normHybrid / normOpt;
    }

    // Break-even: T such that upfront_opt + norm_opt*T equals the
    // competitor's upfront + norm*T (T in baseline seconds).
    const double upfrontOpt =
        result.profileSeconds + result.predStaticSeconds;
    auto breakEven = [&](double upfrontOther, double normOther) {
        if (normOther <= normOpt)
            return -1.0;
        return (upfrontOpt - upfrontOther) / (normOther - normOpt);
    };
    result.breakEvenVsHybrid =
        breakEven(result.soundStaticSeconds, normHybrid);
    result.breakEvenVsFastTrack = breakEven(0.0, normFt);

    return result;
}

} // namespace oha::core
