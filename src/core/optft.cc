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
 * dynamic checks, validate against the sound hybrid FastTrack (plan
 * from @p sound) on profiling inputs, and withdraw candidates that
 * produce false races.
 */
Calibration
calibrateLockElision(const ir::Module &module,
                     const inv::InvariantSet &invariants,
                     const analysis::StaticRaceResult &sound,
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
        dyn::hybridFastTrackPlan(module, sound.racyAccesses);

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
    result.soundStaticSeconds = cost.staticSeconds(sound.workUnits);
    result.predStaticSeconds = cost.staticSeconds(predicated.workUnits);
    result.staticallyRaceFree = sound.racyAccesses.empty();
    result.soundRacyAccesses = sound.racyAccesses.size();
    result.predRacyAccesses = predicated.racyAccesses.size();

    // ---- Phase 2b: no-custom-sync calibration -------------------------
    // Every elision round runs each calibration input once, live.
    const std::size_t calibRuns = std::min(
        config.customSyncCalibrationRuns, workload.profilingSet.size());
    Calibration calibration = calibrateLockElision(
        module, invariants, sound, predicated, workload, calibRuns,
        config.threads, profiled.runSteps);
    invariants.elidableLockSites = std::move(calibration.elided);
    result.elidedLockSites = invariants.elidableLockSites.size();
    // Calibration executions count as profiling cost, priced at their
    // uninstrumented step counts: calibration.steps come from the sound
    // runs, which carry no checker and so always run to completion (or,
    // with nothing to validate, from profiling or tool-free runs).
    result.profileSeconds = cost.profileSeconds(
        double(profiled.profiledSteps) + 2.0 * double(calibration.steps));

    // ---- Phase 3: dynamic analysis over the testing corpus ------------
    const auto hybridPlan =
        dyn::hybridFastTrackPlan(module, sound.racyAccesses);
    exec::InstrumentationPlan optPlan = dyn::optimisticFastTrackPlan(
        module, predicatedSp->racyAccesses, invariants);

    dyn::CheckerConfig checkerConfig;
    checkerConfig.callContexts = false;

    const std::size_t numTests = workload.testingSet.size();

    // Judge one optimistic run under the current invariants.
    auto judge = [&](FtRun run, const dyn::InvariantChecker &checker) {
        SpeculativeEval<FtRun> eval;
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

    // Reference runs.  Hybrid FastTrack does not depend on the
    // speculative plan, so it is evaluated once per input up front; its
    // result doubles as the deterministic rollback re-analysis
    // (identical by determinism), as the degraded configuration once
    // the circuit breaker trips, and as the reference race set.  One
    // live run per input serves the reference and the first adaptive
    // round together: hybrid and optimistic FastTrack (with its
    // checker) are two attachment groups, so the checker's abort stops
    // only the optimistic configuration.
    auto fused = support::runBatch(
        numTests,
        [&](std::size_t i) {
            dyn::InvariantChecker checker(module, invariants, checkerConfig);
            std::vector<FtRun> runs =
                runFastTracks(module, workload.testingSet[i],
                              {{&hybridPlan}, {&optPlan, &checker}});
            std::vector<SpeculativeEval<FtRun>> opt;
            opt.push_back(judge(std::move(runs[1]), checker));
            return std::pair{std::move(runs[0]), std::move(opt)};
        },
        config.threads);
    std::vector<FtRun> refs;
    refs.reserve(numTests);
    std::vector<std::vector<SpeculativeEval<FtRun>>> firstRound;
    for (auto &[ref, opt] : fused) {
        refs.push_back(std::move(ref));
        firstRound.push_back(std::move(opt));
    }

    // Speculative runs, in adaptive rounds (runAdaptiveRounds), one
    // task per input.  The first round came out of the fused reference
    // pass; repair rounds run only the optimistic configuration.
    const std::vector<SpeculativeEval<FtRun>> opts = runAdaptiveRounds(
        config, numTests, /*endpoints=*/1, std::move(firstRound),
        invariants,
        [&](std::size_t i, std::size_t) {
            dyn::InvariantChecker checker(module, invariants, checkerConfig);
            std::vector<SpeculativeEval<FtRun>> evals;
            evals.push_back(
                judge(std::move(runFastTracks(module, workload.testingSet[i],
                                              {{&optPlan, &checker}})[0]),
                      checker));
            return evals;
        },
        [&](const dyn::Violation &violation) {
            double seconds = 0;
            if (violation.family != dyn::ViolationFamily::ElidedLockRace) {
                // Re-predicate on the repaired invariants.  The memo
                // keys on the invariant text, so repeated repairs of
                // converging sets are incremental in practice.
                predicatedSp = analysis::runStaticRaceDetectorMemo(
                    workload.module, &invariants);
                seconds = cost.staticSeconds(predicatedSp->workUnits);
                invariants.elidableLockSites = refilterElidableLocks(
                    workload.module, invariants, *predicatedSp);
            }
            optPlan = dyn::optimisticFastTrackPlan(
                module, predicatedSp->racyAccesses, invariants);
            return seconds;
        },
        [&](std::size_t i) -> const FtRun & { return refs[i]; },
        result);

    // Fold the outcomes serially in input-index order, so
    // accumulation — including floating-point cost sums — is
    // identical for any thread count.
    std::set<std::pair<InstrId, InstrId>> allRaces;
    for (std::size_t i = 0; i < numTests; ++i) {
        const FtRun &hybrid = refs[i];
        const SpeculativeEval<FtRun> &opt = opts[i];
        // Full FastTrack is priced, not run: its plan instruments every
        // load, store and synchronization op, so its tool would be
        // delivered exactly the run's totalEvents of those classes, and
        // it would report the hybrid run's races, since the sound
        // static detector keeps every access that can race.
        result.fastTrack.add(priceFastTrackRun(cost, hybrid.result,
                                               hybrid.result.totalEvents));
        allRaces.insert(hybrid.races.begin(), hybrid.races.end());

        const RunCost hybridCost =
            priceFastTrackRun(cost, hybrid.result, hybrid.ftDelivered);
        result.hybridFt.add(hybridCost);

        RunCost optCost = priceFastTrackRun(
            cost, opt.optimistic.result, opt.optimistic.ftDelivered,
            &opt.optimistic.checkerDelivered, opt.optimistic.slowChecks);
        RacePairs finalRaces = opt.optimistic.races;
        if (opt.rolledBack) {
            ++result.misSpeculations;
            // Roll back: deterministic re-analysis under the sound
            // hybrid configuration (Section 2.3) — identical to the
            // hybrid reference by determinism, so reuse it.
            optCost.rollback = hybridCost.total();
            finalRaces = hybrid.races;
        }
        result.optFt.add(optCost);
        if (finalRaces != hybrid.races)
            result.raceReportsMatch = false;

        // The fused run is step-identical to the hybrid run, which
        // carries no checker and so never aborts.
        result.interpretedSteps += hybrid.result.steps;
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
