#include "core/optslice.h"

#include <algorithm>
#include <optional>

#include "analysis/andersen_cache.h"
#include "analysis/constraint_diff.h"
#include "core/recovery.h"
#include "dyn/giri.h"
#include "dyn/invariant_checker.h"
#include "dyn/plans.h"
#include "exec/trace.h"
#include "exec/trace_cache.h"
#include "profile/observation_cache.h"
#include "profile/profiler.h"
#include "support/thread_pool.h"

namespace oha::core {

namespace {

/** Points-to analysis picked CS-first within budget (a Table 2 AT). */
struct PickedAndersen
{
    /** Memoized (possibly shared) result; never mutated. */
    std::shared_ptr<const analysis::AndersenResult> result;
    AnalysisPick pick;
    /** Work burnt on a CS attempt that blew the context budget,
     *  charged to this pick's cost on top of the fallback's units. */
    std::uint64_t wastedUnits = 0;
};

PickedAndersen
pickAndersen(const std::shared_ptr<const ir::Module> &module,
             const inv::InvariantSet *invariants,
             const OptSliceConfig &config)
{
    analysis::AndersenOptions options;
    options.contextSensitive = true;
    options.invariants = invariants;
    options.maxContexts = config.csContextBudget;
    options.solverThreads = config.solverThreads;

    PickedAndersen picked;
    picked.result = analysis::runAndersenMemo(module, options);
    if (picked.result->completed) {
        picked.pick.contextSensitive = true;
    } else {
        // CS exhausted the budget: fall back to CI (Table 2's "most
        // accurate analysis that will run").
        picked.wastedUnits = picked.result->workUnits;
        options.contextSensitive = false;
        picked.result = analysis::runAndersenMemo(module, options);
        picked.pick.contextSensitive = false;
    }
    picked.pick.seconds =
        double(picked.result->workUnits + picked.wastedUnits) /
        config.cost.staticUnitsPerSecond;
    return picked;
}

/** All Output instructions of the module. */
std::vector<InstrId>
outputInstrs(const ir::Module &module)
{
    std::vector<InstrId> out;
    for (InstrId id = 0; id < module.numInstrs(); ++id)
        if (module.instr(id).op == ir::Opcode::Output)
            out.push_back(id);
    return out;
}

/**
 * Compute static slices for @p endpoints with fallback: try the
 * picked (possibly CS) points-to result; if any slice blows the work
 * budget, retry context-insensitively.  An incomplete static slice
 * must never become an instrumentation plan — it is not closed, so
 * the dynamic slicer would silently lose dependencies.
 *
 * Memoized through the static-result cache: sweep points that rebuild
 * the same (module, invariants, endpoints) slicing task — Figure 8
 * re-runs the whole static phase per profiling-run count — reuse the
 * stored slice sets.  The stored workUnits are the deterministic cost
 * of the one real computation.
 */
std::shared_ptr<const analysis::SliceSetResult>
computeAllSlices(const std::shared_ptr<const ir::Module> &module,
                 const std::vector<InstrId> &endpoints,
                 const inv::InvariantSet *invariants,
                 const OptSliceConfig &config,
                 const analysis::AndersenResult &picked, bool pickedCs)
{
    // Everything that can change the output beyond (module,
    // invariants, endpoints): the per-slice work budget and the
    // analysis level of the picked points-to result.
    const std::uint64_t configKey =
        config.sliceWorkBudget ^ (pickedCs ? 1ull << 63 : 0);

    auto compute = [&]() {
        analysis::SliceSetResult out;

        analysis::SlicerOptions options;
        options.invariants = invariants;
        options.maxWork = config.sliceWorkBudget;

        // Endpoints slice independently; compute them batched, then
        // fold work accounting in endpoint order, stopping at the
        // first incomplete slice — exactly the serial early-exit
        // accounting, so reported static-phase costs are thread-count
        // invariant.
        auto attempt = [&](const analysis::AndersenResult &pts) {
            const analysis::StaticSlicer slicer(*module, pts, options);
            auto sliceResults = support::runBatch(
                endpoints.size(),
                [&](std::size_t e) { return slicer.slice(endpoints[e]); },
                config.threads);
            std::vector<std::set<InstrId>> slices;
            for (auto &slice : sliceResults) {
                out.workUnits += slice.workUnits;
                if (!slice.completed)
                    return false;
                slices.push_back(std::move(slice.instructions));
            }
            out.slices = std::move(slices);
            return true;
        };

        if (attempt(picked)) {
            out.contextSensitive = pickedCs;
            out.complete = true;
            return out;
        }
        if (pickedCs) {
            analysis::AndersenOptions ciOptions;
            ciOptions.invariants = invariants;
            ciOptions.solverThreads = config.solverThreads;
            const std::shared_ptr<const analysis::AndersenResult> ciPts =
                analysis::runAndersenMemo(module, ciOptions);
            out.workUnits += ciPts->workUnits;
            if (attempt(*ciPts)) {
                out.contextSensitive = false;
                out.complete = true;
                return out;
            }
        }
        // Static slicing failed entirely: the caller must fall back
        // to full instrumentation (pure Giri).
        out.slices.assign(endpoints.size(), {});
        return out;
    };

    // Per-endpoint lineage patching: when the cache holds the slice
    // set of an ancestor version of this module, endpoints whose base
    // slice the edit cannot reach keep it (translated across
    // versions); only the rest are re-sliced.  A translated slice is
    // exact, not conservative: all its instructions live in clean
    // functions (equal points-to nodes, identical bodies), so every
    // dependence edge among them is version-stable, and the closure
    // cannot have grown — growth would need a slice load newly
    // aliasing a store in a dirty function, which the
    // dirty-store-cells intersection check rules out.
    auto incremental = [&](const analysis::SliceLineageBase &base)
        -> std::optional<analysis::SliceSetResult> {
        const analysis::ConstraintDiff &diff = *base.diff;
        const analysis::SliceSetResult &bs = *base.slices;
        // Only a complete base set at the same analysis level is a
        // usable patch base; CS slices additionally need a stable
        // cross-version context identity.
        if (!bs.complete || bs.contextSensitive != pickedCs)
            return std::nullopt;
        if (pickedCs && diff.hasCallContextsEither)
            return std::nullopt;
        if (bs.endpoints.size() != bs.slices.size())
            return std::nullopt;
        analysis::AndersenOptions baseOptions;
        baseOptions.contextSensitive = pickedCs;
        baseOptions.invariants = base.invariants.get();
        baseOptions.solverThreads = config.solverThreads;
        const std::shared_ptr<const analysis::AndersenResult> basePts =
            analysis::runAndersenMemo(base.module, baseOptions);
        if (!basePts->completed || !picked.completed)
            return std::nullopt;

        const analysis::VersionMap vmap =
            analysis::buildVersionMap(*base.module, *module);
        const std::vector<bool> dirty = analysis::unionDirtyClosure(
            *base.module, *basePts, *module, picked, diff,
            base.invariants.get(), invariants);

        SparseBitSet dirtyStoreCells;
        for (InstrId id = 0; id < module->numInstrs(); ++id) {
            const ir::Instruction &ins = module->instr(id);
            if (ins.op == ir::Opcode::Store && dirty[ins.func])
                dirtyStoreCells.unionWith(picked.pointerTargets(id));
        }

        std::map<InstrId, std::size_t> baseIndexOfEndpoint;
        for (std::size_t i = 0; i < bs.endpoints.size(); ++i) {
            const InstrId mapped = vmap.instrMap[bs.endpoints[i]];
            if (mapped != kNoInstr)
                baseIndexOfEndpoint[mapped] = i;
        }

        analysis::SliceSetResult out;
        out.contextSensitive = pickedCs;
        out.complete = true;
        out.slices.resize(endpoints.size());
        analysis::SlicerOptions options;
        options.invariants = invariants;
        options.maxWork = config.sliceWorkBudget;
        const analysis::StaticSlicer slicer(*module, picked, options);
        for (std::size_t e = 0; e < endpoints.size(); ++e) {
            std::set<InstrId> translated;
            bool reusable = false;
            const auto at = baseIndexOfEndpoint.find(endpoints[e]);
            if (at != baseIndexOfEndpoint.end()) {
                reusable = true;
                for (const InstrId bid : bs.slices[at->second]) {
                    const InstrId nid = vmap.instrMap[bid];
                    if (nid == kNoInstr ||
                        dirty[module->instr(nid).func] ||
                        (module->instr(nid).op == ir::Opcode::Load &&
                         picked.pointerTargets(nid).intersects(
                             dirtyStoreCells))) {
                        reusable = false;
                        break;
                    }
                    translated.insert(nid);
                }
            }
            if (reusable) {
                out.workUnits += translated.size();
                out.slices[e] = std::move(translated);
                continue;
            }
            analysis::StaticSliceResult fresh =
                slicer.slice(endpoints[e]);
            out.workUnits += fresh.workUnits;
            // Budget blown: bail out to compute()'s full fallback
            // ladder (CI retry, then pure-Giri surrender).
            if (!fresh.completed)
                return std::nullopt;
            out.slices[e] = std::move(fresh.instructions);
        }
        return out;
    };
    return analysis::sliceSetMemo(module, invariants, configKey,
                                  endpoints, compute, incremental);
}

struct GiriRun
{
    exec::RunResult result;
    std::map<InstrId, std::set<InstrId>> slices;
    exec::EventCounts delivered;
    exec::EventCounts checkerDelivered;
    std::uint64_t slowChecks = 0;
    bool violated = false;
    std::uint64_t missingDeps = 0;
};

/** Read one endpoint's slicing outcome off its tool; @p result is
 *  the tool's group result, narrowed to the tool's own delivery
 *  counts (the checker's, if any, are @p checkerDelivered). */
GiriRun
collectGiriRun(const exec::RunResult &result,
               const exec::EventCounts &delivered,
               const dyn::GiriSlicer &tool, InstrId endpoint,
               const dyn::InvariantChecker *checker,
               const exec::EventCounts &checkerDelivered)
{
    GiriRun out;
    out.result = result;
    out.result.delivered = {delivered};
    if (checker)
        out.result.delivered.push_back(checkerDelivered);
    out.slices[endpoint] = tool.slice(endpoint);
    out.delivered = delivered;
    if (checker) {
        out.checkerDelivered = checkerDelivered;
        out.slowChecks = checker->slowContextChecks();
        out.violated = checker->violated();
    }
    out.missingDeps = tool.missingDependencies();
    return out;
}

/** Run one execution with a Giri tool under @p plan, slicing back
 *  from @p endpoint. */
GiriRun
runGiri(const ir::Module &module, const exec::ExecConfig &config,
        const exec::InstrumentationPlan &plan, InstrId endpoint,
        dyn::InvariantChecker *checker = nullptr)
{
    dyn::GiriSlicer tool(module);
    exec::Interpreter interp(module, config);
    interp.attach(&tool, &plan);
    if (checker) {
        checker->setControl(&interp);
        interp.attach(checker, &checker->plan());
    }
    const exec::RunResult result = interp.run();
    return collectGiriRun(result, result.delivered[0], tool, endpoint,
                          checker, checker ? result.delivered[1]
                                           : exec::EventCounts{});
}

/** Same slicing run, driven from a recorded trace instead of a live
 *  interpreter (record-once/analyze-many).  Byte-identical results.
 *  The trace is read-only, so many tasks may replay it concurrently. */
GiriRun
replayGiri(const ir::Module &module, const exec::RecordedTrace &trace,
           const exec::InstrumentationPlan &plan, InstrId endpoint,
           dyn::InvariantChecker *checker)
{
    dyn::GiriSlicer tool(module);
    exec::TraceReplayer replayer(module, trace);
    replayer.attach(&tool, &plan);
    checker->setControl(&replayer);
    replayer.attach(checker, &checker->plan());
    const exec::RunResult result = replayer.run();
    return collectGiriRun(result, result.delivered[0], tool, endpoint,
                          checker, result.delivered[1]);
}

} // namespace

OptSliceResult
runOptSlice(const workloads::Workload &workload,
            const OptSliceConfig &config)
{
    OHA_ASSERT(!workload.race, "runOptSlice needs a slicing workload");
    const ir::Module &module = *workload.module;
    const CostModel &cost = config.cost;

    OptSliceResult result;
    result.name = workload.name;

    // ---- Phase 1: profiling -------------------------------------------
    prof::ProfileOptions profOptions;
    profOptions.callContexts = true;
    profOptions.threads = config.threads;
    prof::ProfilingCampaign campaign(module, profOptions);
    prof::Observer observer;
    if (config.cacheProfileObservations)
        observer = [&](const exec::ExecConfig &input) {
            return prof::observeRunMemo(workload.module, profOptions,
                                        input);
        };
    campaign.addRunsUntilConverged(workload.profilingSet,
                                   config.maxProfileRuns,
                                   config.convergenceWindow, observer);
    inv::InvariantSet invariants =
        config.aggressiveLucMinVisits > 1
            ? campaign.invariantsWithAggressiveLuc(
                  config.aggressiveLucMinVisits)
            : campaign.invariants();
    result.profileRunsUsed = campaign.numRuns();
    result.profileSeconds = double(campaign.profiledSteps()) *
                            cost.profilingOverhead / cost.unitsPerSecond * cost.offlineScale;

    // ---- Phase 1b: optional fault injection ---------------------------
    // Perturb the profiled invariants so the testing corpus provably
    // mis-speculates (tests, CI seed sweeps).  Only the families the
    // OptSlice checker configuration watches are injectable here: lock
    // and spawn invariants are race-detection machinery the slicing
    // checker never arms (guardingLocks/singletonThreads below).
    if (config.faultSeed != 0) {
        dyn::FaultInjectorOptions injectOptions;
        injectOptions.seed = config.faultSeed;
        injectOptions.families = {dyn::ViolationFamily::UnreachableBlock,
                                  dyn::ViolationFamily::CalleeSet,
                                  dyn::ViolationFamily::CallContext};
        const dyn::FaultInjector injector(module, injectOptions);
        result.injectedFaults =
            injector.inject(invariants, workload.testingSet);
    }

    // ---- Phase 2: static analyses --------------------------------------
    // The sound and predicated configurations are independent solves;
    // run them concurrently (results are collected in index order, so
    // the reported picks are thread-count invariant).
    const std::shared_ptr<const ir::Module> moduleSp = workload.module;
    std::vector<PickedAndersen> picks = support::runBatch(
        2,
        [&](std::size_t i) {
            return pickAndersen(moduleSp, i == 0 ? nullptr : &invariants,
                                config);
        },
        config.threads);
    PickedAndersen &soundPts = picks[0];
    PickedAndersen &optPts = picks[1];
    result.soundPts = soundPts.pick;
    result.optPts = optPts.pick;

    // ---- Phase 3: endpoint selection ------------------------------------
    // Rank candidate endpoints by (cheap) CI sound slice size and keep
    // the non-trivial ones (Section 6.1.2).
    std::vector<InstrId> endpoints;
    {
        std::shared_ptr<const analysis::AndersenResult> ciPts;
        const analysis::AndersenResult *rankPts = soundPts.result.get();
        if (soundPts.pick.contextSensitive) {
            // The memo serves the CI pre-pass of the sound CS solve
            // back instead of solving again.
            ciPts = analysis::runAndersenMemo(moduleSp, {});
            rankPts = ciPts.get();
        }
        analysis::SlicerOptions rankOptions;
        rankOptions.maxWork = config.sliceWorkBudget;
        const analysis::StaticSlicer ranker(module, *rankPts,
                                            rankOptions);
        const std::vector<InstrId> outputs = outputInstrs(module);
        const std::vector<std::size_t> sizes = support::runBatch(
            outputs.size(),
            [&](std::size_t i) {
                return ranker.slice(outputs[i]).instructions.size();
            },
            config.threads);
        std::vector<std::pair<std::size_t, InstrId>> candidates;
        for (std::size_t i = 0; i < outputs.size(); ++i)
            candidates.push_back({sizes[i], outputs[i]});
        std::sort(candidates.rbegin(), candidates.rend());
        for (const auto &[size, endpoint] : candidates) {
            if (endpoints.size() >= config.maxEndpoints)
                break;
            if (size >= config.minSliceSize || endpoints.empty())
                endpoints.push_back(endpoint);
        }
    }

    // Per-endpoint static slices with CS -> CI fallback; incomplete
    // slices must never be used as instrumentation plans.
    const std::shared_ptr<const analysis::SliceSetResult> soundSlicesSp =
        computeAllSlices(moduleSp, endpoints, nullptr, config,
                         *soundPts.result,
                         soundPts.pick.contextSensitive);
    const std::shared_ptr<const analysis::SliceSetResult> optSlicesSp =
        computeAllSlices(moduleSp, endpoints, &invariants, config,
                         *optPts.result, optPts.pick.contextSensitive);
    const analysis::SliceSetResult &soundSlices = *soundSlicesSp;
    const analysis::SliceSetResult &optSlices = *optSlicesSp;
    result.soundSlice.contextSensitive = soundSlices.contextSensitive;
    result.optSlice.contextSensitive = optSlices.contextSensitive;
    result.soundSlice.seconds =
        double(soundSlices.workUnits) / cost.staticUnitsPerSecond * cost.offlineScale;
    result.optSlice.seconds =
        double(optSlices.workUnits) / cost.staticUnitsPerSecond * cost.offlineScale;

    std::vector<exec::InstrumentationPlan> hybridPlans, optPlans;
    double soundSizeSum = 0, optSizeSum = 0;
    for (std::size_t e = 0; e < endpoints.size(); ++e) {
        hybridPlans.push_back(
            soundSlices.complete
                ? dyn::sliceGiriPlan(module, soundSlices.slices[e])
                : dyn::fullGiriPlan(module));
        optPlans.push_back(
            optSlices.complete
                ? dyn::sliceGiriPlan(module, optSlices.slices[e])
                : dyn::fullGiriPlan(module));
        soundSizeSum += double(soundSlices.slices[e].size());
        optSizeSum += double(optSlices.slices[e].size());
    }
    result.endpoints = endpoints.size();
    result.soundSliceSize = soundSizeSum / double(endpoints.size());
    result.optSliceSize = optSizeSum / double(endpoints.size());

    result.soundAliasRate =
        soundPts.result->aliasRate(module, &invariants);
    result.optAliasRate = optPts.result->aliasRate(module, &invariants);

    // ---- Phase 4: dynamic slicing over the testing corpus ---------------
    dyn::CheckerConfig checkerConfig;
    checkerConfig.callContexts = invariants.hasCallContexts;
    checkerConfig.guardingLocks = false;
    checkerConfig.singletonThreads = false;

    // Record-once mode: capture every testing input's trace exactly
    // once, up front.  The traces are immutable afterwards, so the
    // per-(input, endpoint) tasks below replay them concurrently
    // without synchronization.  With cacheTraceCaptures the captures
    // come from (and feed) the shared cross-request cache, so a warm
    // service request skips even the one recording execution.
    std::vector<std::shared_ptr<const exec::RecordedTrace>> traces;
    if (config.useTraceReplay) {
        traces = support::runBatch(
            workload.testingSet.size(),
            [&](std::size_t i) {
                return config.cacheTraceCaptures
                           ? exec::recordRunMemo(moduleSp,
                                                 workload.testingSet[i])
                           : std::make_shared<const exec::RecordedTrace>(
                                 exec::recordRun(module,
                                                 workload.testingSet[i]));
            },
            config.threads);
    }

    // Every (testing input, endpoint) pair is an independent slicing
    // task, ordered input-major.  The hybrid references do not depend
    // on the speculative plans, so they are evaluated once per task up
    // front; each reference doubles as the deterministic rollback
    // re-analysis and as the degraded configuration once the circuit
    // breaker trips.
    const std::size_t numEndpoints = endpoints.size();
    const std::size_t tasks = workload.testingSet.size() * numEndpoints;
    struct OptEval
    {
        GiriRun optimistic;
        bool rolledBack = false;
        bool degraded = false;
        dyn::Violation violation;
    };
    auto judge = [](GiriRun run, const dyn::InvariantChecker &checker) {
        OptEval eval;
        eval.optimistic = std::move(run);
        if (eval.optimistic.violated) {
            eval.rolledBack = true;
            eval.violation = checker.violation();
        }
        return eval;
    };

    // In record-once mode each input's capture is decoded once for
    // the references and the first adaptive round together: the
    // endpoints' hybrid Giri tools stay in group 0, and one group
    // holds every endpoint's optimistic Giri tool plus a single
    // checker.  The checker depends only on the invariants, so its
    // verdict and truncation point are those of every per-endpoint
    // optimistic run; the group result is field-identical to each.
    std::vector<GiriRun> refs;
    std::vector<OptEval> firstRound;
    if (config.useTraceReplay) {
        refs.reserve(tasks);
        firstRound.reserve(tasks);
        // Two tools per endpoint plus the checker must fit one
        // replay's dispatch masks; wider endpoint sets take several
        // passes.
        constexpr std::size_t kEndpointsPerPass =
            (exec::TraceReplayer::kMaxAttachments - 1) / 2;
        const std::size_t passes =
            (numEndpoints + kEndpointsPerPass - 1) / kEndpointsPerPass;
        std::vector<std::vector<std::pair<GiriRun, OptEval>>> jobs =
            support::runBatch(
                workload.testingSet.size() * passes,
                [&](std::size_t job) {
                    const std::size_t input = job / passes;
                    const std::size_t first =
                        job % passes * kEndpointsPerPass;
                    const std::size_t count =
                        std::min(kEndpointsPerPass, numEndpoints - first);
                    exec::TraceReplayer replayer(module, *traces[input]);
                    std::vector<std::unique_ptr<dyn::GiriSlicer>> hybrid,
                        opt;
                    for (std::size_t e = 0; e < count; ++e) {
                        hybrid.push_back(
                            std::make_unique<dyn::GiriSlicer>(module));
                        replayer.attach(hybrid.back().get(),
                                        &hybridPlans[first + e]);
                    }
                    const exec::TraceReplayer::GroupId optGroup =
                        replayer.addGroup();
                    dyn::InvariantChecker checker(module, invariants,
                                                  checkerConfig);
                    for (std::size_t e = 0; e < count; ++e) {
                        opt.push_back(
                            std::make_unique<dyn::GiriSlicer>(module));
                        replayer.attach(optGroup, opt.back().get(),
                                        &optPlans[first + e]);
                    }
                    checker.setControl(&replayer.control(optGroup));
                    replayer.attach(optGroup, &checker, &checker.plan());
                    const std::vector<exec::RunResult> results =
                        replayer.runGroups();
                    std::vector<std::pair<GiriRun, OptEval>> out;
                    for (std::size_t e = 0; e < count; ++e) {
                        const InstrId endpoint = endpoints[first + e];
                        out.emplace_back(
                            collectGiriRun(results[0],
                                           results[0].delivered[e],
                                           *hybrid[e], endpoint, nullptr,
                                           {}),
                            judge(collectGiriRun(
                                      results[1], results[1].delivered[e],
                                      *opt[e], endpoint, &checker,
                                      results[1].delivered[count]),
                                  checker));
                    }
                    return out;
                },
                config.threads);
        // Jobs run input-major, passes in endpoint order: appending
        // their runs in job order yields task order.
        for (auto &job : jobs) {
            for (auto &[ref, opt] : job) {
                refs.push_back(std::move(ref));
                firstRound.push_back(std::move(opt));
            }
        }
    } else {
        refs = support::runBatch(
            tasks,
            [&](std::size_t task) {
                const std::size_t e = task % numEndpoints;
                return runGiri(module,
                               workload.testingSet[task / numEndpoints],
                               hybridPlans[e], endpoints[e]);
            },
            config.threads);
    }

    // Speculative runs, in adaptive rounds (same repair loop as
    // runOptFt): batch the remaining tasks under the current
    // optimistic plans, scan serially in task order, and at the first
    // rollback demote the lying invariant, re-run the predicated
    // points-to + slicing phase through the memo caches, rebuild the
    // per-endpoint plans, and restart at the following task.  Later
    // same-round evaluations are discarded, so results equal the
    // serial repair loop at any thread count.  In record-once mode the
    // first round came out of the fused reference pass.
    std::vector<OptEval> opts(tasks);
    const RecoveryBreaker breaker{config.maxRepredications,
                                  config.misspecRateThreshold,
                                  config.minRunsForMisspecRate};
    std::uint64_t rollbacksSeen = 0;
    bool degraded = false;
    std::size_t next = 0;
    while (next < tasks) {
        if (degraded) {
            // Sound fallback: the rest of the corpus runs the hybrid
            // plans (no speculation, no checker).  By determinism that
            // evaluation is identical to the hybrid reference.
            for (std::size_t task = next; task < tasks; ++task) {
                opts[task].optimistic = refs[task];
                opts[task].degraded = true;
            }
            break;
        }
        const std::size_t start = next;
        const std::vector<OptEval> round =
            start == 0 && config.useTraceReplay
                ? std::move(firstRound)
                : support::runBatch(
                      tasks - start,
                      [&](std::size_t k) {
                          const std::size_t task = start + k;
                          const std::size_t input = task / numEndpoints;
                          const std::size_t e = task % numEndpoints;
                          dyn::InvariantChecker checker(module, invariants,
                                                        checkerConfig);
                          GiriRun run =
                              config.useTraceReplay
                                  ? replayGiri(module, *traces[input],
                                               optPlans[e], endpoints[e],
                                               &checker)
                                  : runGiri(module,
                                            workload.testingSet[input],
                                            optPlans[e], endpoints[e],
                                            &checker);
                          return judge(std::move(run), checker);
                      },
                      config.threads);

        next = tasks;
        for (std::size_t k = 0; k < round.size(); ++k) {
            const std::size_t task = start + k;
            opts[task] = round[k];
            if (!opts[task].rolledBack)
                continue;
            ++rollbacksSeen;
            if (!config.adaptiveRecovery)
                continue; // historical behavior: plans never change
            const dyn::Violation &violation = opts[task].violation;
            if (breaker.tripped(result.repredications, rollbacksSeen,
                                task + 1)) {
                degraded = true;
                result.circuitBroken = true;
            } else if (!invariants.demote(violation)) {
                // Defensive: an unrepairable violation must degrade
                // rather than spin.
                degraded = true;
                result.circuitBroken = true;
            } else {
                result.demotions.push_back(violation);
                ++result.repredications;
                // Re-predicate points-to and slicing on the repaired
                // invariants; both routes are memoized, so repeated
                // repairs of converging sets are incremental.
                const PickedAndersen repredPts =
                    pickAndersen(moduleSp, &invariants, config);
                const std::shared_ptr<const analysis::SliceSetResult>
                    repredSlices = computeAllSlices(
                        moduleSp, endpoints, &invariants, config,
                        *repredPts.result,
                        repredPts.pick.contextSensitive);
                result.repredStaticSeconds +=
                    repredPts.pick.seconds +
                    double(repredSlices->workUnits) /
                        cost.staticUnitsPerSecond * cost.offlineScale;
                for (std::size_t e = 0; e < endpoints.size(); ++e) {
                    optPlans[e] =
                        repredSlices->complete
                            ? dyn::sliceGiriPlan(module,
                                                 repredSlices->slices[e])
                            : dyn::fullGiriPlan(module);
                }
            }
            next = task + 1; // discard this round's later evaluations
            break;
        }
    }

    // In record-once mode each input's interpreter work happened once,
    // at capture time, regardless of how many endpoint tasks share it.
    if (config.useTraceReplay) {
        for (const auto &trace : traces)
            result.interpretedSteps += trace->result.steps;
    }

    // Fold serially in task order, so cost accumulation — including
    // floating-point sums — is identical for any thread count.
    for (std::size_t task = 0; task < tasks; ++task) {
        const GiriRun &hybrid = refs[task];
        const OptEval &opt = opts[task];
        result.hybrid.add(
            priceGiriRun(cost, hybrid.result, hybrid.delivered));

        RunCost optCost = priceGiriRun(cost, opt.optimistic.result,
                                       opt.optimistic.delivered,
                                       &opt.optimistic.checkerDelivered,
                                       opt.optimistic.slowChecks);
        const std::map<InstrId, std::set<InstrId>> &finalSlices =
            opt.rolledBack ? hybrid.slices : opt.optimistic.slices;
        if (opt.rolledBack) {
            ++result.misSpeculations;
            // Roll back: deterministic re-analysis under the sound
            // hybrid plan — identical to the hybrid reference by
            // determinism, so reuse it.
            optCost.rollback =
                priceGiriRun(cost, hybrid.result, hybrid.delivered)
                    .total();
            // Additive metric; hybrid.result is identical in both
            // modes, so it stays parity-comparable.
            result.replayRollbackSeconds +=
                priceTraceReplaySeconds(cost, hybrid.result);
        }
        result.optimistic.add(optCost);

        if (config.useTraceReplay) {
            result.replayedEvents +=
                hybrid.result.totalEvents.total() +
                opt.optimistic.result.totalEvents.total();
        } else {
            result.interpretedSteps += hybrid.result.steps +
                                       opt.optimistic.result.steps;
            if (opt.rolledBack)
                result.interpretedSteps += hybrid.result.steps;
        }

        // Soundness: the recovered optimistic slice must equal the
        // traditional hybrid slice.
        if (finalSlices != hybrid.slices)
            result.sliceResultsMatch = false;
    }

    // One modeled capture per testing input.  The hybrid run's steps
    // and event totals are plan-independent, so this prices the same
    // in either mode (the first endpoint task of each input stands in
    // for the input's execution).
    if (!endpoints.empty()) {
        for (std::size_t i = 0; i < workload.testingSet.size(); ++i) {
            result.recordSeconds += priceTraceRecordSeconds(
                cost, refs[i * endpoints.size()].result);
        }
    }

    result.testRuns = workload.testingSet.size();
    result.baselineSeconds = result.hybrid.base / cost.unitsPerSecond;

    const double normHybrid = result.hybrid.normalized();
    const double normOpt = result.optimistic.normalized();
    if (normOpt > 0)
        result.dynSpeedup = normHybrid / normOpt;

    const double upfrontOpt = result.profileSeconds +
                              result.optPts.seconds +
                              result.optSlice.seconds;
    const double upfrontHybrid =
        result.soundPts.seconds + result.soundSlice.seconds;
    if (normHybrid > normOpt) {
        result.breakEven = std::max(
            0.0, (upfrontOpt - upfrontHybrid) / (normHybrid - normOpt));
    } else {
        result.breakEven = -1.0;
    }

    return result;
}

} // namespace oha::core
