#include "core/optslice.h"

#include <algorithm>
#include <iterator>

#include "analysis/andersen_cache.h"
#include "core/recovery.h"
#include "dyn/giri.h"
#include "dyn/invariant_checker.h"
#include "dyn/plans.h"
#include "exec/interpreter.h"
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

    return analysis::sliceSetMemo(module, invariants, configKey,
                                  endpoints, compute);
}

/** One endpoint's slicing outcome under one configuration. */
struct GiriRun
{
    /** The run of the endpoint's attachment group (shared by every
     *  endpoint read off the same graph). */
    exec::RunResult result;
    std::set<InstrId> slice;
    /** The slice reached entries outside the endpoint's own plan. */
    bool escaped = false;
    exec::EventCounts delivered;
    exec::EventCounts checkerDelivered;
    std::uint64_t slowChecks = 0;
    bool violated = false;
};

/** The union of @p plans[first..]: one Giri graph attached under it
 *  serves every endpoint from @p first on. */
exec::InstrumentationPlan
unionPlan(const ir::Module &module,
          const std::vector<exec::InstrumentationPlan> &plans,
          std::size_t first)
{
    auto plan = exec::InstrumentationPlan::none(module);
    for (InstrId id = 0; id < module.numInstrs(); ++id) {
        for (std::size_t e = first; e < plans.size(); ++e) {
            if (plans[e].coversInstr(id)) {
                plan.setInstr(id, true);
                break;
            }
        }
    }
    return plan;
}

/**
 * Read endpoints [@p first, E) off @p graph, built under the union of
 * their @p plans: each endpoint's slice is the closure from its Output
 * entries, and its delivered counts are the entries its own plan
 * covers.  The optimistic graph shares its group with @p checker; the
 * hybrid graph has none, and since a sound slice is closed on every
 * execution, an escape from a hybrid plan is a static-analysis bug.
 */
std::vector<GiriRun>
readUnionGraph(const exec::RunResult &result, const dyn::GiriSlicer &graph,
               const std::vector<InstrId> &endpoints,
               const std::vector<exec::InstrumentationPlan> &plans,
               std::size_t first, const dyn::InvariantChecker *checker)
{
    std::vector<const exec::InstrumentationPlan *> own;
    for (std::size_t e = first; e < plans.size(); ++e)
        own.push_back(&plans[e]);
    const std::vector<exec::EventCounts> delivered = graph.entriesUnder(own);
    std::vector<GiriRun> out(own.size());
    for (std::size_t k = 0; k < own.size(); ++k) {
        GiriRun &run = out[k];
        run.result = result;
        dyn::GiriSlicer::EndpointSlice slice =
            graph.slice(endpoints[first + k], *own[k]);
        OHA_ASSERT(checker || slice.escapes == 0,
                   "a sound slice plan is not dynamically closed");
        run.slice = std::move(slice.instrs);
        run.escaped = slice.escapes != 0;
        run.delivered = delivered[k];
        if (checker) {
            run.checkerDelivered = result.delivered.back();
            run.slowChecks = checker->slowContextChecks();
            run.violated = checker->violated();
        }
    }
    return out;
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

    // ---- Phases 1 and 1b: profiling, optional fault injection --------
    // Only the families the OptSlice checker configuration watches are
    // injectable here: lock and spawn invariants are race-detection
    // machinery the slicing checker never arms (guardingLocks /
    // singletonThreads below).
    ProfilePhase profiled = runProfilePhase(
        workload, config, /*callContexts=*/true,
        {dyn::ViolationFamily::UnreachableBlock,
         dyn::ViolationFamily::CalleeSet, dyn::ViolationFamily::CallContext});
    inv::InvariantSet &invariants = profiled.invariants;
    result.profileRunsUsed = profiled.runSteps.size();
    result.profileSeconds = double(profiled.profiledSteps) *
                            cost.profilingOverhead / cost.unitsPerSecond *
                            cost.offlineScale;
    result.injectedFaults = std::move(profiled.injectedFaults);

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
    // A module without Output has no endpoint: report empty slices.
    if (!endpoints.empty()) {
        result.soundSliceSize = soundSizeSum / double(endpoints.size());
        result.optSliceSize = optSizeSum / double(endpoints.size());
    }

    result.soundAliasRate =
        soundPts.result->aliasRate(module, &invariants);
    result.optAliasRate = optPts.result->aliasRate(module, &invariants);

    // ---- Phase 4: dynamic slicing over the testing corpus ---------------
    dyn::CheckerConfig checkerConfig;
    checkerConfig.callContexts = invariants.hasCallContexts;
    checkerConfig.guardingLocks = false;
    checkerConfig.singletonThreads = false;

    // Every (testing input, endpoint) pair is a slicing task, ordered
    // input-major.  An input's endpoints share one Giri graph per
    // configuration, attached under the union of their plans; each
    // endpoint's slice and delivered counts are read off it against
    // its own plan (readUnionGraph).  The hybrid references do not
    // depend on the speculative plans, so they are evaluated once per
    // input up front; each doubles as the deterministic rollback
    // re-analysis and as the degraded configuration once the circuit
    // breaker trips.
    const std::size_t numInputs = workload.testingSet.size();
    const std::size_t numEndpoints = endpoints.size();
    const std::size_t tasks = numInputs * numEndpoints;
    const std::size_t refJobs = numEndpoints == 0 ? 0 : numInputs;

    struct OptEval
    {
        GiriRun optimistic;
        bool rolledBack = false;
        bool degraded = false;
        dyn::Violation violation;
    };
    // Attach the optimistic @p graph under @p plan, guarded by
    // @p checker, as @p group of @p run.
    auto attachOptimistic = [](exec::Interpreter &run,
                               exec::Interpreter::GroupId group,
                               dyn::GiriSlicer &graph,
                               const exec::InstrumentationPlan &plan,
                               dyn::InvariantChecker &checker) {
        run.attach(group, &graph, &plan);
        checker.setControl(&run.control(group));
        run.attach(group, &checker, &checker.plan());
    };
    // Judge endpoints [first, E) off one optimistic union graph.  The
    // checker depends only on the invariants, so every endpoint
    // shares its verdict.
    auto judge = [&](const exec::RunResult &run,
                     const dyn::GiriSlicer &graph, std::size_t first,
                     const dyn::InvariantChecker &checker) {
        std::vector<OptEval> evals;
        for (GiriRun &endpoint : readUnionGraph(run, graph, endpoints,
                                                optPlans, first, &checker)) {
            OptEval &eval = evals.emplace_back();
            eval.optimistic = std::move(endpoint);
            if (eval.optimistic.violated) {
                eval.rolledBack = true;
                eval.violation = checker.violation();
            }
        }
        return evals;
    };
    // One optimistic evaluation of endpoints [first, E) of @p input
    // under @p plan, the union of their current optimistic plans.
    auto evaluateOptimistic = [&](std::size_t input, std::size_t first,
                                  const exec::InstrumentationPlan &plan) {
        dyn::GiriSlicer graph(module);
        dyn::InvariantChecker checker(module, invariants, checkerConfig);
        exec::Interpreter run(module, workload.testingSet[input]);
        attachOptimistic(run, 0, graph, plan, checker);
        return judge(run.run(), graph, first, checker);
    };

    // One live run per input serves the references and the first
    // adaptive round together: group 0 holds the hybrid graph, a second
    // group the optimistic graph and the checker, whose abort stops
    // only its own group.
    const exec::InstrumentationPlan hybridUnion =
        unionPlan(module, hybridPlans, 0);
    const exec::InstrumentationPlan firstOptUnion =
        unionPlan(module, optPlans, 0);
    auto fused = support::runBatch(
        refJobs,
        [&](std::size_t input) {
            exec::Interpreter run(module, workload.testingSet[input]);
            dyn::GiriSlicer hybrid(module);
            run.attach(&hybrid, &hybridUnion);
            dyn::GiriSlicer opt(module);
            dyn::InvariantChecker checker(module, invariants, checkerConfig);
            attachOptimistic(run, run.addGroup(), opt, firstOptUnion,
                             checker);
            const std::vector<exec::RunResult> results = run.runGroups();
            return std::pair{readUnionGraph(results[0], hybrid, endpoints,
                                            hybridPlans, 0, nullptr),
                             judge(results[1], opt, 0, checker)};
        },
        config.threads);
    std::vector<GiriRun> refs;
    refs.reserve(tasks);
    std::vector<std::vector<OptEval>> firstRound;
    for (auto &[ref, opt] : fused) {
        // The run is step-identical to the hybrid run, which never
        // aborts.
        result.interpretedSteps += ref.front().result.steps;
        std::move(ref.begin(), ref.end(), std::back_inserter(refs));
        firstRound.push_back(std::move(opt));
    }

    // Speculative runs, in adaptive rounds (same repair loop as
    // runOptFt).  A round evaluates the remaining inputs in order under
    // the current optimistic plans, starting at the task after the
    // last repair, and starts no input past the first rollback
    // (runBatchUntil).  The outcomes are scanned serially in task
    // order; at the first rollback the lying invariant is demoted, the
    // predicated points-to + slicing phase re-runs through the memo
    // caches, the per-endpoint plans are rebuilt, and the next round
    // restarts at the following task — so results equal the serial
    // repair loop at any thread count.  The first round came out of the
    // fused reference pass.
    std::vector<OptEval> opts(tasks);
    const RecoveryBreaker breaker{config.maxRepredications,
                                  config.misspecRateThreshold,
                                  config.minRunsForMisspecRate};
    std::uint64_t rollbacksSeen = 0;
    bool degraded = false;
    std::size_t next = 0;
    while (next < tasks) {
        const std::size_t firstInput = next / numEndpoints;
        const std::size_t firstEndpoint = next % numEndpoints;
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
        const bool repairRound = next != 0;
        std::vector<std::vector<OptEval>> round;
        if (!repairRound) {
            round = std::move(firstRound);
        } else {
            const exec::InstrumentationPlan optUnion =
                unionPlan(module, optPlans, 0);
            round = support::runBatchUntil(
                numInputs - firstInput,
                [&](std::size_t k) {
                    if (k == 0 && firstEndpoint != 0)
                        return evaluateOptimistic(
                            firstInput, firstEndpoint,
                            unionPlan(module, optPlans, firstEndpoint));
                    return evaluateOptimistic(firstInput + k, 0, optUnion);
                },
                [&](const std::vector<OptEval> &evals) {
                    return config.adaptiveRecovery &&
                           evals.front().rolledBack;
                },
                config.threads);
        }

        next = tasks;
        for (std::size_t k = 0; k < round.size() && next == tasks; ++k) {
            const std::size_t input = firstInput + k;
            const std::size_t first = k == 0 ? firstEndpoint : 0;
            // A repair round's run is one more interpretation of the
            // input.
            if (repairRound)
                result.interpretedSteps +=
                    round[k].front().optimistic.result.steps;
            for (std::size_t j = 0; j < round[k].size(); ++j) {
                const std::size_t task = input * numEndpoints + first + j;
                opts[task] = std::move(round[k][j]);
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
                    // Re-predicate points-to and slicing on the
                    // repaired invariants; both routes are memoized,
                    // so repeated repairs of converging sets are
                    // incremental.
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
        if (opt.rolledBack) {
            ++result.misSpeculations;
            // Roll back: deterministic re-analysis under the sound
            // hybrid plan — identical to the hybrid reference by
            // determinism, so reuse it.
            optCost.rollback =
                priceGiriRun(cost, hybrid.result, hybrid.delivered)
                    .total();
        }
        result.optimistic.add(optCost);

        // Soundness: the recovered optimistic slice must equal the
        // traditional hybrid slice.  A run that kept its speculation
        // must also have read a closed slice off its union graph: an
        // escape means the predicated slice was not closed although
        // no invariant failed.
        if (!opt.rolledBack && (opt.optimistic.escaped ||
                                opt.optimistic.slice != hybrid.slice))
            result.sliceResultsMatch = false;
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
