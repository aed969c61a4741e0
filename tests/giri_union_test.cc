/**
 * @file
 * Oracle test for reading several endpoints off one Giri dependence
 * graph, as runOptSlice does.  For every slice workload, testing
 * input and Output endpoint, under sound (hybrid) and predicated
 * (optimistic) slice plans built the way the pipeline builds them, a
 * graph attached under the union of the endpoints' plans gives each
 * endpoint the slice and the per-class delivered counts of a graph
 * attached under the endpoint's own plan alone: on clean runs, at the
 * invariant checker's abort point, and at forced abort points.  A plan
 * with one producer removed reports an escape.
 *
 * The fault sweep (ci/run.sh faults) runs this under OHA_FAULT_SEED
 * 1-3, so the optimistic plans also come from fault-injected
 * invariants that the testing corpus violates.
 */

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "analysis/andersen_cache.h"
#include "analysis/slicer.h"
#include "core/optslice.h"
#include "dyn/fault_injector.h"
#include "dyn/giri.h"
#include "dyn/invariant_checker.h"
#include "dyn/plans.h"
#include "exec/interpreter.h"
#include "profile/profiler.h"
#include "workloads/workloads.h"

namespace oha::dyn {
namespace {

/** Endpoints and their slice plans, built as runOptSlice builds them
 *  (call-context profiling to convergence, the OptSlice fault
 *  families under OHA_FAULT_SEED, CS points-to within budget with a
 *  CI fallback, full Giri when a slice blows its budget) — except
 *  that every Output is an endpoint, not only the top-ranked few. */
struct PipelinePlans
{
    inv::InvariantSet invariants;
    std::vector<InstrId> endpoints;
    std::vector<exec::InstrumentationPlan> hybrid;
    std::vector<exec::InstrumentationPlan> optimistic;
};

PipelinePlans
pipelinePlans(const workloads::Workload &workload)
{
    const ir::Module &module = *workload.module;
    const core::OptSliceConfig defaults;
    PipelinePlans out;

    prof::ProfileOptions profOptions;
    profOptions.callContexts = true;
    prof::ProfilingCampaign campaign(module, profOptions);
    campaign.addRunsUntilConverged(workload.profilingSet,
                                   defaults.maxProfileRuns,
                                   defaults.convergenceWindow);
    out.invariants = campaign.invariants();
    if (const std::uint64_t seed = faultSeedFromEnv()) {
        FaultInjectorOptions options;
        options.seed = seed;
        options.families = {ViolationFamily::UnreachableBlock,
                            ViolationFamily::CalleeSet,
                            ViolationFamily::CallContext};
        FaultInjector(module, options)
            .inject(out.invariants, workload.testingSet);
    }

    for (InstrId id = 0; id < module.numInstrs(); ++id)
        if (module.instr(id).op == ir::Opcode::Output)
            out.endpoints.push_back(id);

    auto plans = [&](const inv::InvariantSet *assumed) {
        analysis::AndersenOptions options;
        options.contextSensitive = true;
        options.invariants = assumed;
        auto pts = analysis::runAndersenMemo(workload.module, options);
        if (!pts->completed) {
            options.contextSensitive = false;
            pts = analysis::runAndersenMemo(workload.module, options);
        }
        analysis::SlicerOptions sliceOptions;
        sliceOptions.invariants = assumed;
        sliceOptions.maxWork = defaults.sliceWorkBudget;
        const analysis::StaticSlicer slicer(module, *pts, sliceOptions);
        std::vector<exec::InstrumentationPlan> result;
        for (const InstrId endpoint : out.endpoints) {
            const analysis::StaticSliceResult slice = slicer.slice(endpoint);
            result.push_back(slice.completed
                                 ? sliceGiriPlan(module, slice.instructions)
                                 : fullGiriPlan(module));
        }
        return result;
    };
    out.hybrid = plans(nullptr);
    out.optimistic = plans(&out.invariants);
    return out;
}

exec::InstrumentationPlan
unionOf(const ir::Module &module,
        const std::vector<exec::InstrumentationPlan> &plans)
{
    auto plan = exec::InstrumentationPlan::none(module);
    for (InstrId id = 0; id < module.numInstrs(); ++id)
        for (const exec::InstrumentationPlan &own : plans)
            if (own.coversInstr(id))
                plan.setInstr(id, true);
    return plan;
}

/** Requests an abort on its @p k-th instruction event (0 = never). */
class AbortAtEvent : public exec::Tool
{
  public:
    AbortAtEvent(std::uint64_t k, exec::ExecutionControl &control)
        : k_(k), control_(control)
    {
    }

    void
    onEvent(const exec::EventCtx &) override
    {
        if (++seen_ == k_)
            control_.requestAbort("forced abort");
    }

  private:
    std::uint64_t k_;
    std::uint64_t seen_ = 0;
    exec::ExecutionControl &control_;
};

struct GraphRun
{
    exec::RunResult result;
    std::unique_ptr<GiriSlicer> graph;
    /** The checker found a violated invariant. */
    bool violated = false;
};

/** Run @p input live through one Giri graph under @p plan; with
 *  @p checked, an invariant checker (the OptSlice configuration)
 *  shares the run; @p abortAt > 0 forces an abort at that event. */
GraphRun
runGraph(const ir::Module &module, const exec::ExecConfig &input,
         const exec::InstrumentationPlan &plan,
         const inv::InvariantSet *checked, std::uint64_t abortAt)
{
    GraphRun run;
    run.graph = std::make_unique<GiriSlicer>(module);
    exec::Interpreter interp(module, input);
    interp.attach(run.graph.get(), &plan);
    std::optional<InvariantChecker> checker;
    if (checked) {
        CheckerConfig config;
        config.callContexts = checked->hasCallContexts;
        config.guardingLocks = false;
        config.singletonThreads = false;
        checker.emplace(module, *checked, config);
        checker->setControl(&interp);
        interp.attach(&*checker, &checker->plan());
    }
    AbortAtEvent stopper(abortAt, interp);
    const auto all = exec::InstrumentationPlan::all(module);
    if (abortAt != 0)
        interp.attach(&stopper, &all);
    run.result = interp.run();
    run.violated = checker && checker->violated();
    return run;
}

void
expectSameCounts(const exec::EventCounts &a, const exec::EventCounts &b,
                 const std::string &label)
{
    for (std::size_t c = 0; c < exec::kNumEventClasses; ++c)
        EXPECT_EQ(a.counts[c], b.counts[c]) << label << " class " << c;
}

class GiriUnion : public ::testing::TestWithParam<std::string>
{
};

TEST_P(GiriUnion, EveryEndpointReadsItsOwnGraphOffTheUnion)
{
    const auto workload = workloads::makeSliceWorkload(GetParam(), 48, 8);
    const ir::Module &module = *workload.module;
    const PipelinePlans plans = pipelinePlans(workload);
    ASSERT_FALSE(plans.endpoints.empty());

    for (std::size_t input = 0; input < workload.testingSet.size(); ++input) {
        const exec::ExecConfig &config = workload.testingSet[input];
        const std::uint64_t steps =
            exec::Interpreter(module, config).run().steps;
        for (const bool optimistic : {false, true}) {
            const std::vector<exec::InstrumentationPlan> &own =
                optimistic ? plans.optimistic : plans.hybrid;
            const inv::InvariantSet *checked =
                optimistic ? &plans.invariants : nullptr;
            const exec::InstrumentationPlan unionPlan = unionOf(module, own);
            for (const std::uint64_t abortAt :
                 {std::uint64_t{0}, std::uint64_t{1}, steps / 3, steps / 2}) {
                const GraphRun shared =
                    runGraph(module, config, unionPlan, checked, abortAt);
                std::vector<const exec::InstrumentationPlan *> ownPtrs;
                for (const exec::InstrumentationPlan &plan : own)
                    ownPtrs.push_back(&plan);
                const std::vector<exec::EventCounts> delivered =
                    shared.graph->entriesUnder(ownPtrs);
                for (std::size_t e = 0; e < plans.endpoints.size(); ++e) {
                    const std::string label =
                        GetParam() + " input " + std::to_string(input) +
                        (optimistic ? " optimistic" : " hybrid") +
                        " endpoint " + std::to_string(e) + " abortAt " +
                        std::to_string(abortAt);
                    const GraphRun alone =
                        runGraph(module, config, own[e], checked, abortAt);
                    ASSERT_EQ(shared.result.steps, alone.result.steps)
                        << label;
                    ASSERT_EQ(shared.result.status, alone.result.status)
                        << label;
                    expectSameCounts(delivered[e], alone.result.delivered[0],
                                     label);

                    const GiriSlicer::EndpointSlice slice =
                        shared.graph->slice(plans.endpoints[e], own[e]);
                    // Sound plans are closed on every execution, also
                    // a truncated one; predicated plans on every run
                    // prefix in which no invariant failed.
                    if (!shared.violated) {
                        EXPECT_EQ(slice.escapes, 0u) << label;
                    }
                    if (slice.escapes == 0) {
                        EXPECT_EQ(slice.instrs,
                                  alone.graph->slice(plans.endpoints[e]))
                            << label;
                    }
                }
            }
        }
    }
}

TEST_P(GiriUnion, APlanMissingAProducerReportsAnEscape)
{
    const auto workload = workloads::makeSliceWorkload(GetParam(), 48, 4);
    const ir::Module &module = *workload.module;
    const PipelinePlans plans = pipelinePlans(workload);
    const exec::ExecConfig &input = workload.testingSet.front();
    std::size_t checked = 0;
    for (std::size_t e = 0; e < plans.endpoints.size(); ++e) {
        const InstrId endpoint = plans.endpoints[e];
        // The graph under the sound plan stands in for a union that
        // covers the producer; the endpoint's own plan loses it.
        const GraphRun full =
            runGraph(module, input, plans.hybrid[e], nullptr, 0);
        const std::set<InstrId> dynamicSlice = full.graph->slice(endpoint);
        auto producer = std::find_if(
            dynamicSlice.begin(), dynamicSlice.end(),
            [&](InstrId id) { return id != endpoint; });
        if (producer == dynamicSlice.end())
            continue;
        exec::InstrumentationPlan open = plans.hybrid[e];
        open.setInstr(*producer, false);

        const std::string label = GetParam() + " endpoint " +
                                  std::to_string(e) + " without " +
                                  std::to_string(*producer);
        EXPECT_EQ(full.graph->slice(endpoint, plans.hybrid[e]).escapes, 0u)
            << label;
        EXPECT_GT(full.graph->slice(endpoint, open).escapes, 0u) << label;
        // A graph under the open plan alone would silently lose it.
        const GraphRun alone = runGraph(module, input, open, nullptr, 0);
        EXPECT_EQ(alone.graph->slice(endpoint).count(*producer), 0u)
            << label;
        ++checked;
    }
    EXPECT_GT(checked, 0u) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    SliceWorkloads, GiriUnion,
    ::testing::ValuesIn(workloads::sliceWorkloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace oha::dyn
