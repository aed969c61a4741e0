/**
 * @file
 * google-benchmark microbenchmarks for the substrate components:
 * interpreter throughput, FastTrack per-event cost, Giri trace
 * appends, Andersen solving, static slicing, invariant checking,
 * profiling runs, OptFT's fused first round and
 * fault-seeded pipeline recovery.
 * These are wall-clock measurements of THIS implementation (not paper
 * reproductions) — useful for tracking regressions in the library
 * itself.
 */

#include <benchmark/benchmark.h>

#include "bench_common.h"

#include "analysis/race_detector.h"
#include "core/optft.h"
#include "core/optslice.h"
#include "analysis/slicer.h"
#include "dyn/fasttrack.h"
#include "dyn/giri.h"
#include "dyn/invariant_checker.h"
#include "dyn/plans.h"
#include "profile/profiler.h"
#include "profile/profilers.h"
#include "workloads/workloads.h"

using namespace oha;

namespace {

const workloads::Workload &
raceWorkload()
{
    static const workloads::Workload workload =
        workloads::makeRaceWorkload("lusearch", 1, 1);
    return workload;
}

const workloads::Workload &
sliceWorkload()
{
    static const workloads::Workload workload =
        workloads::makeSliceWorkload("redis", 1, 1);
    return workload;
}

/** Every race (false) or slice (true) workload, built once. */
const std::vector<workloads::Workload> &
corpus(bool slice)
{
    static const auto build = [](bool sliceSuite) {
        std::vector<workloads::Workload> all;
        const auto &names = sliceSuite ? workloads::sliceWorkloadNames()
                                       : workloads::raceWorkloadNames();
        for (const std::string &name : names)
            all.push_back(sliceSuite ? workloads::makeSliceWorkload(name)
                                     : workloads::makeRaceWorkload(name));
        return all;
    };
    static const std::vector<workloads::Workload> race = build(false);
    static const std::vector<workloads::Workload> sliceCorpus = build(true);
    return slice ? sliceCorpus : race;
}

/**
 * The interpreter floor: every testing input of every race (arg 0)
 * or slice (arg 1) workload, run plain.  Items are interpreter steps,
 * so the series reads directly as ns/step.
 */
void
BM_InterpreterPlain(benchmark::State &state)
{
    const auto &workloads = corpus(state.range(0) != 0);
    std::uint64_t steps = 0;
    for (auto _ : state) {
        for (const workloads::Workload &workload : workloads) {
            for (const exec::ExecConfig &config : workload.testingSet) {
                exec::Interpreter interp(*workload.module, config);
                const auto result = interp.run();
                steps += result.steps;
                benchmark::DoNotOptimize(result.steps);
            }
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_InterpreterPlain)->ArgName("slice")->Arg(0)->Arg(1);

/** One race program prepared for OptFT's first round: its profiled
 *  invariants and the hybrid and optimistic plans. */
struct FirstRoundProgram
{
    const workloads::Workload *workload;
    inv::InvariantSet invariants;
    exec::InstrumentationPlan hybrid, optimistic;
};

const std::vector<FirstRoundProgram> &
firstRoundPrograms()
{
    static const std::vector<FirstRoundProgram> programs = [] {
        std::vector<FirstRoundProgram> out;
        for (const workloads::Workload &workload : corpus(false)) {
            const ir::Module &module = *workload.module;
            prof::ProfilingCampaign campaign(module, {});
            campaign.addRunsUntilConverged(workload.profilingSet, 48, 6);
            inv::InvariantSet invariants = campaign.invariants();
            const auto sound = analysis::runStaticRaceDetector(module, nullptr);
            const auto predicated =
                analysis::runStaticRaceDetector(module, &invariants);
            FirstRoundProgram program{
                &workload, invariants,
                dyn::hybridFastTrackPlan(module, sound.racyAccesses),
                dyn::optimisticFastTrackPlan(module, predicated.racyAccesses,
                                             invariants)};
            out.push_back(std::move(program));
        }
        return out;
    }();
    return programs;
}

/**
 * OptFT's fused first round: every testing input of every race
 * program through two attachment groups — hybrid FastTrack, and
 * optimistic FastTrack with its invariant checker — in one live run,
 * as the pipeline runs it.  Items are guest steps.
 */
void
BM_FusedFirstRound(benchmark::State &state)
{
    const auto &programs = firstRoundPrograms();
    dyn::CheckerConfig checkerConfig;
    checkerConfig.callContexts = false;
    std::uint64_t steps = 0;
    for (auto _ : state) {
        for (const FirstRoundProgram &program : programs) {
            const workloads::Workload &workload = *program.workload;
            for (std::size_t i = 0; i < workload.testingSet.size(); ++i) {
                dyn::FastTrack hybrid, optimistic;
                dyn::InvariantChecker checker(*workload.module,
                                              program.invariants,
                                              checkerConfig);
                exec::Interpreter run(*workload.module,
                                      workload.testingSet[i]);
                run.attach(&hybrid, &program.hybrid);
                const auto optGroup = run.addGroup();
                run.attach(optGroup, &optimistic, &program.optimistic);
                checker.setControl(&run.control(optGroup));
                run.attach(optGroup, &checker, &checker.plan());
                const std::vector<exec::RunResult> results = run.runGroups();
                steps += results[0].steps;
                benchmark::DoNotOptimize(hybrid.races().size());
            }
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_FusedFirstRound);

void
BM_FastTrackFullInstrumentation(benchmark::State &state)
{
    const auto &workload = raceWorkload();
    const auto plan = dyn::fullFastTrackPlan(*workload.module);
    std::uint64_t steps = 0;
    for (auto _ : state) {
        dyn::FastTrack tool;
        exec::Interpreter interp(*workload.module,
                                 workload.testingSet.front());
        interp.attach(&tool, &plan);
        const auto result = interp.run();
        steps += result.steps;
        benchmark::DoNotOptimize(tool.races().size());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_FastTrackFullInstrumentation);

void
BM_GiriFullInstrumentation(benchmark::State &state)
{
    const auto &workload = sliceWorkload();
    const auto plan = dyn::fullGiriPlan(*workload.module);
    std::uint64_t steps = 0;
    for (auto _ : state) {
        dyn::GiriSlicer tool(*workload.module);
        exec::Interpreter interp(*workload.module,
                                 workload.testingSet.front());
        interp.attach(&tool, &plan);
        const auto result = interp.run();
        steps += result.steps;
        benchmark::DoNotOptimize(tool.traceLength());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_GiriFullInstrumentation);

void
BM_AndersenCi(benchmark::State &state)
{
    const auto &workload = sliceWorkload();
    for (auto _ : state) {
        const auto result = analysis::runAndersen(*workload.module, {});
        benchmark::DoNotOptimize(result.workUnits);
    }
}
BENCHMARK(BM_AndersenCi);

void
BM_AndersenCs(benchmark::State &state)
{
    const auto &workload = sliceWorkload();
    analysis::AndersenOptions options;
    options.contextSensitive = true;
    // Above the pipelines' default budget, so redis's 8,307-context
    // CS solve completes instead of aborting.
    options.maxContexts = 20000;
    for (auto _ : state) {
        const auto result =
            analysis::runAndersen(*workload.module, options);
        benchmark::DoNotOptimize(result.workUnits);
    }
}
BENCHMARK(BM_AndersenCs);

void
BM_StaticRaceDetector(benchmark::State &state)
{
    const auto &workload = raceWorkload();
    for (auto _ : state) {
        const auto result =
            analysis::runStaticRaceDetector(*workload.module, nullptr);
        benchmark::DoNotOptimize(result.racyAccesses.size());
    }
}
BENCHMARK(BM_StaticRaceDetector);

/**
 * The static slicer as the pipelines run it: build a slicer, then
 * slice every Output, for each slice program, over CS points-to (CI
 * where the CS solve exceeds even a raised context budget), at the
 * pipeline's slice-work budget.  Items are slices.
 */
void
BM_StaticSlice(benchmark::State &state)
{
    struct Program
    {
        const ir::Module *module = nullptr;
        analysis::AndersenResult pts;
        std::vector<InstrId> outputs;
    };
    std::vector<Program> programs;
    for (const workloads::Workload &workload : corpus(true)) {
        Program program;
        program.module = workload.module.get();
        analysis::AndersenOptions options;
        options.contextSensitive = true;
        options.maxContexts = 20000;
        program.pts = analysis::runAndersen(*program.module, options);
        if (!program.pts.completed)
            program.pts = analysis::runAndersen(*program.module, {});
        for (InstrId id = 0; id < program.module->numInstrs(); ++id)
            if (program.module->instr(id).op == ir::Opcode::Output)
                program.outputs.push_back(id);
        programs.push_back(std::move(program));
    }
    analysis::SlicerOptions options;
    options.maxWork = core::OptSliceConfig::sliceWorkBudget;
    std::size_t slices = 0;
    for (auto _ : state) {
        for (const Program &program : programs) {
            const analysis::StaticSlicer slicer(*program.module,
                                                program.pts, options);
            for (const InstrId endpoint : program.outputs) {
                const auto slice = slicer.slice(endpoint);
                benchmark::DoNotOptimize(slice.instructions.size());
            }
            slices += program.outputs.size();
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(slices));
}
BENCHMARK(BM_StaticSlice);

/**
 * One profiled run on the race (arg 0) or slice (arg 1, with call
 * contexts) workload.  Items are interpreter steps, so ns/step
 * compares directly with BM_InterpreterPlain.  BM_ProfilingRun is the
 * campaign's path (the observer under its narrow plan, built once per
 * campaign); BM_ProfilingRunAllSites attaches the same observer under
 * InstrumentationPlan::all, so the ratio of the two is the cost of
 * instrumenting sites the observer never reads.
 */
void
profilingRun(benchmark::State &state, bool allSites)
{
    const bool slice = state.range(0) != 0;
    const workloads::Workload &workload =
        slice ? sliceWorkload() : raceWorkload();
    const ir::Module &module = *workload.module;
    prof::ProfileOptions options;
    options.callContexts = slice;
    const prof::ProfilingCampaign campaign(module, options);
    const exec::InstrumentationPlan all =
        exec::InstrumentationPlan::all(module);
    std::uint64_t steps = 0;
    for (auto _ : state) {
        prof::RunObservations run;
        if (allSites) {
            prof::RunObserver observer(slice);
            exec::Interpreter interp(module, workload.profilingSet.front());
            interp.attach(&observer, &all);
            run = observer.takeObservations(interp.run());
        } else {
            run = campaign.observeRun(workload.profilingSet.front());
        }
        steps += run.steps;
        benchmark::DoNotOptimize(run.blockCounts.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}

void
BM_ProfilingRun(benchmark::State &state)
{
    profilingRun(state, false);
}
BENCHMARK(BM_ProfilingRun)->ArgName("slice")->Arg(0)->Arg(1);

void
BM_ProfilingRunAllSites(benchmark::State &state)
{
    profilingRun(state, true);
}
BENCHMARK(BM_ProfilingRunAllSites)->ArgName("slice")->Arg(0)->Arg(1);

/**
 * Recovery under faults: OptFT over every race program (arg 0) or
 * OptSlice over every slice program (arg 1), serial, with fault seed 7
 * so the testing corpus mis-speculates and the adaptive repair rounds
 * run.  One untimed pass warms the static and profile caches first,
 * as in a warm daemon request, so the live runs, the tools and
 * recovery carry the time.  Items are pipeline ops.
 */
void
BM_FaultedPipeline(benchmark::State &state)
{
    const bool slice = state.range(0) != 0;
    const auto &workloads = corpus(slice);
    auto pass = [&] {
        for (const workloads::Workload &workload : workloads) {
            if (slice) {
                core::OptSliceConfig config;
                config.threads = 1;
                config.faultSeed = 7;
                benchmark::DoNotOptimize(
                    core::runOptSlice(workload, config).misSpeculations);
            } else {
                core::OptFtConfig config;
                config.threads = 1;
                config.faultSeed = 7;
                benchmark::DoNotOptimize(
                    core::runOptFt(workload, config).misSpeculations);
            }
        }
    };
    pass();
    std::int64_t ops = 0;
    for (auto _ : state) {
        pass();
        ops += static_cast<std::int64_t>(workloads.size());
    }
    state.SetItemsProcessed(ops);
}
BENCHMARK(BM_FaultedPipeline)
    ->ArgName("slice")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/**
 * Console reporter that additionally captures every benchmark's
 * per-iteration wall time (and item throughput where the benchmark
 * sets items-processed) into the shared BENCH_*.json sink, so this
 * binary emits the same machine-readable record stream as the figure
 * harnesses.
 */
class JsonTeeReporter : public benchmark::ConsoleReporter
{
  public:
    explicit JsonTeeReporter(bench::JsonReport &json) : json_(json) {}

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            const double iters =
                run.iterations > 0 ? double(run.iterations) : 1.0;
            const double wallMs =
                run.real_accumulated_time / iters * 1e3;
            // items_per_second is already finalized to a rate by the
            // time it reaches the reporter; undo it to items/iteration.
            const auto it = run.counters.find("items_per_second");
            const std::uint64_t events =
                it != run.counters.end()
                    ? static_cast<std::uint64_t>(
                          double(it->second) *
                          run.real_accumulated_time / iters)
                    : 0;
            json_.add(run.benchmark_name(), "per-iteration", wallMs,
                      events);
        }
        ConsoleReporter::ReportRuns(runs);
    }

  private:
    bench::JsonReport &json_;
};

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    bench::JsonReport json("microbench_components");
    JsonTeeReporter reporter(json);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    json.write();
    benchmark::Shutdown();
    return 0;
}
