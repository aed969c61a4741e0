/**
 * @file
 * Record-once/analyze-many parity: driving FastTrack, Giri and the
 * invariant checker from a TraceReplayer must be byte-identical to
 * running the same tools on a live Interpreter — race reports, slice
 * sets, delivered-event accounting, step counts, outputs, thread
 * counts and abort semantics — on every workload, including runs the
 * checker aborts mid-execution.  The end-to-end pipelines are then
 * compared field by field between useTraceReplay modes (at 1 and 4
 * worker threads), excluding only the interpretedSteps/replayedEvents
 * counters whose divergence is the optimization itself.
 *
 * Fused replay: one pass driving several attachment groups must give
 * every group the result of a standalone replay of that group, at any
 * abort point, including when every group aborts early.
 *
 * Also covers the capture/replay edge cases: recordings truncated by
 * an abort or a step limit, empty testing sets, and captures or
 * snapshots persisted in an older format; plus the OptFT
 * rollback-trigger contract (optFtShouldRollBack).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "core/optft.h"
#include "core/optslice.h"
#include "dyn/fasttrack.h"
#include "dyn/giri.h"
#include "dyn/invariant_checker.h"
#include "dyn/plans.h"
#include "exec/trace.h"
#include "ir/builder.h"
#include "ir/parser.h"
#include "profile/profiler.h"
#include "service/analysis_service.h"
#include "service/snapshot.h"
#include "support/durable_file.h"
#include "support/thread_pool.h"
#include "workloads/workloads.h"

namespace oha {
namespace {

std::vector<std::uint64_t>
eventVec(const exec::EventCounts &counts)
{
    return std::vector<std::uint64_t>(std::begin(counts.counts),
                                      std::end(counts.counts));
}

/** Everything observable from one analysis run that must match
 *  between a live interpreter run and a trace replay. */
struct RunSnapshot
{
    int status = 0;
    std::string abortReason;
    std::vector<std::pair<InstrId, std::int64_t>> outputs;
    std::uint64_t steps = 0;
    std::uint32_t numThreads = 0;
    std::vector<std::uint64_t> totalEvents;
    std::vector<std::vector<std::uint64_t>> delivered;
    std::set<std::pair<InstrId, InstrId>> races;
    std::vector<std::pair<InstrId, std::set<InstrId>>> slices;
    bool violated = false;
    std::uint64_t slowChecks = 0;
};

void
fillCommon(RunSnapshot &snap, const exec::RunResult &result)
{
    snap.status = static_cast<int>(result.status);
    snap.abortReason = result.abortReason;
    snap.outputs = result.outputs;
    snap.steps = result.steps;
    snap.numThreads = result.numThreads;
    snap.totalEvents = eventVec(result.totalEvents);
    for (const exec::EventCounts &counts : result.delivered)
        snap.delivered.push_back(eventVec(counts));
}

void
expectEqual(const RunSnapshot &live, const RunSnapshot &replayed,
            const std::string &label)
{
    EXPECT_EQ(live.status, replayed.status) << label;
    EXPECT_EQ(live.abortReason, replayed.abortReason) << label;
    EXPECT_EQ(live.outputs, replayed.outputs) << label;
    EXPECT_EQ(live.steps, replayed.steps) << label;
    EXPECT_EQ(live.numThreads, replayed.numThreads) << label;
    EXPECT_EQ(live.totalEvents, replayed.totalEvents) << label;
    EXPECT_EQ(live.delivered, replayed.delivered) << label;
    EXPECT_EQ(live.races, replayed.races) << label;
    EXPECT_EQ(live.slices, replayed.slices) << label;
    EXPECT_EQ(live.violated, replayed.violated) << label;
    EXPECT_EQ(live.slowChecks, replayed.slowChecks) << label;
}

/** Profile @p inputs and return the merged invariants. */
inv::InvariantSet
profiled(const ir::Module &module,
         const std::vector<exec::ExecConfig> &inputs)
{
    prof::ProfilingCampaign campaign(module, {});
    for (const auto &config : inputs)
        campaign.addRun(config);
    return campaign.invariants();
}

std::vector<InstrId>
outputInstrs(const ir::Module &module)
{
    std::vector<InstrId> out;
    for (InstrId id = 0; id < module.numInstrs(); ++id)
        if (module.instr(id).op == ir::Opcode::Output)
            out.push_back(id);
    return out;
}

/** FastTrack + invariant checker, live or replayed. */
RunSnapshot
ftSnapshot(const ir::Module &module, const inv::InvariantSet &invariants,
           const exec::InstrumentationPlan &plan,
           const exec::ExecConfig *config,
           const exec::RecordedTrace *trace)
{
    RunSnapshot snap;
    dyn::FastTrack tool;
    dyn::InvariantChecker checker(module, invariants, {});
    exec::RunResult result;
    if (trace) {
        exec::TraceReplayer replayer(module, *trace);
        replayer.attach(&tool, &plan);
        checker.setControl(&replayer);
        replayer.attach(&checker, &checker.plan());
        result = replayer.run();
    } else {
        exec::Interpreter interp(module, *config);
        interp.attach(&tool, &plan);
        checker.setControl(&interp);
        interp.attach(&checker, &checker.plan());
        result = interp.run();
    }
    fillCommon(snap, result);
    snap.races = tool.racePairs();
    snap.violated = checker.violated();
    snap.slowChecks = checker.slowContextChecks();
    return snap;
}

/** Giri + invariant checker, live or replayed. */
RunSnapshot
giriSnapshot(const ir::Module &module,
             const inv::InvariantSet &invariants,
             const exec::InstrumentationPlan &plan,
             const std::vector<InstrId> &endpoints,
             const exec::ExecConfig *config,
             const exec::RecordedTrace *trace)
{
    RunSnapshot snap;
    dyn::GiriSlicer tool(module);
    dyn::InvariantChecker checker(module, invariants, {});
    exec::RunResult result;
    if (trace) {
        exec::TraceReplayer replayer(module, *trace);
        replayer.attach(&tool, &plan);
        checker.setControl(&replayer);
        replayer.attach(&checker, &checker.plan());
        result = replayer.run();
    } else {
        exec::Interpreter interp(module, *config);
        interp.attach(&tool, &plan);
        checker.setControl(&interp);
        interp.attach(&checker, &checker.plan());
        result = interp.run();
    }
    fillCommon(snap, result);
    for (InstrId endpoint : endpoints)
        snap.slices.push_back({endpoint, tool.slice(endpoint)});
    snap.violated = checker.violated();
    snap.slowChecks = checker.slowContextChecks();
    return snap;
}

TEST(TraceReplayParity, FastTrackIdenticalOnAllRaceWorkloads)
{
    std::size_t totalRaces = 0;
    std::size_t aborted = 0;
    for (const auto &name : workloads::raceWorkloadNames()) {
        const auto workload = workloads::makeRaceWorkload(name, 2, 3);
        const ir::Module &module = *workload.module;
        // Deliberately under-profiled so some testing inputs violate
        // invariants and exercise the abort path of the replayer.
        const auto invariants =
            profiled(module, workload.profilingSet);
        const auto plan = dyn::fullFastTrackPlan(module);
        for (const exec::ExecConfig &config : workload.testingSet) {
            const exec::RecordedTrace trace =
                exec::recordRun(module, config);
            const RunSnapshot live =
                ftSnapshot(module, invariants, plan, &config, nullptr);
            const RunSnapshot replayed =
                ftSnapshot(module, invariants, plan, nullptr, &trace);
            expectEqual(live, replayed, name);
            totalRaces += live.races.size();
            if (live.violated)
                ++aborted;
        }
    }
    // The comparisons must not be vacuous.
    EXPECT_GT(totalRaces, 0u);
    EXPECT_GT(aborted, 0u)
        << "no under-profiled run aborted; the abort path is untested";
}

TEST(TraceReplayParity, GiriIdenticalOnAllSliceWorkloads)
{
    std::size_t totalSliceInstrs = 0;
    for (const auto &name : workloads::sliceWorkloadNames()) {
        const auto workload = workloads::makeSliceWorkload(name, 2, 3);
        const ir::Module &module = *workload.module;
        const auto invariants =
            profiled(module, workload.profilingSet);
        const auto plan = dyn::fullGiriPlan(module);
        const auto endpoints = outputInstrs(module);
        for (const exec::ExecConfig &config : workload.testingSet) {
            const exec::RecordedTrace trace =
                exec::recordRun(module, config);
            const RunSnapshot live = giriSnapshot(
                module, invariants, plan, endpoints, &config, nullptr);
            const RunSnapshot replayed = giriSnapshot(
                module, invariants, plan, endpoints, nullptr, &trace);
            expectEqual(live, replayed, name);
            for (const auto &[endpoint, slice] : live.slices)
                totalSliceInstrs += slice.size();
        }
    }
    EXPECT_GT(totalSliceInstrs, 0u);
}

TEST(TraceReplayParity, AbortedReplayStopsAtTheLiveBoundary)
{
    using namespace ir;
    Module module;
    IRBuilder b(module);
    Function *main = b.createFunction("main", 0);
    BasicBlock *cold = b.createBlock(main, "cold");
    BasicBlock *done = b.createBlock(main, "done");
    b.condBr(b.input(0), cold, done);
    b.setInsertPoint(cold);
    b.output(b.constInt(13));
    b.br(done);
    b.setInsertPoint(done);
    b.output(b.constInt(7));
    b.ret();
    module.finalize();

    exec::ExecConfig trained;
    trained.input = {0};
    exec::ExecConfig violating;
    violating.input = {1};
    const auto invariants = profiled(module, {trained});
    const auto plan = dyn::fullFastTrackPlan(module);

    const exec::RecordedTrace trace = exec::recordRun(module, violating);
    // The uninstrumented recording runs to completion...
    ASSERT_EQ(trace.result.status, exec::RunResult::Status::Finished);

    const RunSnapshot live =
        ftSnapshot(module, invariants, plan, &violating, nullptr);
    const RunSnapshot replayed =
        ftSnapshot(module, invariants, plan, nullptr, &trace);
    // ...but the checked replay aborts exactly where the live checked
    // run does: before the cold block's Output executes.
    ASSERT_TRUE(replayed.violated);
    EXPECT_EQ(replayed.status,
              static_cast<int>(exec::RunResult::Status::Aborted));
    EXPECT_TRUE(replayed.outputs.empty());
    EXPECT_LT(replayed.steps, trace.result.steps);
    expectEqual(live, replayed, "aborted LUC run");
}

TEST(TraceReplayEdge, TruncatedRecordingReplaysTheRecordedOutcome)
{
    using namespace ir;
    Module module;
    IRBuilder b(module);
    Function *main = b.createFunction("main", 0);
    BasicBlock *cold = b.createBlock(main, "cold");
    BasicBlock *done = b.createBlock(main, "done");
    b.condBr(b.input(0), cold, done);
    b.setInsertPoint(cold);
    b.output(b.constInt(13));
    b.br(done);
    b.setInsertPoint(done);
    b.output(b.constInt(7));
    b.ret();
    module.finalize();

    exec::ExecConfig trained;
    trained.input = {0};
    exec::ExecConfig violating;
    violating.input = {1};
    const auto invariants = profiled(module, {trained});

    // Record *with* a checker attached, so the recording itself is
    // aborted mid-trace (an invariant violation during capture).
    exec::RecordedTrace trace;
    {
        dyn::InvariantChecker checker(module, invariants, {});
        exec::TraceRecorder recorder;
        exec::Interpreter interp(module, violating);
        interp.setRecorder(&recorder);
        checker.setControl(&interp);
        interp.attach(&checker, &checker.plan());
        trace.result = interp.run();
        trace.events = recorder.take();
        ASSERT_TRUE(checker.violated());
    }
    ASSERT_EQ(trace.result.status, exec::RunResult::Status::Aborted);

    // A full replay of the truncated trace reports the recorded
    // outcome — status, reason, step count — and delivers exactly the
    // events that happened before the abort.
    const auto plan = dyn::fullFastTrackPlan(module);
    dyn::FastTrack tool;
    exec::TraceReplayer replayer(module, trace);
    replayer.attach(&tool, &plan);
    const exec::RunResult result = replayer.run();
    EXPECT_EQ(result.status, exec::RunResult::Status::Aborted);
    EXPECT_EQ(result.abortReason, trace.result.abortReason);
    EXPECT_EQ(result.steps, trace.result.steps);
    EXPECT_TRUE(result.outputs.empty());
    EXPECT_EQ(eventVec(result.totalEvents),
              eventVec(trace.result.totalEvents));
}

TEST(TraceReplayEdge, StepLimitTruncationReplaysIdentically)
{
    const auto workload = workloads::makeRaceWorkload("raytracer", 1, 1);
    const ir::Module &module = *workload.module;
    const auto invariants = profiled(module, workload.profilingSet);
    const auto plan = dyn::fullFastTrackPlan(module);

    exec::ExecConfig limited = workload.testingSet.front();
    limited.maxSteps = 200;

    const exec::RecordedTrace trace = exec::recordRun(module, limited);
    ASSERT_EQ(trace.result.status, exec::RunResult::Status::StepLimit);
    ASSERT_EQ(trace.result.steps, 200u);

    const RunSnapshot live =
        ftSnapshot(module, invariants, plan, &limited, nullptr);
    const RunSnapshot replayed =
        ftSnapshot(module, invariants, plan, nullptr, &trace);
    expectEqual(live, replayed, "step-limited run");
}

TEST(TraceReplayEdge, EmptyTestingSetsAreHandled)
{
    auto race = workloads::makeRaceWorkload("raytracer", 2, 2);
    race.testingSet.clear();
    for (const bool replay : {false, true}) {
        core::OptFtConfig config;
        config.useTraceReplay = replay;
        const auto result = core::runOptFt(race, config);
        EXPECT_EQ(result.testRuns, 0u);
        EXPECT_EQ(result.misSpeculations, 0u);
        EXPECT_EQ(result.interpretedSteps, 0u);
        EXPECT_EQ(result.replayedEvents, 0u);
        EXPECT_EQ(result.recordSeconds, 0.0);
        EXPECT_TRUE(result.raceReportsMatch);
    }

    auto slice = workloads::makeSliceWorkload("zlib", 2, 2);
    slice.testingSet.clear();
    for (const bool replay : {false, true}) {
        core::OptSliceConfig config;
        config.useTraceReplay = replay;
        const auto result = core::runOptSlice(slice, config);
        EXPECT_EQ(result.testRuns, 0u);
        EXPECT_EQ(result.misSpeculations, 0u);
        EXPECT_EQ(result.interpretedSteps, 0u);
        EXPECT_EQ(result.recordSeconds, 0.0);
        EXPECT_TRUE(result.sliceResultsMatch);
    }
}

TEST(OptFtRollback, TriggerTruthTable)
{
    // An invariant violation always rolls back.
    EXPECT_TRUE(core::optFtShouldRollBack(true, false, false));
    EXPECT_TRUE(core::optFtShouldRollBack(true, true, false));
    EXPECT_TRUE(core::optFtShouldRollBack(true, false, true));
    EXPECT_TRUE(core::optFtShouldRollBack(true, true, true));
    // A race report forces rollback only under active lock elision —
    // and then globally, regardless of which pair raced (Figure 4:
    // the lost happens-before edge can order unrelated accesses).
    EXPECT_TRUE(core::optFtShouldRollBack(false, true, true));
    EXPECT_FALSE(core::optFtShouldRollBack(false, true, false));
    // No violation and no race: speculation succeeded.
    EXPECT_FALSE(core::optFtShouldRollBack(false, false, true));
    EXPECT_FALSE(core::optFtShouldRollBack(false, false, false));
}

void
expectEqual(const core::RunCost &a, const core::RunCost &b,
            const std::string &label)
{
    EXPECT_EQ(a.base, b.base) << label;
    EXPECT_EQ(a.framework, b.framework) << label;
    EXPECT_EQ(a.analysis, b.analysis) << label;
    EXPECT_EQ(a.invariants, b.invariants) << label;
    EXPECT_EQ(a.rollback, b.rollback) << label;
}

/** Field-by-field OptFtResult equality, excluding interpretedSteps /
 *  replayedEvents (their divergence is the optimization). */
void
expectEqual(const core::OptFtResult &a, const core::OptFtResult &b,
            const std::string &label)
{
    EXPECT_EQ(a.name, b.name) << label;
    EXPECT_EQ(a.staticallyRaceFree, b.staticallyRaceFree) << label;
    EXPECT_EQ(a.soundStaticSeconds, b.soundStaticSeconds) << label;
    EXPECT_EQ(a.predStaticSeconds, b.predStaticSeconds) << label;
    EXPECT_EQ(a.profileSeconds, b.profileSeconds) << label;
    EXPECT_EQ(a.profileRunsUsed, b.profileRunsUsed) << label;
    EXPECT_EQ(a.testRuns, b.testRuns) << label;
    EXPECT_EQ(a.baselineSeconds, b.baselineSeconds) << label;
    expectEqual(a.fastTrack, b.fastTrack, label + " fastTrack");
    expectEqual(a.hybridFt, b.hybridFt, label + " hybridFt");
    expectEqual(a.optFt, b.optFt, label + " optFt");
    EXPECT_EQ(a.misSpeculations, b.misSpeculations) << label;
    EXPECT_EQ(a.raceReportsMatch, b.raceReportsMatch) << label;
    EXPECT_EQ(a.racesObserved, b.racesObserved) << label;
    EXPECT_EQ(a.soundRacyAccesses, b.soundRacyAccesses) << label;
    EXPECT_EQ(a.predRacyAccesses, b.predRacyAccesses) << label;
    EXPECT_EQ(a.elidedLockSites, b.elidedLockSites) << label;
    EXPECT_EQ(a.speedupVsFastTrack, b.speedupVsFastTrack) << label;
    EXPECT_EQ(a.speedupVsHybrid, b.speedupVsHybrid) << label;
    EXPECT_EQ(a.breakEvenVsHybrid, b.breakEvenVsHybrid) << label;
    EXPECT_EQ(a.breakEvenVsFastTrack, b.breakEvenVsFastTrack) << label;
    EXPECT_EQ(a.recordSeconds, b.recordSeconds) << label;
    EXPECT_EQ(a.replayRollbackSeconds, b.replayRollbackSeconds) << label;
}

/** Same for OptSliceResult. */
void
expectEqual(const core::OptSliceResult &a, const core::OptSliceResult &b,
            const std::string &label)
{
    EXPECT_EQ(a.name, b.name) << label;
    EXPECT_EQ(a.profileSeconds, b.profileSeconds) << label;
    EXPECT_EQ(a.profileRunsUsed, b.profileRunsUsed) << label;
    EXPECT_EQ(a.endpoints, b.endpoints) << label;
    EXPECT_EQ(a.testRuns, b.testRuns) << label;
    EXPECT_EQ(a.baselineSeconds, b.baselineSeconds) << label;
    expectEqual(a.hybrid, b.hybrid, label + " hybrid");
    expectEqual(a.optimistic, b.optimistic, label + " optimistic");
    EXPECT_EQ(a.misSpeculations, b.misSpeculations) << label;
    EXPECT_EQ(a.sliceResultsMatch, b.sliceResultsMatch) << label;
    EXPECT_EQ(a.soundSliceSize, b.soundSliceSize) << label;
    EXPECT_EQ(a.optSliceSize, b.optSliceSize) << label;
    EXPECT_EQ(a.dynSpeedup, b.dynSpeedup) << label;
    EXPECT_EQ(a.breakEven, b.breakEven) << label;
    EXPECT_EQ(a.recordSeconds, b.recordSeconds) << label;
    EXPECT_EQ(a.replayRollbackSeconds, b.replayRollbackSeconds) << label;
}

/** Guest steps of one plain run of each testing input. */
std::uint64_t
plainCorpusSteps(const workloads::Workload &workload)
{
    std::uint64_t steps = 0;
    for (const exec::ExecConfig &input : workload.testingSet)
        steps += exec::Interpreter(*workload.module, input).run().steps;
    return steps;
}

/** The execution accounting of a live (@p live) and a record-once
 *  (@p replay) pipeline run over @p plainSteps: the record-once path
 *  interprets each input once, to record it; the live path interprets
 *  each input once in the fused first round and at most once more per
 *  repair round, and exactly once when nothing was repaired. */
template <class Result>
void
expectExecutionAccounting(const Result &live, const Result &replay,
                          std::uint64_t plainSteps, const std::string &label)
{
    EXPECT_EQ(replay.interpretedSteps, plainSteps) << label;
    EXPECT_GE(live.interpretedSteps, plainSteps) << label;
    EXPECT_LE(live.interpretedSteps, plainSteps * (1 + live.repredications))
        << label;
    if (live.repredications == 0)
        EXPECT_EQ(live.interpretedSteps, plainSteps) << label;
    EXPECT_EQ(replay.replayedEvents > 0, replay.testRuns > 0) << label;
    EXPECT_EQ(live.replayedEvents, 0u) << label;
}

TEST(PipelineParity, OptFtReplayMatchesDirectAt1And4Threads)
{
    for (const char *name : {"raytracer", "pmd"}) {
        const auto workload = workloads::makeRaceWorkload(name, 8, 4);
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            core::OptFtConfig direct;
            direct.useTraceReplay = false;
            direct.threads = threads;
            core::OptFtConfig replay;
            replay.useTraceReplay = true;
            replay.threads = threads;

            const auto a = core::runOptFt(workload, direct);
            const auto b = core::runOptFt(workload, replay);
            const std::string label = std::string(name) + " @" +
                                      std::to_string(threads) + "t";
            expectEqual(a, b, label);
            expectExecutionAccounting(a, b, plainCorpusSteps(workload),
                                      label);
        }
    }
}

TEST(PipelineParity, OptSliceReplayMatchesDirectAt1And4Threads)
{
    // zlib: the clean fast path.  go: under-profiled, so replayed
    // runs abort and roll back (the replay-based rollback path).
    for (const char *name : {"zlib", "go"}) {
        const auto workload = workloads::makeSliceWorkload(name, 4, 6);
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            core::OptSliceConfig direct;
            direct.useTraceReplay = false;
            direct.threads = threads;
            core::OptSliceConfig replay;
            replay.useTraceReplay = true;
            replay.threads = threads;

            const auto a = core::runOptSlice(workload, direct);
            const auto b = core::runOptSlice(workload, replay);
            const std::string label = std::string(name) + " @" +
                                      std::to_string(threads) + "t";
            expectEqual(a, b, label);
            expectExecutionAccounting(a, b, plainCorpusSteps(workload),
                                      label);
        }
    }
}

/** A slicing workload with @p outputs Output endpoints; testing
 *  inputs with a nonzero word take a block profiling never saw, so
 *  their optimistic runs abort and roll back. */
workloads::Workload
manyOutputWorkload(std::size_t outputs)
{
    std::string text = "global cell[" + std::to_string(outputs) +
                       "]\n\nfunc main() {\n  entry:\n"
                       "    r0 = input[0]\n    r1 = &cell\n"
                       "    condbr r0, cold, warm\n  cold:\n"
                       "    r2 = 13\n    *r1 = r2\n    br warm\n  warm:\n";
    ir::Reg next = 3;
    for (std::size_t k = 0; k < outputs; ++k) {
        const std::string addr = "r" + std::to_string(next++);
        const std::string num = "r" + std::to_string(next++);
        const std::string sum = "r" + std::to_string(next++);
        const std::string val = "r" + std::to_string(next++);
        text += "    " + addr + " = &r1[" + std::to_string(k) + "]\n" +
                "    " + num + " = " + std::to_string(k) + "\n" +
                "    " + sum + " = " + num + " + r0\n" +
                "    *" + addr + " = " + sum + "\n" +
                "    " + val + " = *" + addr + "\n" +
                "    output " + val + "\n";
    }
    text += "    ret\n}\n";

    workloads::Workload workload;
    workload.name = "many-outputs";
    workload.module = ir::parseModule(text);
    auto input = [](std::int64_t word) {
        exec::ExecConfig config;
        config.input = {word};
        return config;
    };
    for (std::int64_t word : {0, 0, 0})
        workload.profilingSet.push_back(input(word));
    for (std::int64_t word : {0, 1, 0, 2})
        workload.testingSet.push_back(input(word));
    return workload;
}

TEST(PipelineParity, OptSliceFusedReplayBeyondEightAttachments)
{
    // maxEndpoints = 5: nginx reads all four of its outputs off one
    // hybrid and one optimistic union graph per input; go is
    // under-profiled and rolls back.  The synthetic workload reads 40
    // endpoints off each union graph (still 3 attachments per replay)
    // and rolls back too, so its repair rounds restart mid-input.
    struct Case
    {
        workloads::Workload workload;
        std::size_t maxEndpoints;
        std::size_t endpoints;
    };
    std::vector<Case> cases;
    cases.push_back({workloads::makeSliceWorkload("nginx", 4, 6), 5, 4});
    cases.push_back({workloads::makeSliceWorkload("go", 4, 6), 5, 3});
    cases.push_back({manyOutputWorkload(40), 40, 40});
    for (const Case &c : cases) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            core::OptSliceConfig direct;
            direct.useTraceReplay = false;
            direct.threads = threads;
            direct.maxEndpoints = c.maxEndpoints;
            direct.minSliceSize = 0;
            core::OptSliceConfig replay = direct;
            replay.useTraceReplay = true;

            const auto a = core::runOptSlice(c.workload, direct);
            const auto b = core::runOptSlice(c.workload, replay);
            const std::string label = c.workload.name + " @" +
                                      std::to_string(threads) + "t";
            ASSERT_EQ(b.endpoints, c.endpoints) << label;
            expectEqual(a, b, label);
            EXPECT_TRUE(b.sliceResultsMatch) << label;
            if (c.workload.name != "nginx")
                EXPECT_GT(b.misSpeculations, 0u) << label;
        }
    }
}

TEST(PipelineParity, OptSliceWithoutOutputReportsZeroSliceSizes)
{
    // No Output, so no endpoint: the mean slice sizes are 0, not 0/0,
    // and every path agrees field by field (NaN would equal nothing).
    workloads::Workload workload;
    workload.name = "no-outputs";
    workload.module = ir::parseModule("func main() {\n  entry:\n"
                                      "    r0 = input[0]\n"
                                      "    r1 = r0 + r0\n    ret\n}\n");
    exec::ExecConfig input;
    input.input = {3};
    workload.profilingSet = {input, input};
    workload.testingSet = {input, input};

    core::OptSliceConfig direct;
    direct.useTraceReplay = false;
    const core::OptSliceConfig replay;
    const auto a = core::runOptSlice(workload, direct);
    const auto b = core::runOptSlice(workload, replay);
    EXPECT_EQ(b.endpoints, 0u);
    EXPECT_EQ(b.soundSliceSize, 0.0);
    EXPECT_EQ(b.optSliceSize, 0.0);
    expectEqual(a, b, "direct vs replay");

    service::AnalysisService daemon;
    service::AnalysisRequest request;
    request.workload = workload;
    const service::ServiceRunResult served = daemon.submit(request).get();
    ASSERT_EQ(served.outcome, service::RequestOutcome::Done);
    ASSERT_TRUE(served.slice.has_value());
    expectEqual(*served.slice, b, "service vs batch");
}

/** Requests an abort through its control on its @p k-th event. */
class AbortAtEvent : public exec::Tool
{
  public:
    explicit AbortAtEvent(std::uint64_t k) : k_(k) {}

    void setControl(exec::ExecutionControl *control) { control_ = control; }

    void
    onEvent(const exec::EventCtx &ctx) override
    {
        if (++seen_ == k_)
            control_->requestAbort("abort at event " + std::to_string(k_),
                                   {7, ctx.instr->id, 0, k_, ctx.tid});
    }

  private:
    std::uint64_t k_;
    std::uint64_t seen_ = 0;
    exec::ExecutionControl *control_ = nullptr;
};

/** One attachment group of a fused replay: FastTrack under @p plan,
 *  optionally followed by a tool aborting at its abortAt-th event
 *  (0 = no abort). */
struct GroupSpec
{
    const exec::InstrumentationPlan *plan;
    std::uint64_t abortAt = 0;
};

struct GroupOutcome
{
    exec::RunResult result;
    std::set<std::pair<InstrId, InstrId>> races;
};

void
expectEqual(const GroupOutcome &separate, const GroupOutcome &fused,
            const std::string &label)
{
    const exec::RunResult &a = separate.result;
    const exec::RunResult &b = fused.result;
    EXPECT_EQ(a.status, b.status) << label;
    EXPECT_EQ(a.abortReason, b.abortReason) << label;
    EXPECT_EQ(a.abortMeta, b.abortMeta) << label;
    EXPECT_EQ(a.outputs, b.outputs) << label;
    EXPECT_EQ(a.steps, b.steps) << label;
    EXPECT_EQ(eventVec(a.totalEvents), eventVec(b.totalEvents)) << label;
    ASSERT_EQ(a.delivered.size(), b.delivered.size()) << label;
    for (std::size_t i = 0; i < a.delivered.size(); ++i)
        EXPECT_EQ(eventVec(a.delivered[i]), eventVec(b.delivered[i]))
            << label << " tool " << i;
    EXPECT_EQ(a.numThreads, b.numThreads) << label;
    EXPECT_EQ(a.schedule, b.schedule) << label;
    EXPECT_EQ(separate.races, fused.races) << label;
}

/** Replay @p trace once with every spec as its own group (fused), or
 *  once per spec (separate); one outcome per spec either way. */
std::vector<GroupOutcome>
replayGroups(const ir::Module &module, const exec::RecordedTrace &trace,
             const std::vector<GroupSpec> &specs, bool fused)
{
    std::vector<dyn::FastTrack> tools(specs.size());
    std::vector<AbortAtEvent> aborters;
    for (const GroupSpec &spec : specs)
        aborters.emplace_back(spec.abortAt);
    const exec::InstrumentationPlan all =
        exec::InstrumentationPlan::all(module);

    std::vector<exec::RunResult> results;
    auto attachSpec = [&](exec::TraceReplayer &replayer, std::size_t g,
                          exec::TraceReplayer::GroupId group) {
        replayer.attach(group, &tools[g], specs[g].plan);
        if (specs[g].abortAt != 0) {
            aborters[g].setControl(&replayer.control(group));
            replayer.attach(group, &aborters[g], &all);
        }
    };
    if (fused) {
        exec::TraceReplayer replayer(module, trace);
        for (std::size_t g = 0; g < specs.size(); ++g)
            attachSpec(replayer, g, g == 0 ? 0 : replayer.addGroup());
        results = replayer.runGroups();
    } else {
        for (std::size_t g = 0; g < specs.size(); ++g) {
            exec::TraceReplayer replayer(module, trace);
            attachSpec(replayer, g, 0);
            results.push_back(replayer.run());
        }
    }
    std::vector<GroupOutcome> out(specs.size());
    for (std::size_t g = 0; g < specs.size(); ++g) {
        out[g].result = std::move(results[g]);
        out[g].races = tools[g].racePairs();
    }
    return out;
}

/** Sets an environment variable for one scope. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        setenv(name, value, 1);
    }
    ~ScopedEnv() { unsetenv(name_); }

  private:
    const char *name_;
};

TEST(FusedReplay, GroupsMatchSeparateReplaysAtEveryAbortPoint)
{
    // Per group, one fused pass must equal a standalone replay of
    // that group: aborts on the first, a middle and the last event,
    // groups that never abort, and every group aborting early — over
    // many-segment captures, with the fused replays of one capture
    // running concurrently at 1 and 4 workers.
    const ScopedEnv smallSegments("OHA_TRACE_SEGMENT_BYTES", "4096");
    std::size_t spilledCaptures = 0;
    for (const char *name : {"raytracer", "pmd", "lusearch"}) {
        const auto workload = workloads::makeRaceWorkload(name, 1, 2);
        const ir::Module &module = *workload.module;
        const auto fullPlan = dyn::fullFastTrackPlan(module);
        const auto none = exec::InstrumentationPlan::none(module);
        for (const exec::ExecConfig &config : workload.testingSet) {
            const exec::RecordedTrace trace =
                exec::recordRun(module, config);
            spilledCaptures += trace.events.numSegments() > 1;
            const std::uint64_t steps = trace.result.steps;
            const std::uint64_t events =
                trace.result.totalEvents.total() -
                trace.result.totalEvents[exec::EventClass::BlockEnter];
            const std::vector<std::vector<GroupSpec>> scenarios = {
                // Aborts on the first, a middle and the last event
                // beside a group that runs to the end.
                {{&fullPlan}, {&fullPlan, 1}, {&fullPlan, events / 2},
                 {&fullPlan, events}},
                // Every group aborts early, group 0 included.
                {{&fullPlan, events / 3}, {&none, events / 4},
                 {&fullPlan, 2}, {&fullPlan, events / 3}},
            };
            for (const std::size_t threads :
                 {std::size_t{1}, std::size_t{4}}) {
                const auto fused = support::runBatch(
                    scenarios.size(),
                    [&](std::size_t s) {
                        return replayGroups(module, trace, scenarios[s],
                                            true);
                    },
                    threads);
                for (std::size_t s = 0; s < scenarios.size(); ++s) {
                    const auto separate =
                        replayGroups(module, trace, scenarios[s], false);
                    for (std::size_t g = 0; g < separate.size(); ++g)
                        expectEqual(separate[g], fused[s][g],
                                    std::string(name) + " scenario " +
                                        std::to_string(s) + " group " +
                                        std::to_string(g) + " @" +
                                        std::to_string(threads) + "t");
                }
                // The aborting groups really were truncated, and the
                // abort on the last step still counts every step.
                EXPECT_EQ(fused[0][0].result.status,
                          exec::RunResult::Status::Finished);
                EXPECT_LT(fused[0][1].result.steps, steps / 100);
                EXPECT_EQ(fused[0][3].result.status,
                          exec::RunResult::Status::Aborted);
                EXPECT_EQ(fused[0][3].result.steps, steps);
                for (const GroupOutcome &group : fused[1]) {
                    EXPECT_EQ(group.result.status,
                              exec::RunResult::Status::Aborted);
                    EXPECT_LT(group.result.steps, steps / 2) << name;
                }
            }
        }
    }
    EXPECT_GT(spilledCaptures, 0u) << "no capture spanned two segments";
}

TEST(FusedReplay, AbortOnASegmentLastStep)
{
    // The abort lands in the last step of segment 0, so the group
    // stops at the first record of the next segment.
    const auto workload = workloads::makeRaceWorkload("raytracer", 1, 1);
    const ir::Module &module = *workload.module;
    const exec::ExecConfig &config = workload.testingSet.front();
    const auto fullPlan = dyn::fullFastTrackPlan(module);
    const exec::RecordedTrace whole = exec::recordRun(module, config);
    const std::uint64_t k = whole.result.totalEvents[exec::EventClass::Load];
    const std::uint64_t step =
        replayGroups(module, whole, {{&fullPlan, k}}, false)[0]
            .result.steps;
    exec::TraceStoreOptions options;
    options.segmentBytes =
        exec::testing::byteOffsetAfterStep(module, whole.events, step);
    const exec::RecordedTrace trace =
        exec::recordRun(module, config, options);
    ASSERT_GT(trace.events.numSegments(), 1u);
    ASSERT_EQ(trace.events.header(0).steps, step);

    const std::vector<GroupSpec> specs = {
        {&fullPlan}, {&fullPlan, k}, {&fullPlan, k + 1}};
    const auto fused = replayGroups(module, trace, specs, true);
    const auto separate = replayGroups(module, trace, specs, false);
    for (std::size_t g = 0; g < specs.size(); ++g)
        expectEqual(separate[g], fused[g],
                    "segment-last group " + std::to_string(g));
    EXPECT_EQ(fused[1].result.steps, step);

    // A live run of the same tools stops at the same boundary.
    dyn::FastTrack tool;
    AbortAtEvent aborter(k);
    const auto all = exec::InstrumentationPlan::all(module);
    exec::Interpreter interp(module, config);
    interp.attach(&tool, &fullPlan);
    aborter.setControl(&interp);
    interp.attach(&aborter, &all);
    GroupOutcome live;
    live.result = interp.run();
    live.races = tool.racePairs();
    expectEqual(live, fused[1], "segment-last vs live");
}

/** @p bytes with its leading u32 (the capture meta version) set to
 *  @p version. */
std::string
withVersion(std::string bytes, std::uint32_t version)
{
    support::ByteWriter out;
    out.u32(version);
    bytes.replace(0, out.data().size(), out.data());
    return bytes;
}

TEST(TraceReplayEdge, OldFormatCaptureAndSnapshotAreRejected)
{
    // Captures and snapshot entries written before the sidecar index
    // was dropped carry meta version 1; both load paths must reject
    // them cleanly, so they are recomputed rather than misread.
    const auto workload = workloads::makeRaceWorkload("raytracer", 1, 1);
    const exec::RecordedTrace trace =
        exec::recordRun(*workload.module, workload.testingSet.front());
    const std::string dir = ::testing::TempDir();
    const std::string tag = std::to_string(::getpid());

    // Persisted capture: rewrite a current file with its meta block
    // stamped as version 1.
    const std::string current = dir + "/oha-current-" + tag + ".capture";
    const std::string old = dir + "/oha-v1-" + tag + ".capture";
    ASSERT_TRUE(exec::persistTrace(trace, current));
    ASSERT_TRUE(exec::loadTrace(current));
    {
        auto reader = support::DurableReader::open(
            current, support::kDurableKindCapture);
        ASSERT_TRUE(reader);
        support::DurableWriter writer(old, support::kDurableKindCapture);
        for (std::size_t b = 0; b < reader->numBlocks(); ++b) {
            std::string block;
            ASSERT_TRUE(reader->readBlock(b, block));
            writer.addBlock(b == 0 ? withVersion(block, 1) : block);
        }
        ASSERT_TRUE(writer.commit());
    }
    std::string error;
    EXPECT_FALSE(exec::loadTrace(old, &error));
    EXPECT_NE(error.find("corrupt meta block"), std::string::npos) << error;

    // Snapshot: one trace entry whose embedded capture is version 1.
    // The container verifies; the entry alone is rejected.
    support::ByteWriter blob;
    ASSERT_TRUE(exec::serializeRecordedTrace(trace, blob));
    const std::string oldBlob = withVersion(blob.data(), 1);
    {
        support::ByteReader in(blob.data());
        EXPECT_TRUE(exec::deserializeRecordedTrace(in));
        support::ByteReader oldIn(oldBlob);
        EXPECT_FALSE(exec::deserializeRecordedTrace(oldIn));
    }
    const std::string snapshot = dir + "/oha-v1-" + tag + ".snapshot";
    {
        support::DurableWriter writer(snapshot,
                                      support::kDurableKindSnapshot);
        support::ByteWriter meta;
        meta.u32(service::kSnapshotVersion);
        meta.u64(1); // one entry
        writer.addBlock(meta.data());
        support::ByteWriter entry;
        entry.u8(1); // trace entry
        for (int i = 0; i < 4; ++i)
            entry.u64(0); // module + config fingerprints
        entry.bytes(oldBlob.data(), oldBlob.size());
        writer.addBlock(entry.data());
        ASSERT_TRUE(writer.commit());
    }
    const service::SnapshotStats before = service::snapshotStats();
    EXPECT_TRUE(service::loadSnapshot(snapshot, &error)) << error;
    const service::SnapshotStats after = service::snapshotStats();
    EXPECT_EQ(after.entriesRejected, before.entriesRejected + 1);
    EXPECT_EQ(after.entriesRestored, before.entriesRestored);

    std::remove(current.c_str());
    std::remove(old.c_str());
    std::remove(snapshot.c_str());
}

} // namespace
} // namespace oha
