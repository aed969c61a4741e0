/**
 * @file
 * Replay parity: driving FastTrack, Giri and the invariant checker
 * from a TraceReplayer must be byte-identical to running the same
 * tools on a live Interpreter — race reports, slice sets,
 * delivered-event accounting, step counts, outputs, thread counts and
 * the checker's verdict — on every workload, including runs that
 * violate an invariant.
 *
 * Also covers the capture/replay edge cases: recordings truncated by
 * an abort or a step limit, and snapshots holding a trace entry in an
 * older format.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "dyn/fasttrack.h"
#include "dyn/giri.h"
#include "dyn/invariant_checker.h"
#include "dyn/plans.h"
#include "exec/trace.h"
#include "ir/builder.h"
#include "profile/profiler.h"
#include "service/snapshot.h"
#include "support/durable_file.h"
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

/** FastTrack + invariant checker (no abort control, as a replay has
 *  none), live or replayed. */
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
        replayer.attach(&checker, &checker.plan());
        result = replayer.run();
    } else {
        exec::Interpreter interp(module, *config);
        interp.attach(&tool, &plan);
        interp.attach(&checker, &checker.plan());
        result = interp.run();
    }
    fillCommon(snap, result);
    snap.races = tool.racePairs();
    snap.violated = checker.violated();
    snap.slowChecks = checker.slowContextChecks();
    return snap;
}

/** Giri + invariant checker (no abort control), live or replayed. */
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
        replayer.attach(&checker, &checker.plan());
        result = replayer.run();
    } else {
        exec::Interpreter interp(module, *config);
        interp.attach(&tool, &plan);
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
    std::size_t violated = 0;
    for (const auto &name : workloads::raceWorkloadNames()) {
        const auto workload = workloads::makeRaceWorkload(name, 2, 3);
        const ir::Module &module = *workload.module;
        // Deliberately under-profiled so some testing inputs violate
        // invariants: the checker must see the same violations on
        // both paths.
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
                ++violated;
        }
    }
    // The comparisons must not be vacuous.
    EXPECT_GT(totalRaces, 0u);
    EXPECT_GT(violated, 0u)
        << "no under-profiled run violated an invariant";
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

TEST(TraceReplayEdge, OldFormatCaptureAndSnapshotAreRejected)
{
    // A snapshot written while captures were cached may hold a trace
    // entry (tag 1) — here one in the older meta-version-1 layout.
    // The container verifies; that entry alone is rejected.
    const std::string snapshot = ::testing::TempDir() + "/oha-v1-" +
                                 std::to_string(::getpid()) + ".snapshot";
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
        entry.u32(1);     // capture meta version 1
        writer.addBlock(entry.data());
        ASSERT_TRUE(writer.commit());
    }
    const service::SnapshotStats before = service::snapshotStats();
    std::string error;
    EXPECT_TRUE(service::loadSnapshot(snapshot, &error)) << error;
    const service::SnapshotStats after = service::snapshotStats();
    EXPECT_EQ(after.entriesRejected, before.entriesRejected + 1);
    EXPECT_EQ(after.entriesRestored, before.entriesRestored);
    std::remove(snapshot.c_str());
}

} // namespace
} // namespace oha
