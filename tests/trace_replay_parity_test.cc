/**
 * @file
 * Replay parity: driving FastTrack, Giri and the invariant checker
 * from a TraceReplayer must be byte-identical to running the same
 * tools on a live Interpreter — race reports, slice sets,
 * delivered-event accounting, step counts, outputs, thread counts and
 * the checker's verdict — on every workload, including runs that
 * violate an invariant.
 *
 * Also covers a recording truncated by a step limit, and a replay
 * that diverges from its recording.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dyn/fasttrack.h"
#include "dyn/giri.h"
#include "dyn/invariant_checker.h"
#include "dyn/plans.h"
#include "exec/trace.h"
#include "profile/profiler.h"
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

TEST(TraceReplayEdgeDeathTest, DivergentReplayDies)
{
    const auto workload = workloads::makeRaceWorkload("raytracer", 1, 1);
    exec::RecordedTrace trace =
        exec::recordRun(*workload.module, workload.testingSet.front());
    ++trace.result.steps;
    exec::TraceReplayer replayer(*workload.module, trace);
    EXPECT_DEATH(replayer.run(), "assertion failed");
}

} // namespace
} // namespace oha
