/**
 * @file
 * Segmented spill-to-disk capture + mmap-backed replay.
 *
 * Covers the segment-boundary edges of the TraceStore: captures
 * larger than OHA_TRACE_SEGMENT_BYTES demonstrably spill (segment
 * count > 1) and replay field-exact against live runs; an abort
 * landing exactly on a segment's last step truncates identically; a
 * thread whose first event lands in segment k > 0 replays correctly;
 * a final segment that would be empty is dropped; spill-disabled
 * captures keep the single-segment in-RAM behavior; and peak
 * mmap-resident trace bytes during replay are bounded by
 * O(segment size × concurrent replays), not O(trace size).  The
 * pipeline-level parity (direct vs replay over spilled captures) is
 * checked at 1 and 4 worker threads.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/optft.h"
#include "dyn/fasttrack.h"
#include "dyn/invariant_checker.h"
#include "dyn/plans.h"
#include "exec/trace.h"
#include "ir/builder.h"
#include "profile/profiler.h"
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

/** Everything observable from one checked FastTrack run. */
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
    bool violated = false;
};

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
    EXPECT_EQ(live.violated, replayed.violated) << label;
}

/** FastTrack + invariant checker, live (config) or replayed (trace). */
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
    snap.status = static_cast<int>(result.status);
    snap.abortReason = result.abortReason;
    snap.outputs = result.outputs;
    snap.steps = result.steps;
    snap.numThreads = result.numThreads;
    snap.totalEvents = eventVec(result.totalEvents);
    for (const exec::EventCounts &counts : result.delivered)
        snap.delivered.push_back(eventVec(counts));
    snap.races = tool.racePairs();
    snap.violated = checker.violated();
    return snap;
}

inv::InvariantSet
profiled(const ir::Module &module,
         const std::vector<exec::ExecConfig> &inputs)
{
    prof::ProfilingCampaign campaign(module, {});
    for (const auto &config : inputs)
        campaign.addRun(config);
    return campaign.invariants();
}

constexpr std::size_t kTinySegment = 2048;

TEST(SegmentedCapture, SpillsAndIndexesSegments)
{
    const auto workload = workloads::makeRaceWorkload("raytracer", 1, 1);
    const ir::Module &module = *workload.module;
    exec::TraceStoreOptions options;
    options.segmentBytes = kTinySegment;
    const exec::RecordedTrace trace =
        exec::recordRun(module, workload.testingSet.front(), options);
    const exec::TraceStore &store = trace.events;

    ASSERT_GT(store.numSegments(), 1u);
    EXPECT_TRUE(store.spilled());
    // Everything but the trailing segment went to disk.
    EXPECT_LT(store.residentBytes(), store.sizeBytes());
    EXPECT_LT(store.residentBytes(), kTinySegment + 256);

    std::uint64_t bytes = 0;
    std::uint64_t steps = 0;
    std::uint64_t records = 0;
    std::uint64_t tidUnion = 0;
    for (std::size_t i = 0; i < store.numSegments(); ++i) {
        const exec::SegmentHeader &header = store.header(i);
        EXPECT_GT(header.records, 0u) << "segment " << i;
        // Segments close at the first record boundary past the
        // threshold, so they overshoot by at most one record.
        EXPECT_LE(header.bytes, kTinySegment + 256) << "segment " << i;
        if (header.firstInstr != kNoInstr) {
            EXPECT_LT(header.firstInstr, module.numInstrs());
            EXPECT_LT(header.lastInstr, module.numInstrs());
        }
        bytes += header.bytes;
        steps += header.steps;
        records += header.records;
        tidUnion |= header.tidBitmap;
    }
    EXPECT_EQ(bytes, store.sizeBytes());
    EXPECT_EQ(steps, trace.result.steps);
    EXPECT_GT(records, 0u);
    EXPECT_NE(tidUnion, 0u);
}

TEST(SegmentedCapture, SpilledReplayMatchesLiveOnAllRaceWorkloads)
{
    std::size_t spilledCaptures = 0;
    for (const auto &name : workloads::raceWorkloadNames()) {
        const auto workload = workloads::makeRaceWorkload(name, 2, 3);
        const ir::Module &module = *workload.module;
        const auto invariants = profiled(module, workload.profilingSet);
        const auto plan = dyn::fullFastTrackPlan(module);
        exec::TraceStoreOptions options;
        options.segmentBytes = kTinySegment;
        for (const exec::ExecConfig &config : workload.testingSet) {
            const exec::RecordedTrace trace =
                exec::recordRun(module, config, options);
            spilledCaptures += trace.events.numSegments() > 1;
            const RunSnapshot live =
                ftSnapshot(module, invariants, plan, &config, nullptr);
            const RunSnapshot replayed =
                ftSnapshot(module, invariants, plan, nullptr, &trace);
            expectEqual(live, replayed, name + " (spilled)");
        }
    }
    EXPECT_GT(spilledCaptures, 0u)
        << "no capture crossed the segment threshold; the spill path "
           "is untested";
}

TEST(SegmentedCapture, AbortExactlyOnSegmentLastStep)
{
    // The LUC-abort module from the parity suite: trained on input 0,
    // input 1 enters the cold block and the checker aborts.
    using namespace ir;
    Module module;
    IRBuilder b(module);
    b.createFunction("main", 0);
    BasicBlock *cold = b.createBlock(b.currentFunction(), "cold");
    BasicBlock *done = b.createBlock(b.currentFunction(), "done");
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

    const RunSnapshot live =
        ftSnapshot(module, invariants, plan, &violating, nullptr);
    ASSERT_TRUE(live.violated);
    ASSERT_GT(live.steps, 0u);

    // Engineer the spill threshold so segment 0 ends exactly after
    // the aborting step's records: the replay's truncation point then
    // coincides with the segment boundary (the abort fires on the
    // step flag of segment 1's first record).
    const exec::RecordedTrace flat = exec::recordRun(module, violating);
    const std::size_t boundary = exec::testing::byteOffsetAfterStep(
        module, flat.events, live.steps);
    ASSERT_GT(boundary, 0u);
    ASSERT_LT(boundary, flat.events.sizeBytes());

    exec::TraceStoreOptions options;
    options.segmentBytes = boundary;
    const exec::RecordedTrace segmented =
        exec::recordRun(module, violating, options);
    ASSERT_GT(segmented.events.numSegments(), 1u);
    EXPECT_EQ(segmented.events.header(0).bytes, boundary);
    EXPECT_EQ(segmented.events.header(0).steps, live.steps);

    const RunSnapshot replayed =
        ftSnapshot(module, invariants, plan, nullptr, &segmented);
    expectEqual(live, replayed, "abort on segment boundary");
    EXPECT_EQ(replayed.steps, live.steps);
}

TEST(SegmentedCapture, ThreadFirstEventInLaterSegment)
{
    // Main pads out more than one tiny segment of records before
    // spawning, so the worker thread's entire event stream — its
    // ThreadStart included — lands in segment k > 0.
    using namespace ir;
    Module module;
    IRBuilder b(module);
    Function *worker = b.createFunction("worker", 0);
    b.output(b.constInt(99));
    b.ret();
    b.createFunction("main", 0);
    for (int i = 0; i < 400; ++i)
        b.output(b.constInt(i));
    const Reg handle = b.spawn(worker);
    b.join(handle);
    b.output(b.constInt(7));
    b.ret();
    module.finalize();

    exec::ExecConfig config;
    exec::TraceStoreOptions options;
    options.segmentBytes = 512;
    const exec::RecordedTrace trace =
        exec::recordRun(module, config, options);
    const exec::TraceStore &store = trace.events;
    ASSERT_GT(store.numSegments(), 1u);
    ASSERT_EQ(trace.result.numThreads, 2u);

    // The worker (tid 1) must be absent from every segment before
    // the one carrying its first event.
    std::size_t firstSeen = store.numSegments();
    for (std::size_t i = 0; i < store.numSegments(); ++i) {
        if (store.header(i).tidBitmap & 2u) {
            firstSeen = i;
            break;
        }
    }
    ASSERT_LT(firstSeen, store.numSegments());
    EXPECT_GT(firstSeen, 0u)
        << "spawn landed in segment 0; shrink the threshold";

    const auto invariants = profiled(module, {config});
    const auto plan = dyn::fullFastTrackPlan(module);
    const RunSnapshot live =
        ftSnapshot(module, invariants, plan, &config, nullptr);
    const RunSnapshot replayed =
        ftSnapshot(module, invariants, plan, nullptr, &trace);
    expectEqual(live, replayed, "late-spawned thread");
    EXPECT_EQ(replayed.numThreads, 2u);
}

TEST(SegmentedCapture, EmptyFinalSegmentIsDropped)
{
    const auto workload = workloads::makeRaceWorkload("pmd", 1, 1);
    const ir::Module &module = *workload.module;
    const exec::ExecConfig &config = workload.testingSet.front();

    const exec::RecordedTrace flat = exec::recordRun(module, config);
    ASSERT_EQ(flat.events.numSegments(), 1u);
    const std::size_t total = flat.events.sizeBytes();

    // Threshold exactly equal to the stream length: the one segment
    // closes (and spills) right after the last record, and the empty
    // trailing open segment must be dropped, not stored.
    exec::TraceStoreOptions options;
    options.segmentBytes = total;
    const exec::RecordedTrace edge =
        exec::recordRun(module, config, options);
    EXPECT_EQ(edge.events.numSegments(), 1u);
    EXPECT_TRUE(edge.events.spilled());
    EXPECT_EQ(edge.events.sizeBytes(), total);
    EXPECT_EQ(edge.events.header(0).steps, edge.result.steps);
    EXPECT_EQ(edge.events.residentBytes(), 0u);

    const auto invariants = profiled(module, workload.profilingSet);
    const auto plan = dyn::fullFastTrackPlan(module);
    const RunSnapshot live =
        ftSnapshot(module, invariants, plan, &config, nullptr);
    const RunSnapshot replayed =
        ftSnapshot(module, invariants, plan, nullptr, &edge);
    expectEqual(live, replayed, "exact-threshold capture");
}

TEST(SegmentedCapture, SpillDisabledCaptureKeepsInMemoryBehavior)
{
    const auto workload = workloads::makeRaceWorkload("raytracer", 2, 2);
    const ir::Module &module = *workload.module;
    const exec::ExecConfig &config = workload.testingSet.front();

    // Default threshold (64 MiB): nothing here comes close, so the
    // capture must stay a single in-RAM segment with no spill file.
    const exec::RecordedTrace trace = exec::recordRun(module, config);
    EXPECT_EQ(trace.events.numSegments(), 1u);
    EXPECT_FALSE(trace.events.spilled());
    EXPECT_EQ(trace.events.residentBytes(), trace.events.sizeBytes());

    const auto invariants = profiled(module, workload.profilingSet);
    const auto plan = dyn::fullFastTrackPlan(module);
    const RunSnapshot live =
        ftSnapshot(module, invariants, plan, &config, nullptr);
    const RunSnapshot replayed =
        ftSnapshot(module, invariants, plan, nullptr, &trace);
    expectEqual(live, replayed, "spill-disabled capture");
}

TEST(SegmentedCapture, ReplayMappedBytesBoundedBySegmentTimesShards)
{
    const auto workload = workloads::makeRaceWorkload("raytracer", 1, 1);
    const ir::Module &module = *workload.module;
    const auto plan = dyn::fullFastTrackPlan(module);
    exec::TraceStoreOptions options;
    options.segmentBytes = kTinySegment;
    const exec::RecordedTrace trace =
        exec::recordRun(module, workload.testingSet.front(), options);
    ASSERT_TRUE(trace.events.spilled());
    ASSERT_GT(trace.events.numSegments(), 2u);

    // One mmap window per live cursor, page-rounded: segment bytes
    // plus at most one page of alignment slack.
    const std::size_t perReplayBound = kTinySegment + 256 + 4096;

    exec::testing::resetMappedTraceBytesPeak();
    {
        dyn::FastTrack tool;
        exec::TraceReplayer replayer(module, trace);
        replayer.attach(&tool, &plan);
        replayer.run();
    }
    const std::size_t serialPeak = exec::testing::mappedTraceBytesPeak();
    EXPECT_GT(serialPeak, 0u);
    EXPECT_LE(serialPeak, perReplayBound);

    // Four concurrent replays of the same capture, each driving two
    // attachment groups: the bound scales with the replay count —
    // never with the group count or the trace size.
    constexpr std::size_t kReplays = 4;
    exec::testing::resetMappedTraceBytesPeak();
    support::runBatch(
        kReplays,
        [&](std::size_t r) {
            dyn::FastTrack full, other;
            exec::TraceReplayer replayer(module, trace);
            replayer.attach(&full, &plan);
            replayer.attach(replayer.addGroup(), &other, &plan);
            replayer.runGroups();
            return r;
        },
        kReplays);
    const std::size_t concurrentPeak = exec::testing::mappedTraceBytesPeak();
    EXPECT_GT(concurrentPeak, 0u);
    EXPECT_LE(concurrentPeak, kReplays * perReplayBound);
    EXPECT_LT(kReplays * perReplayBound, trace.events.sizeBytes())
        << "trace too small for the bound to be meaningful";
    EXPECT_EQ(exec::testing::mappedTraceBytesNow(), 0u);
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
 *  replayedEvents (their divergence is the optimization itself). */
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

TEST(SegmentedPipeline, SpilledReplayFieldExactVsLiveAt1And4Threads)
{
    // Force every capture in the pipeline through the spill path and
    // compare the whole OptFT result against the direct (live
    // interpreter) evaluation, serial and at 4 worker threads.
    ASSERT_EQ(setenv("OHA_TRACE_SEGMENT_BYTES", "4096", 1), 0);
    const auto workload = workloads::makeRaceWorkload("raytracer", 8, 4);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        core::OptFtConfig direct;
        direct.useTraceReplay = false;
        direct.threads = threads;
        core::OptFtConfig replay;
        replay.useTraceReplay = true;
        replay.threads = threads;
        // Private captures: the shared cache must not serve a trace
        // recorded by another test under a different threshold.
        replay.cacheTraceCaptures = false;

        const auto a = core::runOptFt(workload, direct);
        const auto b = core::runOptFt(workload, replay);
        expectEqual(a, b,
                    "spilled pipeline @" + std::to_string(threads) + "t");
    }
    unsetenv("OHA_TRACE_SEGMENT_BYTES");
}

} // namespace
} // namespace oha
