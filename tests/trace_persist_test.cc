/**
 * @file
 * Durable trace captures: persist-to-path, open-from-path, and every
 * way the disk can betray us.
 *
 * Pins the tentpole contract for capture files: a persisted capture
 * reloaded in the same or a fresh TraceStore replays field-exact
 * against the live run (multi-segment spilled captures and
 * value-carrying captures included); fault-injected interruption at
 * EVERY persist-path operation index fails gracefully, leaves any
 * previously published capture intact and no temp litter, and
 * surfaces the injected errno; a corrupted or truncated capture file
 * is rejected at load (or, for flips confined to unchecksummed
 * padding, replays identically) — never a crash, never silently
 * corrupt events.  Also covers satellite 1: mid-capture ENOSPC on the
 * spill file degrades to RAM segments with the fallback counted and
 * the errno recorded, and the capture still replays exactly.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "dyn/fasttrack.h"
#include "dyn/fault_injector.h"
#include "dyn/plans.h"
#include "exec/trace.h"
#include "support/durable_file.h"
#include "workloads/workloads.h"

namespace oha {
namespace {

constexpr std::size_t kTinySegment = 2048;

/** Everything observable from one FastTrack replay of a capture. */
struct ReplaySnapshot
{
    int status = 0;
    std::string abortReason;
    std::vector<std::pair<InstrId, std::int64_t>> outputs;
    std::uint64_t steps = 0;
    std::uint32_t numThreads = 0;
    std::set<std::pair<InstrId, InstrId>> races;
};

ReplaySnapshot
replaySnapshot(const ir::Module &module, const exec::RecordedTrace &trace)
{
    dyn::FastTrack tool;
    const auto plan = dyn::fullFastTrackPlan(module);
    exec::TraceReplayer replayer(module, trace);
    replayer.attach(&tool, &plan);
    const exec::RunResult result = replayer.run();

    ReplaySnapshot snap;
    snap.status = static_cast<int>(result.status);
    snap.abortReason = result.abortReason;
    snap.outputs = result.outputs;
    snap.steps = result.steps;
    snap.numThreads = result.numThreads;
    snap.races = tool.racePairs();
    return snap;
}

void
expectEqual(const ReplaySnapshot &a, const ReplaySnapshot &b,
            const std::string &label)
{
    EXPECT_EQ(a.status, b.status) << label;
    EXPECT_EQ(a.abortReason, b.abortReason) << label;
    EXPECT_EQ(a.outputs, b.outputs) << label;
    EXPECT_EQ(a.steps, b.steps) << label;
    EXPECT_EQ(a.numThreads, b.numThreads) << label;
    EXPECT_EQ(a.races, b.races) << label;
}

class TracePersistTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = "trace_persist_" + std::to_string(::getpid());
        ::mkdir(dir_.c_str(), 0755);
        support::disarmIoFault();
    }

    void
    TearDown() override
    {
        support::disarmIoFault();
        if (DIR *d = ::opendir(dir_.c_str())) {
            while (const dirent *entry = ::readdir(d)) {
                const std::string name = entry->d_name;
                if (name != "." && name != "..")
                    ::unlink((dir_ + "/" + name).c_str());
            }
            ::closedir(d);
        }
        ::rmdir(dir_.c_str());
    }

    std::string
    path(const std::string &name) const
    {
        return dir_ + "/" + name;
    }

    bool
    hasTempLitter() const
    {
        bool litter = false;
        if (DIR *d = ::opendir(dir_.c_str())) {
            while (const dirent *entry = ::readdir(d)) {
                if (std::string(entry->d_name).find(".tmp.") !=
                    std::string::npos)
                    litter = true;
            }
            ::closedir(d);
        }
        return litter;
    }

    std::string dir_;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeFileRaw(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
}

/** A multi-segment spilled capture of a real workload run. */
exec::RecordedTrace
recordSpilled(const workloads::Workload &workload, bool captureValues)
{
    exec::TraceStoreOptions options;
    options.segmentBytes = kTinySegment;
    options.captureValues = captureValues;
    return exec::recordRun(*workload.module, workload.testingSet.front(),
                          options);
}

TEST_F(TracePersistTest, PersistReloadReplaysExactly)
{
    for (const bool captureValues : {false, true}) {
        const auto workload =
            workloads::makeRaceWorkload("raytracer", 1, 1);
        const exec::RecordedTrace trace =
            recordSpilled(workload, captureValues);
        ASSERT_GT(trace.events.numSegments(), 1u)
            << "capture too small to exercise the segment table";
        const ReplaySnapshot live =
            replaySnapshot(*workload.module, trace);

        const std::string file =
            path(captureValues ? "values.capture" : "plain.capture");
        std::string error;
        ASSERT_TRUE(exec::persistTrace(trace, file, &error)) << error;
        EXPECT_FALSE(hasTempLitter());

        const auto loaded = exec::loadTrace(file, &error);
        ASSERT_TRUE(loaded) << error;
        EXPECT_EQ(loaded->events.numSegments(),
                  trace.events.numSegments());
        EXPECT_EQ(loaded->events.sizeBytes(), trace.events.sizeBytes());
        EXPECT_EQ(loaded->result.steps, trace.result.steps);
        // Loaded segments replay through mmap windows of the capture
        // file itself; resident bytes stay near zero.
        EXPECT_TRUE(loaded->events.spilled());

        const ReplaySnapshot replayed =
            replaySnapshot(*workload.module, *loaded);
        expectEqual(live, replayed,
                    captureValues ? "values" : "plain");
    }
}

TEST_F(TracePersistTest, RamOnlyCaptureRoundTrips)
{
    // No segment threshold: a single in-RAM segment — the other
    // shape of the block layout.
    const auto workload = workloads::makeRaceWorkload("raytracer", 1, 1);
    const exec::RecordedTrace trace =
        exec::recordRun(*workload.module, workload.testingSet.front());
    ASSERT_FALSE(trace.events.spilled());
    const ReplaySnapshot live = replaySnapshot(*workload.module, trace);

    const std::string file = path("ram.capture");
    ASSERT_TRUE(exec::persistTrace(trace, file));
    const auto loaded = exec::loadTrace(file);
    ASSERT_TRUE(loaded);
    expectEqual(live, replaySnapshot(*workload.module, *loaded),
                "ram-only");
}

TEST_F(TracePersistTest, SerializedBlobRoundTripsWithRespill)
{
    const auto workload = workloads::makeRaceWorkload("raytracer", 1, 1);
    const exec::RecordedTrace trace = recordSpilled(workload, false);
    ASSERT_TRUE(trace.events.spilled());
    const ReplaySnapshot live = replaySnapshot(*workload.module, trace);

    support::ByteWriter out;
    ASSERT_TRUE(exec::serializeRecordedTrace(trace, out));
    const std::string blob = out.take();
    support::ByteReader in(blob);
    const auto restored = exec::deserializeRecordedTrace(in);
    ASSERT_TRUE(restored);
    EXPECT_TRUE(in.ok());
    EXPECT_EQ(in.remaining(), 0u);

    // Originally-spilled segments go back to an (unlinked) spill file.
    EXPECT_TRUE(restored->events.spilled());
    EXPECT_GT(restored->events.spillStats().spilledSegments, 0u);
    expectEqual(live, replaySnapshot(*workload.module, *restored),
                "blob round trip");
}

TEST_F(TracePersistTest, PersistFaultSweepFailsGracefully)
{
    const auto workload = workloads::makeRaceWorkload("raytracer", 1, 1);
    const exec::RecordedTrace trace = recordSpilled(workload, false);
    const ReplaySnapshot live = replaySnapshot(*workload.module, trace);
    const std::string file = path("swept.capture");

    // Publish generation one, then count a healthy overwrite.
    ASSERT_TRUE(exec::persistTrace(trace, file));
    const std::string previous = readFile(file);
    const std::uint64_t ops = dyn::countIoOps(
        [&] { ASSERT_TRUE(exec::persistTrace(trace, file)); });
    ASSERT_GT(ops, 0u);
    const std::string committed = readFile(file);
    writeFileRaw(file, previous);

    for (const auto &point :
         dyn::pickIoFaultPoints(ops, 24, /*seed=*/11, support::kIoAllOps)) {
        bool ok = true;
        std::string error;
        {
            dyn::ScopedIoFault fault(point);
            ok = exec::persistTrace(trace, file, &error);
        }
        EXPECT_FALSE(ok) << point.describe();
        EXPECT_FALSE(error.empty()) << point.describe();
        EXPECT_FALSE(hasTempLitter()) << point.describe();

        // The published path still holds a complete, loadable capture
        // (old or — after a post-rename dirsync fault — new).
        const std::string now = readFile(file);
        EXPECT_TRUE(now == previous || now == committed)
            << "torn capture, " << point.describe();
        const auto loaded = exec::loadTrace(file);
        ASSERT_TRUE(loaded) << point.describe();
        expectEqual(live, replaySnapshot(*workload.module, *loaded),
                    point.describe());
        writeFileRaw(file, previous);
    }
}

TEST_F(TracePersistTest, CorruptionSweepRejectsOrReplaysIdentically)
{
    // A small single-segment capture keeps the byte-exhaustive sweep
    // cheap while still covering header, meta and payload offsets.
    const auto workload = workloads::makeRaceWorkload("raytracer", 1, 1);
    const exec::RecordedTrace trace =
        exec::recordRun(*workload.module, workload.testingSet.front());
    const ReplaySnapshot live = replaySnapshot(*workload.module, trace);
    const std::string file = path("fuzzed.capture");
    ASSERT_TRUE(exec::persistTrace(trace, file));
    const std::string bytes = readFile(file);

    // Every truncation length rejects.
    for (std::size_t len = 0; len < bytes.size();
         len += std::max<std::size_t>(1, bytes.size() / 256)) {
        writeFileRaw(file, bytes.substr(0, len));
        EXPECT_FALSE(exec::loadTrace(file)) << "truncated to " << len;
    }

    // Every flipped byte either rejects or replays identically (the
    // accepted flips can only hit unchecksummed alignment padding).
    std::size_t accepted = 0;
    const std::size_t stride =
        std::max<std::size_t>(1, bytes.size() / 2048);
    for (std::size_t at = 0; at < bytes.size(); at += stride) {
        std::string mutated = bytes;
        mutated[at] = static_cast<char>(mutated[at] ^ 0x01);
        writeFileRaw(file, mutated);
        const auto loaded = exec::loadTrace(file);
        if (!loaded)
            continue;
        ++accepted;
        expectEqual(live, replaySnapshot(*workload.module, *loaded),
                    "flip at " + std::to_string(at));
    }
    EXPECT_LT(accepted, (bytes.size() / stride) / 4);
}

TEST_F(TracePersistTest, MidCaptureSpillFailurePreservesAndCounts)
{
    const auto workload = workloads::makeRaceWorkload("raytracer", 1, 1);
    const exec::RecordedTrace healthy = recordSpilled(workload, false);
    ASSERT_GT(healthy.events.spillStats().spilledSegments, 1u)
        << "workload too small: need several spilled segments";
    const ReplaySnapshot live = replaySnapshot(*workload.module, healthy);

    // Let a couple of segment spills succeed, then hit ENOSPC on
    // every later write.  kIoWrite keeps the fault away from the
    // capture-unrelated open of the spill file itself.
    const std::uint64_t writesPerSegment =
        dyn::countIoOps([&] { recordSpilled(workload, false); }) /
        healthy.events.spillStats().spilledSegments;
    dyn::IoFaultPoint point;
    point.failAfter = writesPerSegment + 1;
    point.opMask = support::kIoWrite;
    point.error = ENOSPC;

    exec::RecordedTrace faulted = [&] {
        dyn::ScopedIoFault fault(point);
        return recordSpilled(workload, false);
    }();

    const exec::TraceStore::SpillStats &stats =
        faulted.events.spillStats();
    EXPECT_GT(stats.spilledSegments, 0u)
        << "fault fired before any segment spilled";
    EXPECT_GT(stats.ramFallbackSegments, 0u)
        << "fault never fired mid-capture";
    EXPECT_EQ(stats.lastErrno, ENOSPC);
    EXPECT_EQ(stats.spilledSegments + stats.ramFallbackSegments +
                  1 /* trailing open segment stays in RAM */,
              healthy.events.numSegments());

    // Degraded storage, identical events.
    expectEqual(live, replaySnapshot(*workload.module, faulted),
                "ENOSPC mid-capture");
}

TEST_F(TracePersistTest, LoadFromFreshProcessStateMatches)
{
    // Simulate the cross-process use: persist, then load with no
    // shared in-memory state (the loaded store owns only the capture
    // file fd) and replay twice concurrently-shaped (two sequential
    // replays over one load share the mmap windows).
    const auto workload = workloads::makeRaceWorkload("raytracer", 1, 1);
    const exec::RecordedTrace trace = recordSpilled(workload, false);
    const ReplaySnapshot live = replaySnapshot(*workload.module, trace);
    const std::string file = path("fresh.capture");
    ASSERT_TRUE(exec::persistTrace(trace, file));

    const auto loaded = exec::loadTrace(file);
    ASSERT_TRUE(loaded);
    expectEqual(live, replaySnapshot(*workload.module, *loaded),
                "first replay");
    expectEqual(live, replaySnapshot(*workload.module, *loaded),
                "second replay over the same load");
}

} // namespace
} // namespace oha
