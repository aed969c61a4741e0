/**
 * @file
 * Warm-start cache snapshots: write/load round trips, corruption
 * rejection, service boot integration, and crash recovery.
 *
 * Pins the tentpole contract for the snapshot side of the durability
 * layer: a snapshot written from a warmed cache restores entries that
 * serve verified hits and leave every pipeline result field-identical
 * to a cold recomputation; a missing snapshot is a quiet cold start; a
 * corrupt, truncated, version-skewed or semantically bogus snapshot is
 * rejected (wholesale or per entry) and counted — never a crash, never
 * unverified data admitted.  The crash sweep kills a child process at
 * EVERY I/O operation of a snapshot write and asserts the state
 * directory afterwards holds either the previous snapshot or a fully
 * valid new one, and that a daemon recovering from it produces results
 * byte-identical to cold.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "analysis/andersen_cache.h"
#include "core/optft.h"
#include "core/optslice.h"
#include "dyn/fault_injector.h"
#include "pipeline_result_eq.h"
#include "service/analysis_service.h"
#include "service/shared_cache.h"
#include "service/snapshot.h"
#include "support/durable_file.h"
#include "support/rng.h"
#include "workloads/workloads.h"

namespace oha {
namespace {

// ---------------------------------------------------------------------
// Fixture
// ---------------------------------------------------------------------

struct PipelineResults
{
    core::OptFtResult ft;
    core::OptSliceResult slice;
};

class SnapshotTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = "snapshot_test_" + std::to_string(::getpid());
        ::mkdir(dir_.c_str(), 0755);
        support::disarmIoFault();
        coldReset();
    }

    void
    TearDown() override
    {
        support::disarmIoFault();
        removeDirEntries();
        ::rmdir(dir_.c_str());
        coldReset();
    }

    /** Forget everything a fresh process would not know. */
    static void
    coldReset()
    {
        service::SharedCache::instance().reset();
        analysis::resetAndersenCache();
    }

    /** Run both pipelines on the fixture workloads (warming the
     *  observation, race and slice cache sections). */
    PipelineResults
    runPipelines() const
    {
        PipelineResults results;
        results.ft =
            core::runOptFt(workloads::makeRaceWorkload("sor", 3, 2));
        results.slice =
            core::runOptSlice(workloads::makeSliceWorkload("zlib", 3, 2));
        return results;
    }

    std::string
    snapshotPath() const
    {
        return service::defaultSnapshotPath(dir_);
    }

    void
    removeDirEntries() const
    {
        if (DIR *d = ::opendir(dir_.c_str())) {
            while (const dirent *entry = ::readdir(d)) {
                const std::string name = entry->d_name;
                if (name != "." && name != "..")
                    ::unlink((dir_ + "/" + name).c_str());
            }
            ::closedir(d);
        }
    }

    void
    removeTempLitter() const
    {
        if (DIR *d = ::opendir(dir_.c_str())) {
            while (const dirent *entry = ::readdir(d)) {
                const std::string name = entry->d_name;
                if (name.find(".tmp.") != std::string::npos)
                    ::unlink((dir_ + "/" + name).c_str());
            }
            ::closedir(d);
        }
    }

    bool
    fileExists(const std::string &path) const
    {
        struct ::stat st;
        return ::stat(path.c_str(), &st) == 0;
    }

    std::string dir_;
};

std::string
readFile(const std::string &path)
{
    std::string content;
    if (FILE *f = ::fopen(path.c_str(), "rb")) {
        char buf[4096];
        std::size_t n;
        while ((n = ::fread(buf, 1, sizeof buf, f)) > 0)
            content.append(buf, n);
        ::fclose(f);
    }
    return content;
}

void
writeFileRaw(const std::string &path, const std::string &content)
{
    FILE *f = ::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(::fwrite(content.data(), 1, content.size(), f),
              content.size());
    ::fclose(f);
}

// ---------------------------------------------------------------------
// Round trip: snapshot-restored entries serve verified hits and leave
// the results field-identical to a cold recomputation.
// ---------------------------------------------------------------------

TEST_F(SnapshotTest, WriteLoadRestoresWarmEquivalentResults)
{
    const PipelineResults cold = runPipelines();

    const auto before = service::snapshotStats();
    std::string error;
    ASSERT_TRUE(service::writeSnapshot(snapshotPath(), &error)) << error;
    const auto afterWrite = service::snapshotStats();
    EXPECT_EQ(afterWrite.writes, before.writes + 1);
    EXPECT_EQ(afterWrite.writeFailures, before.writeFailures);

    coldReset();
    ASSERT_TRUE(service::loadSnapshot(snapshotPath(), &error)) << error;
    const auto afterLoad = service::snapshotStats();
    EXPECT_EQ(afterLoad.loads, afterWrite.loads + 1);
    EXPECT_EQ(afterLoad.loadRejects, afterWrite.loadRejects);
    EXPECT_GT(afterLoad.entriesRestored, afterWrite.entriesRestored);
    EXPECT_EQ(afterLoad.entriesRejected, afterWrite.entriesRejected);

    const auto statsBefore = service::SharedCache::instance().stats();
    const PipelineResults warm = runPipelines();
    const auto statsAfter = service::SharedCache::instance().stats();

    expectEqual(cold.ft, warm.ft, "snapshot-warmed optft");
    expectEqual(cold.slice, warm.slice, "snapshot-warmed optslice");
    // Restored entries actually served (dual-fingerprint-verified)
    // hits — the warm pass is not just recomputing everything.
    EXPECT_GT(statsAfter.hits, statsBefore.hits);
}

// The on-disk encoding is a compatibility contract: a fixed warm-up
// must produce the same snapshot bytes (tags, key fields, entry
// order), whatever the cache's in-memory layout.  A change to a key's
// value, its encoding or the entry order shows here and must come
// with a kSnapshotVersion bump.
TEST_F(SnapshotTest, SnapshotBytesArePinned)
{
    for (std::uint64_t seed : {0, 7}) {
        core::OptFtConfig ft;
        ft.threads = 1;
        ft.faultSeed = seed;
        for (const char *name : {"sor", "crypt"})
            core::runOptFt(workloads::makeRaceWorkload(name, 3, 2), ft);
        core::OptSliceConfig slice;
        slice.threads = 1;
        slice.faultSeed = seed;
        for (const char *name : {"zlib", "nginx"})
            core::runOptSlice(workloads::makeSliceWorkload(name, 3, 2),
                              slice);
    }
    std::string error;
    ASSERT_TRUE(service::writeSnapshot(snapshotPath(), &error)) << error;
    const std::string bytes = readFile(snapshotPath());
    EXPECT_EQ(bytes.size(), 42296u);
    EXPECT_EQ(support::fnv1a64(bytes.data(), bytes.size()),
              0x28389861b0ca6a98ULL);
}

TEST_F(SnapshotTest, MissingSnapshotIsQuietColdStart)
{
    const auto before = service::snapshotStats();
    std::string error;
    EXPECT_FALSE(
        service::loadSnapshot(snapshotPath() + ".nonexistent", &error));
    const auto after = service::snapshotStats();
    // A missing file is a normal cold start: no reject counted, no
    // entries touched.
    EXPECT_EQ(after.loads, before.loads);
    EXPECT_EQ(after.loadRejects, before.loadRejects);
    EXPECT_EQ(after.entriesRestored, before.entriesRestored);
}

// ---------------------------------------------------------------------
// Corruption: wholesale rejection for container damage, per-entry
// rejection for semantic damage — and a flipped bit can never change
// the results a recovered daemon produces.
// ---------------------------------------------------------------------

TEST_F(SnapshotTest, TruncationSweepRejectsWholesale)
{
    runPipelines();
    std::string error;
    ASSERT_TRUE(service::writeSnapshot(snapshotPath(), &error)) << error;
    const std::string golden = readFile(snapshotPath());
    ASSERT_GT(golden.size(), 32u);

    const std::string victim = dir_ + "/truncated.snapshot";
    // Sample truncation lengths instead of sweeping every one (the
    // byte-exhaustive sweep lives in the container-layer tests,
    // DurableFileTest).  The header and first-block region is covered
    // densely.
    std::vector<std::size_t> lengths;
    for (std::size_t len = 0; len < 64 && len < golden.size(); ++len)
        lengths.push_back(len);
    Rng rng(0x105eedu ^ golden.size());
    for (int i = 0; i < 64; ++i)
        lengths.push_back(static_cast<std::size_t>(
            rng.below(golden.size())));
    lengths.push_back(golden.size() - 1);
    for (const std::size_t len : lengths) {
        writeFileRaw(victim, golden.substr(0, len));
        const auto before = service::snapshotStats();
        coldReset();
        EXPECT_FALSE(service::loadSnapshot(victim))
            << "truncated to " << len << " bytes must be rejected";
        const auto after = service::snapshotStats();
        EXPECT_EQ(after.loadRejects, before.loadRejects + 1);
        EXPECT_EQ(after.entriesRestored, before.entriesRestored);
    }
}

TEST_F(SnapshotTest, BitFlipSweepRejectsOrRestoresVerifiedState)
{
    const PipelineResults cold = runPipelines();
    std::string error;
    ASSERT_TRUE(service::writeSnapshot(snapshotPath(), &error)) << error;
    const std::string golden = readFile(snapshotPath());

    const std::string victim = dir_ + "/flipped.snapshot";
    // Seeded sample of flip positions: the whole header region plus
    // random positions throughout the body.
    std::vector<std::size_t> positions;
    for (std::size_t at = 0; at < 48 && at < golden.size(); ++at)
        positions.push_back(at);
    Rng rng(0xf11bu ^ golden.size());
    for (int i = 0; i < 48; ++i)
        positions.push_back(static_cast<std::size_t>(
            rng.below(golden.size())));
    std::size_t accepted = 0, samples = 0;
    for (const std::size_t at : positions) {
        ++samples;
        std::string bytes = golden;
        bytes[at] = static_cast<char>(bytes[at] ^ 0x01);
        writeFileRaw(victim, bytes);
        coldReset();
        if (!service::loadSnapshot(victim))
            continue;
        // Flip landed in unchecksummed padding: the load is allowed,
        // but whatever it restored must be indistinguishable from a
        // cold recomputation.
        ++accepted;
        const PipelineResults warm = runPipelines();
        expectEqual(cold.ft, warm.ft,
                    "flip@" + std::to_string(at) + " optft");
        expectEqual(cold.slice, warm.slice,
                    "flip@" + std::to_string(at) + " optslice");
    }
    // Only alignment padding escapes the checksums.
    EXPECT_LT(accepted, samples / 4 + 1);
}

/** A trace-capture entry (tag 1) in the layout snapshots carried
 *  while captures were cached: fingerprints, then a capture of an
 *  empty run with no segments (meta version 2, no value payload, a
 *  64 MiB spill threshold). */
std::string
traceCaptureEntry()
{
    support::ByteWriter entry;
    entry.u8(1);
    for (int i = 0; i < 4; ++i)
        entry.u64(0); // module + config fingerprints
    entry.u32(2);     // capture meta version
    entry.u8(0);      // no value payload
    entry.u64(std::uint64_t{64} << 20);
    entry.u64(0); // segments
    // RunResult: status, abort reason and metadata, outputs, steps,
    // event totals, delivered counts, threads, schedule.
    entry.u32(0);
    entry.str("");
    entry.u32(0);
    for (int i = 0; i < 3; ++i)
        entry.u64(0);
    entry.u32(0);
    entry.u64(0);
    entry.u64(0);
    for (std::size_t i = 0; i < exec::kNumEventClasses; ++i)
        entry.u64(0);
    entry.u64(0);
    entry.u32(0);
    entry.u64(0);
    return entry.take();
}

TEST_F(SnapshotTest, BogusEntryTagRejectedIndividually)
{
    // A real snapshot's entries plus one with a tag this version does
    // not know — made up (200), or the retired trace-capture entry
    // (1): the container verifies (load succeeds), the bogus entry is
    // individually rejected and counted, and every other entry
    // restores.
    runPipelines();
    std::string error;
    ASSERT_TRUE(service::writeSnapshot(snapshotPath(), &error)) << error;
    std::vector<std::string> entries;
    {
        const auto reader = support::DurableReader::open(
            snapshotPath(), support::kDurableKindSnapshot, &error);
        ASSERT_TRUE(reader) << error;
        for (std::size_t b = 1; b < reader->numBlocks(); ++b)
            ASSERT_TRUE(reader->readBlock(b, entries.emplace_back()));
    }
    ASSERT_FALSE(entries.empty());

    support::ByteWriter unknownTag;
    unknownTag.u8(200);
    for (const std::string &bogus :
         {unknownTag.take(), traceCaptureEntry()}) {
        const std::string path = dir_ + "/bogus.snapshot";
        {
            support::DurableWriter writer(path,
                                          support::kDurableKindSnapshot);
            support::ByteWriter meta;
            meta.u32(service::kSnapshotVersion);
            meta.u64(entries.size() + 1);
            writer.addBlock(meta.data());
            writer.addBlock(bogus);
            for (const std::string &entry : entries)
                writer.addBlock(entry);
            ASSERT_TRUE(writer.commit(&error)) << error;
        }

        coldReset();
        const auto before = service::snapshotStats();
        EXPECT_TRUE(service::loadSnapshot(path, &error)) << error;
        const auto after = service::snapshotStats();
        EXPECT_EQ(after.loads, before.loads + 1);
        EXPECT_EQ(after.entriesRejected, before.entriesRejected + 1);
        EXPECT_EQ(after.entriesRestored,
                  before.entriesRestored + entries.size());
    }
}

TEST_F(SnapshotTest, OldFormatTraceEntryIsRejected)
{
    // A snapshot written while captures were cached may hold a trace
    // entry (tag 1) — here one in the older meta-version-1 layout.
    // The container verifies; that entry alone is rejected.
    const std::string path = dir_ + "/v1-trace.snapshot";
    {
        support::DurableWriter writer(path, support::kDurableKindSnapshot);
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
    EXPECT_TRUE(service::loadSnapshot(path, &error)) << error;
    const service::SnapshotStats after = service::snapshotStats();
    EXPECT_EQ(after.entriesRejected, before.entriesRejected + 1);
    EXPECT_EQ(after.entriesRestored, before.entriesRestored);
}

/** An observation entry (tag 2) for subject @p subject whose only
 *  observations are @p contexts, laid out as the writer lays out a
 *  run's observations. */
std::string
contextObservationEntry(std::uint64_t subject,
                        const std::vector<inv::CallContext> &contexts)
{
    support::ByteWriter entry;
    entry.u8(2);
    entry.u64(0); // module fingerprint
    entry.u64(0);
    entry.u64(subject); // subject fingerprint
    entry.u64(subject);
    entry.u64(0); // block counts
    entry.u64(0); // callee sets
    entry.u64(contexts.size());
    for (const inv::CallContext &context : contexts) {
        entry.u64(context.size());
        for (const InstrId site : context)
            entry.u64(site);
    }
    entry.u64(0); // lock objects
    entry.u64(0); // spawn counts
    entry.u64(0); // steps
    entry.u32(0); // status: finished
    return entry.take();
}

TEST_F(SnapshotTest, NonCanonicalContextObservationsRejectedIndividually)
{
    // The writer emits a run's contexts sorted, distinct, closed under
    // prefixes and within inv::kMaxContextDepth.  An entry that breaks
    // any of these is rejected alone and counted; the canonical entry
    // beside them restores.
    std::vector<inv::CallContext> tooDeep;
    for (std::size_t n = 1; n <= inv::kMaxContextDepth + 1; ++n)
        tooDeep.push_back(inv::CallContext(n, 7));
    const std::vector<std::vector<inv::CallContext>> bad = {
        {{2}, {1}},       // unsorted
        {{1}, {1}},       // duplicated
        {{1}, {1, 2, 3}}, // [1, 2] missing
        {{}, {1}},        // the empty chain
        tooDeep,
    };
    const std::string path = dir_ + "/contexts.snapshot";
    {
        support::DurableWriter writer(path, support::kDurableKindSnapshot);
        support::ByteWriter meta;
        meta.u32(service::kSnapshotVersion);
        meta.u64(1 + bad.size());
        writer.addBlock(meta.data());
        writer.addBlock(contextObservationEntry(1, {{1}, {1, 2}, {3}}));
        for (std::size_t i = 0; i < bad.size(); ++i)
            writer.addBlock(contextObservationEntry(2 + i, bad[i]));
        std::string error;
        ASSERT_TRUE(writer.commit(&error)) << error;
    }
    const service::SnapshotStats before = service::snapshotStats();
    std::string error;
    EXPECT_TRUE(service::loadSnapshot(path, &error)) << error;
    const service::SnapshotStats after = service::snapshotStats();
    EXPECT_EQ(after.entriesRejected, before.entriesRejected + bad.size());
    EXPECT_EQ(after.entriesRestored, before.entriesRestored + 1);
}

TEST_F(SnapshotTest, EntryCountMismatchRejectsWholesale)
{
    // Meta promises two entries, container carries one.
    const std::string path = dir_ + "/mismatch.snapshot";
    {
        support::DurableWriter writer(path,
                                      support::kDurableKindSnapshot);
        support::ByteWriter meta;
        meta.u32(service::kSnapshotVersion);
        meta.u64(2);
        writer.addBlock(meta.data());
        support::ByteWriter entry;
        entry.u8(1);
        writer.addBlock(entry.data());
        std::string error;
        ASSERT_TRUE(writer.commit(&error)) << error;
    }

    const auto before = service::snapshotStats();
    EXPECT_FALSE(service::loadSnapshot(path));
    const auto after = service::snapshotStats();
    EXPECT_EQ(after.loadRejects, before.loadRejects + 1);
    EXPECT_EQ(after.entriesRestored, before.entriesRestored);
}

// ---------------------------------------------------------------------
// Write failures: injected I/O faults degrade to in-memory operation.
// ---------------------------------------------------------------------

TEST_F(SnapshotTest, VersionOneSnapshotRejectedWholesaleAndDaemonBootsCold)
{
    const PipelineResults cold = runPipelines();

    // A snapshot of the warmed cache whose container verifies in every
    // checksum, with its meta block stamped as version 1: the format
    // whose race and slice entries still carried the fields version 2
    // dropped.
    const std::string current = dir_ + "/current.snapshot";
    std::string error;
    ASSERT_TRUE(service::writeSnapshot(current, &error)) << error;
    {
        auto reader = support::DurableReader::open(
            current, support::kDurableKindSnapshot, &error);
        ASSERT_TRUE(reader) << error;
        ASSERT_GT(reader->numBlocks(), 1u);
        support::DurableWriter writer(snapshotPath(),
                                      support::kDurableKindSnapshot);
        for (std::size_t b = 0; b < reader->numBlocks(); ++b) {
            std::string block;
            ASSERT_TRUE(reader->readBlock(b, block));
            if (b == 0) {
                support::ByteWriter version;
                version.u32(1);
                block.replace(0, version.data().size(), version.data());
            }
            writer.addBlock(block);
        }
        ASSERT_TRUE(writer.commit(&error)) << error;
    }
    coldReset();

    const auto before = service::snapshotStats();
    EXPECT_FALSE(service::loadSnapshot(snapshotPath(), &error));
    EXPECT_NE(error.find("unsupported snapshot version"), std::string::npos)
        << error;
    const auto afterLoad = service::snapshotStats();
    EXPECT_EQ(afterLoad.loadRejects, before.loadRejects + 1);
    EXPECT_EQ(afterLoad.loads, before.loads);
    EXPECT_EQ(afterLoad.entriesRestored, before.entriesRestored);
    EXPECT_EQ(service::SharedCache::instance().stats().entries, 0u);

    // A daemon booting from the same state directory rejects the file
    // the same way, starts cold and matches the cold batch results.
    service::ServiceConfig config;
    config.shards = 1;
    config.stateDir = dir_;
    service::AnalysisService daemon(config);
    const auto afterBoot = service::snapshotStats();
    EXPECT_EQ(afterBoot.loadRejects, afterLoad.loadRejects + 1);
    EXPECT_EQ(afterBoot.entriesRestored, afterLoad.entriesRestored);

    service::AnalysisRequest ftRequest;
    ftRequest.workload = workloads::makeRaceWorkload("sor", 3, 2);
    service::AnalysisRequest sliceRequest;
    sliceRequest.workload = workloads::makeSliceWorkload("zlib", 3, 2);
    auto ftFuture = daemon.submit(std::move(ftRequest));
    auto sliceFuture = daemon.submit(std::move(sliceRequest));
    const auto ftResponse = ftFuture.get();
    const auto sliceResponse = sliceFuture.get();
    ASSERT_EQ(ftResponse.outcome, service::RequestOutcome::Done);
    ASSERT_EQ(sliceResponse.outcome, service::RequestOutcome::Done);
    expectEqual(cold.ft, *ftResponse.ft, "version-1 reject optft");
    expectEqual(cold.slice, *sliceResponse.slice,
                "version-1 reject optslice");
    daemon.shutdown();
}

TEST_F(SnapshotTest, WriteFaultSweepKeepsPreviousSnapshotAndCounts)
{
    const PipelineResults cold = runPipelines();
    std::string error;
    ASSERT_TRUE(service::writeSnapshot(snapshotPath(), &error)) << error;
    const std::string previous = readFile(snapshotPath());

    const std::uint64_t ops = dyn::countIoOps(
        [&] { ASSERT_TRUE(service::writeSnapshot(snapshotPath())); });
    ASSERT_GT(ops, 0u);
    const std::string committed = readFile(snapshotPath());

    for (support::IoFaultPlan point :
         dyn::pickIoFaultPoints(ops, 16, /*seed=*/23)) {
        point.error = ENOSPC;
        dyn::ScopedIoFault fault(point);
        const auto before = service::snapshotStats();
        std::string sweepError;
        EXPECT_FALSE(service::writeSnapshot(snapshotPath(), &sweepError))
            << point.describe();
        EXPECT_TRUE(fault.fired()) << point.describe();
        EXPECT_FALSE(sweepError.empty()) << point.describe();
        const auto after = service::snapshotStats();
        EXPECT_EQ(after.writeFailures, before.writeFailures + 1);
        EXPECT_EQ(after.lastErrno, ENOSPC) << point.describe();
        // The published snapshot is untouched (either generation is a
        // full commit; a fault after rename may publish the new one).
        const std::string now = readFile(snapshotPath());
        EXPECT_TRUE(now == previous || now == committed)
            << point.describe();
    }
    support::disarmIoFault();
    removeTempLitter();

    // The cache itself never depended on the snapshot: results are
    // still byte-identical after all of that.
    const PipelineResults still = runPipelines();
    expectEqual(cold.ft, still.ft, "post-fault-sweep optft");
    expectEqual(cold.slice, still.slice, "post-fault-sweep optslice");
}

// ---------------------------------------------------------------------
// Service integration: boot-time load, shutdown-time write.
// ---------------------------------------------------------------------

TEST_F(SnapshotTest, ServiceRestartBootsWarmWithIdenticalResults)
{
    const auto race = workloads::makeRaceWorkload("sor", 3, 2);
    const auto slice = workloads::makeSliceWorkload("zlib", 3, 2);

    service::ServiceConfig config;
    config.shards = 1;
    config.stateDir = dir_;

    core::OptFtResult firstFt;
    core::OptSliceResult firstSlice;
    const auto beforeFirst = service::snapshotStats();
    {
        service::AnalysisService daemon(config);
        EXPECT_EQ(daemon.stateDir(), dir_);
        service::AnalysisRequest ftRequest;
        ftRequest.workload = race;
        service::AnalysisRequest sliceRequest;
        sliceRequest.workload = slice;
        auto ftFuture = daemon.submit(std::move(ftRequest));
        auto sliceFuture = daemon.submit(std::move(sliceRequest));
        const auto ftResponse = ftFuture.get();
        const auto sliceResponse = sliceFuture.get();
        ASSERT_EQ(ftResponse.outcome, service::RequestOutcome::Done);
        ASSERT_EQ(sliceResponse.outcome, service::RequestOutcome::Done);
        firstFt = *ftResponse.ft;
        firstSlice = *sliceResponse.slice;
        // Destructor shuts down gracefully and writes the snapshot.
    }
    const auto afterFirst = service::snapshotStats();
    EXPECT_GE(afterFirst.writes, beforeFirst.writes + 1);
    ASSERT_TRUE(fileExists(snapshotPath()));

    coldReset();

    {
        service::AnalysisService daemon(config);
        const auto afterBoot = service::snapshotStats();
        EXPECT_EQ(afterBoot.loads, afterFirst.loads + 1);
        EXPECT_GT(afterBoot.entriesRestored, afterFirst.entriesRestored);

        service::AnalysisRequest ftRequest;
        ftRequest.workload = race;
        service::AnalysisRequest sliceRequest;
        sliceRequest.workload = slice;
        auto ftFuture = daemon.submit(std::move(ftRequest));
        auto sliceFuture = daemon.submit(std::move(sliceRequest));
        const auto ftResponse = ftFuture.get();
        const auto sliceResponse = sliceFuture.get();
        ASSERT_EQ(ftResponse.outcome, service::RequestOutcome::Done);
        ASSERT_EQ(sliceResponse.outcome, service::RequestOutcome::Done);
        expectEqual(firstFt, *ftResponse.ft, "restart-warm optft");
        expectEqual(firstSlice, *sliceResponse.slice,
                    "restart-warm optslice");

        // On-demand snapshots work too.
        EXPECT_TRUE(daemon.snapshotNow());
        daemon.shutdown();
    }

    // Without a state dir there is nothing to snapshot to.
    service::ServiceConfig stateless;
    stateless.shards = 1;
    // Shield the config-free path from the ambient environment.
    const char *envDir = ::getenv("OHA_STATE_DIR");
    if (envDir == nullptr) {
        service::AnalysisService daemon(stateless);
        EXPECT_TRUE(daemon.stateDir().empty());
        EXPECT_FALSE(daemon.snapshotNow());
    }
}

// The periodic writer publishes while request shards keep filling the
// cache (under TSan, the writer racing the shards), and what it
// publishes loads.
TEST_F(SnapshotTest, PeriodicSnapshotPublishesWhileRequestsRun)
{
    const auto race = workloads::makeRaceWorkload("sor", 3, 2);
    const auto slice = workloads::makeSliceWorkload("zlib", 3, 2);
    service::ServiceConfig config;
    config.shards = 2;
    config.stateDir = dir_;
    config.snapshotIntervalSeconds = 1;

    const std::uint64_t writesBefore = service::snapshotStats().writes;
    service::AnalysisService daemon(config);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    std::size_t requests = 0;
    while (service::snapshotStats().writes == writesBefore &&
           std::chrono::steady_clock::now() < deadline) {
        service::AnalysisRequest ftRequest;
        ftRequest.workload = race;
        service::AnalysisRequest sliceRequest;
        sliceRequest.workload = slice;
        auto ftFuture = daemon.submit(std::move(ftRequest));
        auto sliceFuture = daemon.submit(std::move(sliceRequest));
        ASSERT_EQ(ftFuture.get().outcome, service::RequestOutcome::Done);
        ASSERT_EQ(sliceFuture.get().outcome, service::RequestOutcome::Done);
        requests += 2;
    }
    ASSERT_GT(service::snapshotStats().writes, writesBefore)
        << "no periodic snapshot within 60 s";
    EXPECT_GT(requests, 0u);

    const auto loadsBefore = service::snapshotStats().loads;
    std::string error;
    EXPECT_TRUE(service::loadSnapshot(snapshotPath(), &error)) << error;
    EXPECT_EQ(service::snapshotStats().loads, loadsBefore + 1);
    daemon.shutdown();
}

// ---------------------------------------------------------------------
// Crash recovery: kill the process at EVERY fault point of a snapshot
// write; recovery must find either the previous snapshot or a fully
// valid new one, and recovered results must be byte-identical to cold.
// ---------------------------------------------------------------------

TEST_F(SnapshotTest, CrashAtEveryWritePointRecoversToColdIdentical)
{
    const PipelineResults cold = runPipelines();

    // Publish a previous generation, then learn the op count of a
    // healthy overwrite.
    std::string error;
    ASSERT_TRUE(service::writeSnapshot(snapshotPath(), &error)) << error;
    const std::string previous = readFile(snapshotPath());
    const std::uint64_t ops = dyn::countIoOps(
        [&] { ASSERT_TRUE(service::writeSnapshot(snapshotPath())); });
    ASSERT_GT(ops, 0u);

    for (const auto &point :
         dyn::pickIoFaultPoints(ops, 12, /*seed=*/31, support::kIoAllOps,
                                /*crash=*/true)) {
        // Reset to the previous generation so every iteration crashes
        // the same overwrite.
        writeFileRaw(snapshotPath(), previous);

        const pid_t child = ::fork();
        ASSERT_GE(child, 0);
        if (child == 0) {
            // In the child: arm the crash fault and attempt the
            // overwrite.  _exit codes: kIoCrashExitCode when the
            // fault killed us mid-write, 0 when the point was past
            // the path's op count and the write committed.
            support::resetIoOpCount();
            support::armIoFault(point);
            service::writeSnapshot(snapshotPath());
            support::disarmIoFault();
            ::_exit(0);
        }
        int status = 0;
        ASSERT_EQ(::waitpid(child, &status, 0), child);
        ASSERT_TRUE(WIFEXITED(status)) << point.describe();
        const int code = WEXITSTATUS(status);
        EXPECT_TRUE(code == 0 || code == support::kIoCrashExitCode)
            << point.describe() << " exit=" << code;
        if (point.failAfter < ops) {
            EXPECT_EQ(code, support::kIoCrashExitCode)
                << point.describe();
        }

        // A crash leaves temp litter (no destructor ran) — recovery
        // ignores it; clean it up for the next iteration.
        removeTempLitter();

        // The published path holds a complete generation — either the
        // previous snapshot (crash before or at the rename) or the
        // child's fully committed new one (crash at the directory
        // sync) — never a torn file.  loadSnapshot returning true IS
        // the full-container-verification assertion; recovery then
        // produces results byte-identical to a cold run.
        coldReset();
        std::string loadError;
        EXPECT_TRUE(service::loadSnapshot(snapshotPath(), &loadError))
            << point.describe() << ": " << loadError;
        const PipelineResults recovered = runPipelines();
        expectEqual(cold.ft, recovered.ft,
                    point.describe() + " recovered optft");
        expectEqual(cold.slice, recovered.slice,
                    point.describe() + " recovered optslice");
    }
}

} // namespace
} // namespace oha
