/**
 * @file
 * Crash-consistent container format: round-trips, corruption
 * rejection and fault-injected I/O.
 *
 * The durability contract is absolute: a DurableReader either serves
 * fully checksum-verified bytes or rejects the file with a reason —
 * truncation at EVERY length, a bit flip at every offset class,
 * version skew, wrong magic, and wrong container kind all reject
 * cleanly (flips confined to never-checksummed alignment padding may
 * be accepted, in which case every payload must still read back
 * byte-identical).  Writers interrupted by injected open/write/
 * fsync/rename faults at every operation index leave the previously
 * published file untouched and no temp litter behind, and surface
 * the injected errno.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "dyn/fault_injector.h"
#include "support/durable_file.h"

namespace oha {
namespace {

using support::ByteReader;
using support::ByteWriter;
using support::DurableReader;
using support::DurableWriter;

/** Container kind of the sample files: any kind but a snapshot's, so
 *  opening one as a snapshot must fail on the kind check. */
constexpr std::uint32_t kSampleKind = 1;

/** Per-test scratch directory under the working directory. */
class DurableFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = "durable_test_" + std::to_string(::getpid());
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

    /** Names of leftover temp files in the scratch dir. */
    std::vector<std::string>
    tempLitter() const
    {
        std::vector<std::string> litter;
        if (DIR *d = ::opendir(dir_.c_str())) {
            while (const dirent *entry = ::readdir(d)) {
                const std::string name = entry->d_name;
                if (name.find(".tmp.") != std::string::npos)
                    litter.push_back(name);
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

/** Standard three-block container used by the corruption sweeps. */
std::vector<std::string>
sampleBlocks()
{
    std::string big(300, '\0');
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<char>(i * 7 + 3);
    return {"hello durable world", std::string(), big};
}

bool
writeSample(const std::string &path)
{
    DurableWriter writer(path, kSampleKind);
    for (const std::string &block : sampleBlocks())
        writer.addBlock(block);
    return writer.commit();
}

/** Read every block of a verified container. */
std::vector<std::string>
readAllBlocks(DurableReader &reader)
{
    std::vector<std::string> blocks;
    for (std::size_t i = 0; i < reader.numBlocks(); ++i) {
        std::string block;
        EXPECT_TRUE(reader.readBlock(i, block));
        blocks.push_back(std::move(block));
    }
    return blocks;
}

TEST_F(DurableFileTest, RoundTripsBlocksWithAlignedOffsets)
{
    const std::string file = path("roundtrip");
    ASSERT_TRUE(writeSample(file));

    std::string error;
    auto reader =
        DurableReader::open(file, kSampleKind, &error);
    ASSERT_TRUE(reader) << error;
    ASSERT_EQ(reader->numBlocks(), sampleBlocks().size());
    EXPECT_EQ(readAllBlocks(*reader), sampleBlocks());
    for (std::size_t i = 0; i < reader->numBlocks(); ++i) {
        EXPECT_EQ(reader->blockOffset(i) % 8, 0u)
            << "block " << i << " payload is not 8-aligned";
        EXPECT_EQ(reader->blockLength(i), sampleBlocks()[i].size());
    }
    EXPECT_TRUE(tempLitter().empty());
}

TEST_F(DurableFileTest, StreamingBlocksMatchWholeBlocks)
{
    const std::string whole = path("whole");
    const std::string streamed = path("streamed");
    const std::string payload = sampleBlocks().back();
    {
        DurableWriter writer(whole, support::kDurableKindSnapshot);
        writer.addBlock(payload);
        ASSERT_TRUE(writer.commit());
    }
    {
        DurableWriter writer(streamed, support::kDurableKindSnapshot);
        writer.beginBlock();
        // Uneven chunking must not change the result.
        std::size_t at = 0;
        for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                                    std::size_t{100}, payload.size()}) {
            const std::size_t len = std::min(n, payload.size() - at);
            writer.writeChunk(payload.data() + at, len);
            at += len;
        }
        ASSERT_EQ(at, payload.size());
        writer.endBlock();
        ASSERT_TRUE(writer.commit());
    }
    EXPECT_EQ(readFile(whole).size(), readFile(streamed).size());
    auto a = DurableReader::open(whole, support::kDurableKindSnapshot);
    auto b = DurableReader::open(streamed, support::kDurableKindSnapshot);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(readAllBlocks(*a), readAllBlocks(*b));
}

TEST_F(DurableFileTest, RejectsTruncationAtEveryLength)
{
    const std::string file = path("truncated");
    ASSERT_TRUE(writeSample(file));
    const std::string bytes = readFile(file);
    ASSERT_GT(bytes.size(), 32u);

    for (std::size_t len = 0; len < bytes.size(); ++len) {
        writeFileRaw(file, bytes.substr(0, len));
        std::string error;
        auto reader = DurableReader::open(
            file, kSampleKind, &error);
        EXPECT_FALSE(reader)
            << "accepted a file truncated to " << len << " bytes";
        EXPECT_FALSE(error.empty());
    }
}

TEST_F(DurableFileTest, BitFlipSweepRejectsOrReadsIdentical)
{
    const std::string file = path("bitflip");
    ASSERT_TRUE(writeSample(file));
    const std::string bytes = readFile(file);
    const std::vector<std::string> expect = sampleBlocks();

    std::size_t accepted = 0;
    for (std::size_t at = 0; at < bytes.size(); ++at) {
        std::string mutated = bytes;
        mutated[at] = static_cast<char>(mutated[at] ^ 0x40);
        writeFileRaw(file, mutated);
        auto reader =
            DurableReader::open(file, kSampleKind);
        if (!reader)
            continue; // rejected: the common, correct outcome
        // Accepted: the flip can only have hit never-checksummed
        // alignment padding — every payload must be untouched.
        ++accepted;
        ASSERT_EQ(reader->numBlocks(), expect.size()) << "offset " << at;
        EXPECT_EQ(readAllBlocks(*reader), expect) << "offset " << at;
    }
    // Most offsets are covered by a checksum; padding is a sliver.
    EXPECT_LT(accepted, bytes.size() / 4);
}

TEST_F(DurableFileTest, RejectsVersionSkewMagicAndKind)
{
    const std::string file = path("skew");
    ASSERT_TRUE(writeSample(file));
    const std::string bytes = readFile(file);

    // Future format version, with the header checksum recomputed so
    // only the version check can reject it.
    {
        std::string mutated = bytes;
        const std::uint32_t version = 999;
        std::memcpy(&mutated[8], &version, sizeof(version));
        const std::uint64_t sum = support::fnv1a64(mutated.data(), 24);
        std::memcpy(&mutated[24], &sum, sizeof(sum));
        writeFileRaw(file, mutated);
        std::string error;
        EXPECT_FALSE(DurableReader::open(
            file, kSampleKind, &error));
        EXPECT_NE(error.find("version"), std::string::npos) << error;
    }
    // Wrong magic.
    {
        std::string mutated = bytes;
        mutated[0] = 'X';
        writeFileRaw(file, mutated);
        std::string error;
        EXPECT_FALSE(DurableReader::open(
            file, kSampleKind, &error));
    }
    // Right file, wrong expected kind: a sample container never parses
    // as a snapshot.
    {
        writeFileRaw(file, bytes);
        std::string error;
        EXPECT_FALSE(DurableReader::open(
            file, support::kDurableKindSnapshot, &error));
        EXPECT_NE(error.find("kind"), std::string::npos) << error;
    }
}

TEST_F(DurableFileTest, WriterFaultSweepNeverClobbersPublishedFile)
{
    const std::string file = path("sweep");
    // Publish a first generation, then measure the op count of a
    // healthy overwrite.
    ASSERT_TRUE(writeSample(file));
    const std::string previous = readFile(file);

    const std::uint64_t ops = dyn::countIoOps([&] {
        DurableWriter writer(file, kSampleKind);
        writer.addBlock(std::string("second generation"));
        ASSERT_TRUE(writer.commit());
    });
    ASSERT_GT(ops, 0u);
    const std::string committed = readFile(file);
    writeFileRaw(file, previous); // restore generation one

    // Fail every op index in turn; each interrupted overwrite must
    // leave either the previous generation or (only once the rename
    // happened) the complete new one — never a hybrid, never litter.
    for (std::uint64_t k = 0; k < ops; ++k) {
        dyn::IoFaultPoint point;
        point.failAfter = k;
        point.error = ENOSPC;
        bool ok = true;
        int error = 0;
        {
            dyn::ScopedIoFault fault(point);
            DurableWriter writer(file, kSampleKind);
            writer.addBlock(std::string("second generation"));
            ok = writer.commit();
            error = writer.error();
            EXPECT_TRUE(fault.fired()) << "op " << k;
        }
        EXPECT_FALSE(ok) << "op " << k;
        EXPECT_EQ(error, ENOSPC) << "op " << k;
        const std::string now = readFile(file);
        EXPECT_TRUE(now == previous || now == committed)
            << "torn file after fault at op " << k;
        EXPECT_TRUE(tempLitter().empty()) << "op " << k;
        writeFileRaw(file, previous);
    }
}

TEST_F(DurableFileTest, AtomicWriteFileFaultsKeepPreviousContent)
{
    const std::string file = path("atomic.txt");
    ASSERT_TRUE(support::atomicWriteFile(file, "first\n"));
    EXPECT_EQ(readFile(file), "first\n");

    const std::uint64_t ops =
        dyn::countIoOps([&] { support::atomicWriteFile(file, "second\n"); });
    ASSERT_GT(ops, 0u);
    ASSERT_TRUE(support::atomicWriteFile(file, "first\n"));

    for (std::uint64_t k = 0; k < ops; ++k) {
        dyn::IoFaultPoint point;
        point.failAfter = k;
        point.error = EIO;
        std::string error;
        bool ok = true;
        {
            dyn::ScopedIoFault fault(point);
            ok = support::atomicWriteFile(file, "second\n", &error);
        }
        if (!ok) {
            EXPECT_FALSE(error.empty()) << "op " << k;
            const std::string now = readFile(file);
            EXPECT_TRUE(now == "first\n" || now == "second\n")
                << "torn atomic write at op " << k;
        } else {
            // The only survivable fault is the directory fsync after
            // a successful rename — and that path reports failure, so
            // a true return means the fault never fired here.
            EXPECT_EQ(readFile(file), "second\n");
        }
        EXPECT_TRUE(tempLitter().empty()) << "op " << k;
        ASSERT_TRUE(support::atomicWriteFile(file, "first\n"));
    }
}

TEST_F(DurableFileTest, ByteReaderIsBoundsCheckedAndSticky)
{
    ByteWriter out;
    out.u8(7);
    out.u32(0xdeadbeef);
    out.u64(0x1122334455667788ull);
    out.str("payload");
    const std::string bytes = out.take();

    ByteReader in(bytes);
    EXPECT_EQ(in.u8(), 7u);
    EXPECT_EQ(in.u32(), 0xdeadbeefu);
    EXPECT_EQ(in.u64(), 0x1122334455667788ull);
    EXPECT_EQ(in.str(), "payload");
    EXPECT_TRUE(in.ok());
    EXPECT_EQ(in.remaining(), 0u);

    // Reading past the end trips the sticky failure flag and returns
    // zero forever after — even for reads that would fit again.
    EXPECT_EQ(in.u64(), 0u);
    EXPECT_FALSE(in.ok());
    EXPECT_EQ(in.u8(), 0u);
    EXPECT_EQ(in.bytes(1), nullptr);

    // A length-prefixed string whose length overruns the buffer fails
    // without reading out of bounds.
    ByteWriter bad;
    bad.u64(1u << 20);
    const std::string badBytes = bad.take();
    ByteReader badIn(badBytes);
    EXPECT_EQ(badIn.str(), "");
    EXPECT_FALSE(badIn.ok());
}

TEST_F(DurableFileTest, PickIoFaultPointsIsSeededAndCoversEdges)
{
    // Exhaustive below the cap.
    const auto small = dyn::pickIoFaultPoints(5, 10, 42);
    ASSERT_EQ(small.size(), 5u);
    for (std::uint64_t k = 0; k < 5; ++k)
        EXPECT_EQ(small[k].failAfter, k);

    // Sampled above the cap: deterministic per seed, edges included.
    const auto a = dyn::pickIoFaultPoints(1000, 16, 7);
    const auto b = dyn::pickIoFaultPoints(1000, 16, 7);
    const auto c = dyn::pickIoFaultPoints(1000, 16, 8);
    ASSERT_EQ(a.size(), 16u);
    EXPECT_EQ(a.front().failAfter, 0u);
    EXPECT_EQ(a.back().failAfter, 999u);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].failAfter, b[i].failAfter);
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        differs = differs || a[i].failAfter != c[i].failAfter;
    EXPECT_TRUE(differs);

    EXPECT_TRUE(dyn::pickIoFaultPoints(0, 16, 7).empty());
}

} // namespace
} // namespace oha
