/**
 * @file
 * Unit tests for the support layer: sparse bit sets, Bloom filters,
 * vector clocks, union-find, the RNG and runBatchUntil.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/env.h"
#include "support/rng.h"
#include "support/sparse_bit_set.h"
#include "support/table.h"
#include "support/thread_pool.h"
#include "support/union_find.h"
#include "support/vector_clock.h"

namespace oha {
namespace {

TEST(SparseBitSet, InsertContainsErase)
{
    SparseBitSet set;
    EXPECT_TRUE(set.empty());
    EXPECT_TRUE(set.insert(5));
    EXPECT_FALSE(set.insert(5));
    EXPECT_TRUE(set.insert(64));
    EXPECT_TRUE(set.insert(1000000));
    EXPECT_TRUE(set.contains(5));
    EXPECT_TRUE(set.contains(64));
    EXPECT_TRUE(set.contains(1000000));
    EXPECT_FALSE(set.contains(6));
    EXPECT_EQ(set.size(), 3u);
    EXPECT_TRUE(set.erase(64));
    EXPECT_FALSE(set.erase(64));
    EXPECT_FALSE(set.contains(64));
    EXPECT_EQ(set.size(), 2u);
}

TEST(SparseBitSet, UnionReportsChange)
{
    SparseBitSet a, b;
    a.insert(1);
    a.insert(100);
    b.insert(100);
    EXPECT_FALSE(a.unionWith(b));
    b.insert(200);
    EXPECT_TRUE(a.unionWith(b));
    EXPECT_TRUE(a.contains(200));
    EXPECT_EQ(a.size(), 3u);
}

TEST(SparseBitSet, IntersectAndIntersects)
{
    SparseBitSet a, b;
    for (std::uint32_t i = 0; i < 100; i += 3)
        a.insert(i);
    for (std::uint32_t i = 0; i < 100; i += 5)
        b.insert(i);
    EXPECT_TRUE(a.intersects(b));
    a.intersectWith(b);
    a.forEach([](std::uint32_t v) { EXPECT_EQ(v % 15, 0u); });
    EXPECT_EQ(a.size(), 7u); // 0,15,30,45,60,75,90

    SparseBitSet c;
    c.insert(1);
    c.insert(2);
    EXPECT_FALSE(a.intersects(c));
}

TEST(SparseBitSet, OrderedIteration)
{
    SparseBitSet set;
    const std::vector<std::uint32_t> values = {900, 3, 70, 64, 63, 128};
    for (std::uint32_t v : values)
        set.insert(v);
    std::vector<std::uint32_t> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(set.toVector(), sorted);
}

TEST(SparseBitSet, HashDiffersForDifferentSets)
{
    SparseBitSet a, b;
    a.insert(1);
    b.insert(2);
    EXPECT_NE(a.hash(), b.hash());
    b.clear();
    b.insert(1);
    EXPECT_EQ(a.hash(), b.hash());
}

TEST(VectorClock, JoinAndCovers)
{
    VectorClock a, b;
    a.set(0, 5);
    a.set(1, 2);
    b.set(1, 7);
    a.join(b);
    EXPECT_EQ(a.get(0), 5u);
    EXPECT_EQ(a.get(1), 7u);
    EXPECT_TRUE(a.covers(Epoch(1, 7)));
    EXPECT_FALSE(a.covers(Epoch(1, 8)));
    EXPECT_TRUE(a.covers(Epoch(3, 0)));
    EXPECT_TRUE(a.coversAll(b));
    EXPECT_FALSE(b.coversAll(a));
}

TEST(Epoch, PackUnpack)
{
    const Epoch e(12, 123456789);
    EXPECT_EQ(e.tid(), 12u);
    EXPECT_EQ(e.clock(), 123456789u);
    EXPECT_EQ(Epoch::none().clock(), 0u);
}

TEST(Epoch, ClockBoundaryRoundTrips)
{
    // The clock occupies the low 48 bits; the largest representable
    // value must round-trip without bleeding into the tid field.
    const Epoch e(0xabcd, Epoch::kMaxClock);
    EXPECT_EQ(e.tid(), 0xabcdu);
    EXPECT_EQ(e.clock(), Epoch::kMaxClock);

    const Epoch low(0xffff, 1);
    EXPECT_EQ(low.tid(), 0xffffu);
    EXPECT_EQ(low.clock(), 1u);
}

TEST(EpochDeathTest, ClockOverflowAsserts)
{
    EXPECT_DEATH(Epoch(1, Epoch::kMaxClock + 1), "assertion failed");
}

TEST(UnionFind, MergeFind)
{
    UnionFind uf(10);
    EXPECT_FALSE(uf.same(1, 2));
    uf.merge(1, 2);
    uf.merge(2, 3);
    EXPECT_TRUE(uf.same(1, 3));
    EXPECT_FALSE(uf.same(1, 4));
    uf.grow(20);
    EXPECT_FALSE(uf.same(1, 15));
    uf.merge(3, 15);
    EXPECT_TRUE(uf.same(1, 15));
}

TEST(Rng, DeterministicStreams)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    bool anyDiff = false;
    for (int i = 0; i < 100; ++i)
        anyDiff |= a.next() != c.next();
    EXPECT_TRUE(anyDiff);
}

TEST(Rng, BelowAndRangeInBounds)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.below(17), 17u);
        const std::int64_t v = rng.range(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

TEST(FastMod, MatchesModuloOnEdgesAndDraws)
{
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    for (const std::uint64_t d :
         {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
          std::uint64_t{7}, std::uint64_t{49}, std::uint64_t{4000},
          std::uint64_t{0xffffffff}, kMax}) {
        const FastMod mod(d);
        for (const std::uint64_t n :
             {std::uint64_t{0}, std::uint64_t{1}, d - 1, d, d + 1, kMax,
              kMax - 1})
            EXPECT_EQ(mod(n), n % d) << n << " mod " << d;
        Rng rng(d);
        for (int i = 0; i < 10000; ++i) {
            const std::uint64_t n = rng.next();
            ASSERT_EQ(mod(n), n % d) << n << " mod " << d;
        }
    }
}

TEST(TextTable, AlignsColumns)
{
    TextTable table({"name", "value"});
    table.addRow({"alpha", "1"});
    table.addRow({"b", "12345"});
    const std::string out = table.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("12345"), std::string::npos);
}

TEST(Format, TimeAndSpeedup)
{
    EXPECT_EQ(fmtTime(75), "1m 15s");
    EXPECT_EQ(fmtTime(3675), "1h 1m 15s");
    EXPECT_EQ(fmtTime(9), "9s");
    EXPECT_EQ(fmtSpeedup(3.54), "3.5x");
    EXPECT_EQ(fmtDouble(1.266, 2), "1.27");
}

TEST(EnvSizeBytes, ValidationContract)
{
    const char *name = "OHA_TEST_ENV_SIZE_BYTES";
    unsetenv(name);
    // Unset: default, no clamping of the default itself.
    EXPECT_EQ(support::envSizeBytes(name, 42, 1, 100), 42u);

    // Well-formed values are honored exactly.
    ASSERT_EQ(setenv(name, "7", 1), 0);
    EXPECT_EQ(support::envSizeBytes(name, 42, 1, 100), 7u);

    // Malformed: trailing junk, pure garbage, empty -> default + warn.
    for (const char *bad : {"12abc", "abc", "", "-3", " 5"}) {
        ASSERT_EQ(setenv(name, bad, 1), 0);
        EXPECT_EQ(support::envSizeBytes(name, 42, 1, 100), 42u) << bad;
    }

    // Out-of-range values clamp to the nearest bound.
    ASSERT_EQ(setenv(name, "0", 1), 0);
    EXPECT_EQ(support::envSizeBytes(name, 42, 5, 100), 5u);
    ASSERT_EQ(setenv(name, "1000", 1), 0);
    EXPECT_EQ(support::envSizeBytes(name, 42, 5, 100), 100u);

    // Unit scaling (e.g. OHA_CACHE_BUDGET_MB): clamp is post-scale.
    ASSERT_EQ(setenv(name, "3", 1), 0);
    EXPECT_EQ(support::envSizeBytes(name, 1u << 20, 1u << 20, 1u << 30,
                                    1u << 20),
              3u << 20);

    // Products that would overflow saturate at the maximum.
    ASSERT_EQ(setenv(name, "18446744073709551615", 1), 0);
    EXPECT_EQ(support::envSizeBytes(name, 42, 1, 100), 100u);
    // Beyond even unsigned long long (strtoull reports ERANGE): still
    // the maximum, not a wrapped or "malformed" fallback.
    ASSERT_EQ(setenv(name, "99999999999999999999999999", 1), 0);
    EXPECT_EQ(support::envSizeBytes(name, 42, 1, 100), 100u);
    ASSERT_EQ(setenv(name, "1099511627776", 1), 0); // 1 TiB in MiB units
    EXPECT_EQ(support::envSizeBytes(name, 1u << 20, 1u << 20, 1u << 30,
                                    1u << 20),
              1u << 30);

    unsetenv(name);
}

TEST(ConfiguredThreads, SharesTheEnvValidationContract)
{
    // OHA_THREADS routes through envSizeBytes: malformed values fall
    // back to the serial default with a warning, absurd counts clamp
    // to the sane maximum, and well-formed values are honored.  The
    // cached value only changes at explicit refresh points.
    const auto with = [](const char *value) {
        if (value)
            ASSERT_EQ(setenv("OHA_THREADS", value, 1), 0);
        else
            unsetenv("OHA_THREADS");
        support::refreshConfiguredThreads();
    };

    with(nullptr);
    EXPECT_EQ(support::configuredThreads(), 1u);

    with("3");
    EXPECT_EQ(support::configuredThreads(), 3u);

    for (const char *bad : {"four", "4x", "", "-2", " 4"}) {
        with(bad);
        EXPECT_EQ(support::configuredThreads(), 1u) << bad;
    }

    with("0");
    EXPECT_EQ(support::configuredThreads(), 1u); // clamped to minimum

    with("4000000000");
    EXPECT_EQ(support::configuredThreads(), support::maxSaneThreads());

    // An explicit request bypasses the environment but still clamps.
    EXPECT_EQ(support::configuredThreads(2), 2u);
    EXPECT_EQ(support::configuredThreads(4000000000u),
              support::maxSaneThreads());

    with(nullptr);
    EXPECT_EQ(support::configuredThreads(), 1u);
}

/** Jobs of the runBatchUntil tests: job i returns i, and stops the
 *  batch when i is @p stopAt. */
std::vector<std::size_t>
untilPrefix(std::size_t count, std::size_t stopAt, std::size_t threads)
{
    return support::runBatchUntil(
        count, [](std::size_t i) { return i; },
        [stopAt](std::size_t result) { return result == stopAt; }, threads);
}

TEST(RunBatchUntil, PrefixIsThreadCountInvariant)
{
    constexpr std::size_t kJobs = 23;
    // Stop at the first, a middle and the last job, and never.
    for (const std::size_t stopAt : {std::size_t{0}, std::size_t{11},
                                     kJobs - 1, kJobs}) {
        std::vector<std::size_t> expected;
        for (std::size_t i = 0; i < std::min(stopAt + 1, kJobs); ++i)
            expected.push_back(i);
        for (const std::size_t threads : {1, 2, 4})
            EXPECT_EQ(untilPrefix(kJobs, stopAt, threads), expected)
                << "stop " << stopAt << " @" << threads << "t";
    }
}

TEST(RunBatchUntil, SerialPathNeverRunsPastTheStop)
{
    std::vector<std::size_t> called;
    const auto results = support::runBatchUntil(
        10,
        [&](std::size_t i) {
            called.push_back(i);
            return i;
        },
        [](std::size_t result) { return result == 4; }, 1);
    EXPECT_EQ(results, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
    EXPECT_EQ(called, results);
}

TEST(RunBatchUntil, ParallelPathStartsAtMostThreadsMinusOneBeyondTheStop)
{
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kStop = 5;
    std::atomic<std::size_t> maxStarted{0};
    const auto results = support::runBatchUntil(
        64,
        [&](std::size_t i) {
            std::size_t seen = maxStarted.load();
            while (i > seen && !maxStarted.compare_exchange_weak(seen, i)) {
            }
            // A slow stopping job gives the other workers time to race
            // ahead if anything let them.
            if (i == kStop)
                std::this_thread::sleep_for(std::chrono::milliseconds(50));
            return i;
        },
        [](std::size_t result) { return result == kStop; }, kThreads);
    EXPECT_EQ(results.size(), kStop + 1);
    EXPECT_GE(maxStarted.load(), kStop);
    EXPECT_LE(maxStarted.load(), kStop + kThreads - 1);
}

TEST(RunBatchUntil, PropagatesTheFirstException)
{
    for (const std::size_t threads : {1, 2, 4}) {
        auto fn = [](std::size_t i) {
            if (i == 3 || i == 5)
                throw std::runtime_error("job " + std::to_string(i));
            return i;
        };
        // Nothing stops before job 3: its exception surfaces, never
        // job 5's.
        try {
            support::runBatchUntil(
                8, fn, [](std::size_t) { return false; }, threads);
            ADD_FAILURE() << "expected an exception @" << threads << "t";
        } catch (const std::runtime_error &error) {
            EXPECT_EQ(std::string(error.what()), "job 3") << threads;
        }
        // A stop at job 2 comes first: the failing jobs are never due.
        const auto results = support::runBatchUntil(
            8, fn, [](std::size_t result) { return result == 2; }, threads);
        EXPECT_EQ(results, (std::vector<std::size_t>{0, 1, 2})) << threads;
    }
}

TEST(RunBatchUntil, ZeroJobsIsANoOp)
{
    for (const std::size_t threads : {1, 4}) {
        bool called = false;
        const auto results = support::runBatchUntil(
            0,
            [&](std::size_t i) {
                called = true;
                return i;
            },
            [](std::size_t) { return true; }, threads);
        EXPECT_TRUE(results.empty());
        EXPECT_FALSE(called);
    }
}

} // namespace
} // namespace oha
