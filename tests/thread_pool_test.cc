/**
 * @file
 * Unit tests for runBatch(): index-order result collection, the
 * serial inline path, OHA_THREADS parsing, exception propagation, and
 * actual wall-clock overlap of concurrent jobs.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "support/thread_pool.h"

namespace oha {
namespace {

/** RAII guard that restores OHA_THREADS (and the cached parse) on
 *  scope exit.  configuredThreads() reads the environment only at
 *  refresh points, so every setenv below is followed by an explicit
 *  refreshConfiguredThreads(). */
class EnvGuard
{
  public:
    EnvGuard()
    {
        if (const char *old = std::getenv("OHA_THREADS"))
            saved_ = old;
    }
    ~EnvGuard()
    {
        if (saved_.empty())
            unsetenv("OHA_THREADS");
        else
            setenv("OHA_THREADS", saved_.c_str(), 1);
        support::refreshConfiguredThreads();
    }

  private:
    std::string saved_;
};

/** setenv + re-parse in one step. */
std::size_t
setThreadsEnv(const char *value)
{
    setenv("OHA_THREADS", value, 1);
    return support::refreshConfiguredThreads();
}

TEST(RunBatch, ResultsComeBackInIndexOrder)
{
    const auto results = support::runBatch(
        64, [](std::size_t i) { return i * i; }, 4);
    ASSERT_EQ(results.size(), 64u);
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i], i * i);
}

TEST(RunBatch, SerialPathRunsInlineOnCaller)
{
    const std::thread::id caller = std::this_thread::get_id();
    const auto ids = support::runBatch(
        8, [](std::size_t) { return std::this_thread::get_id(); }, 1);
    for (const std::thread::id &id : ids)
        EXPECT_EQ(id, caller);
}

TEST(RunBatch, SingleJobRunsInlineEvenWithManyThreads)
{
    const std::thread::id caller = std::this_thread::get_id();
    const auto ids = support::runBatch(
        1, [](std::size_t) { return std::this_thread::get_id(); }, 8);
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(ids[0], caller);
}

TEST(RunBatch, CallerIsOneOfTheWorkers)
{
    // The two jobs meet before either returns, so two workers must run
    // them at once; at two threads the caller has to be one of them.
    std::mutex mutex;
    std::condition_variable met;
    int arrived = 0;
    const std::thread::id caller = std::this_thread::get_id();
    const auto ids = support::runBatch(
        2,
        [&](std::size_t) {
            std::unique_lock<std::mutex> lock(mutex);
            ++arrived;
            met.notify_all();
            EXPECT_TRUE(met.wait_for(lock, std::chrono::seconds(10),
                                     [&] { return arrived == 2; }));
            return std::this_thread::get_id();
        },
        2);
    ASSERT_EQ(ids.size(), 2u);
    EXPECT_NE(ids[0], ids[1]);
    EXPECT_TRUE(ids[0] == caller || ids[1] == caller);
}

TEST(RunBatch, JobsActuallyOverlap)
{
    // Four sleeping jobs on four workers should take ~one sleep, not
    // four; this holds even on a single-core host, so it doubles as
    // the speedup check the acceptance criteria ask for.  Serial
    // execution of the same batch would need >= 4 * 50ms.
    using Clock = std::chrono::steady_clock;
    const auto start = Clock::now();
    support::runBatch(
        4,
        [](std::size_t i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            return i;
        },
        4);
    const double elapsed =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    // 4 * 50ms serial vs budgeted 110ms parallel: > 1.8x speedup.
    EXPECT_LT(elapsed, 110.0);
}

TEST(RunBatch, PropagatesFirstException)
{
    // Jobs 3, 8 and 13 throw; the lowest index's exception wins at any
    // thread count.
    for (const std::size_t threads : {1, 4}) {
        try {
            support::runBatch(
                16,
                [](std::size_t i) {
                    if (i % 5 == 3)
                        throw std::runtime_error("job " + std::to_string(i));
                    return i;
                },
                threads);
            ADD_FAILURE() << "no exception at " << threads << " threads";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "job 3") << threads << " threads";
        }
    }
}

TEST(RunBatch, ZeroJobsIsANoOp)
{
    const auto results =
        support::runBatch(0, [](std::size_t i) { return i; }, 4);
    EXPECT_TRUE(results.empty());
}

TEST(ConfiguredThreads, ExplicitRequestWins)
{
    EnvGuard guard;
    setThreadsEnv("4");
    EXPECT_EQ(support::configuredThreads(3), 3u);
}

TEST(ConfiguredThreads, ReadsEnvironment)
{
    // 3 and 4 are within maxSaneThreads() on any machine (it is at
    // least 4 * max(1, hardware_concurrency)), so no clamping here.
    EnvGuard guard;
    setThreadsEnv("3");
    EXPECT_EQ(support::configuredThreads(), 3u);
    EXPECT_EQ(support::configuredThreads(0), 3u);
}

TEST(ConfiguredThreads, DefaultsToSerial)
{
    EnvGuard guard;
    unsetenv("OHA_THREADS");
    support::refreshConfiguredThreads();
    EXPECT_EQ(support::configuredThreads(), 1u);
}

TEST(ConfiguredThreads, ParsesOnceIntoCache)
{
    EnvGuard guard;
    setThreadsEnv("3");
    EXPECT_EQ(support::configuredThreads(), 3u);
    // A bare setenv without a refresh must NOT change the cached
    // value: steady-state callers never re-read the environment.
    setenv("OHA_THREADS", "4", 1);
    EXPECT_EQ(support::configuredThreads(), 3u);
    support::refreshConfiguredThreads();
    EXPECT_EQ(support::configuredThreads(), 4u);
}

TEST(ConfiguredThreads, IgnoresMalformedValues)
{
    EnvGuard guard;
    EXPECT_EQ(setThreadsEnv("banana"), 1u);
    EXPECT_EQ(support::configuredThreads(), 1u);
    EXPECT_EQ(setThreadsEnv("4x"), 1u);
    EXPECT_EQ(support::configuredThreads(), 1u);
    EXPECT_EQ(setThreadsEnv("0"), 1u);
    EXPECT_EQ(support::configuredThreads(), 1u);
    EXPECT_EQ(setThreadsEnv(""), 1u);
    EXPECT_EQ(support::configuredThreads(), 1u);
}

TEST(ConfiguredThreads, ClampsAbsurdEnvironmentValues)
{
    EnvGuard guard;
    const std::size_t max = support::maxSaneThreads();
    EXPECT_GE(max, 4u);
    EXPECT_EQ(setThreadsEnv("4000000000"), max);
    EXPECT_EQ(support::configuredThreads(), max);
}

TEST(ConfiguredThreads, ClampsAbsurdExplicitRequests)
{
    EnvGuard guard;
    const std::size_t max = support::maxSaneThreads();
    EXPECT_EQ(support::configuredThreads(max + 1), max);
    EXPECT_EQ(support::configuredThreads(std::size_t{1} << 40), max);
    // In-range requests pass through unclamped.
    EXPECT_EQ(support::configuredThreads(2), 2u);
}

} // namespace
} // namespace oha
