/**
 * @file
 * Analysis-daemon tests: bounded-queue admission semantics, deadline
 * expiry, graceful drain/shutdown, and the determinism contract —
 * service results are field-identical to batch-mode pipeline calls at
 * any shard count, on any cache state.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "analysis/andersen_cache.h"
#include "core/optft.h"
#include "core/optslice.h"
#include "pipeline_result_eq.h"
#include "service/analysis_service.h"
#include "service/request_queue.h"
#include "workloads/workloads.h"

namespace oha {
namespace {

// ---------------------------------------------------------------------
// RequestQueue admission semantics
// ---------------------------------------------------------------------

TEST(RequestQueue, TryPushShedsWhenFull)
{
    service::RequestQueue<int> queue(2);
    EXPECT_EQ(queue.tryPush(1), service::PushResult::Ok);
    EXPECT_EQ(queue.tryPush(2), service::PushResult::Ok);
    EXPECT_EQ(queue.tryPush(3), service::PushResult::Shed);
    EXPECT_EQ(queue.depth(), 2u);
    EXPECT_EQ(queue.pop().value(), 1);
    EXPECT_EQ(queue.tryPush(3), service::PushResult::Ok);
}

TEST(RequestQueue, BlockingPushWaitsForSpace)
{
    service::RequestQueue<int> queue(1);
    ASSERT_EQ(queue.push(1), service::PushResult::Ok);
    std::thread producer([&queue] {
        // Blocks until the consumer below pops.
        EXPECT_EQ(queue.push(2), service::PushResult::Ok);
    });
    EXPECT_EQ(queue.pop().value(), 1);
    producer.join();
    EXPECT_EQ(queue.pop().value(), 2);
}

TEST(RequestQueue, CloseDrainsAcceptedItemsThenEndsPop)
{
    service::RequestQueue<int> queue(4);
    queue.push(1);
    queue.push(2);
    queue.close();
    EXPECT_EQ(queue.push(3), service::PushResult::Closed);
    EXPECT_EQ(queue.tryPush(3), service::PushResult::Closed);
    // Accepted items are still served, in order...
    EXPECT_EQ(queue.pop().value(), 1);
    EXPECT_EQ(queue.pop().value(), 2);
    // ...and only then does pop() report exhaustion.
    EXPECT_FALSE(queue.pop().has_value());
}

TEST(RequestQueue, CloseWakesBlockedProducers)
{
    service::RequestQueue<int> queue(1);
    ASSERT_EQ(queue.push(1), service::PushResult::Ok);
    std::thread producer([&queue] {
        EXPECT_EQ(queue.push(2), service::PushResult::Closed);
    });
    // Give the producer time to block on the full queue, then close.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.close();
    producer.join();
}

// ---------------------------------------------------------------------
// AnalysisService
// ---------------------------------------------------------------------

service::AnalysisRequest
requestFor(const workloads::Workload &workload,
            std::chrono::milliseconds deadline = {})
{
    service::AnalysisRequest request;
    request.workload = workload;
    request.deadline = deadline;
    return request;
}

TEST(AnalysisService, RunsRequestsAndDrains)
{
    const auto race = workloads::makeRaceWorkload("raytracer", 4, 3);
    const auto slice = workloads::makeSliceWorkload("zlib", 3, 2);

    service::ServiceConfig config;
    config.shards = 2;
    service::AnalysisService daemon(config);
    EXPECT_EQ(daemon.shards(), 2u);

    auto ftFuture = daemon.submit(requestFor(race));
    service::AnalysisRequest sliceRequest;
    sliceRequest.workload = slice;
    auto sliceFuture = daemon.submit(std::move(sliceRequest));

    daemon.drain();
    EXPECT_EQ(daemon.queueDepth(), 0u);
    const auto counters = daemon.counters();
    EXPECT_EQ(counters.accepted, 2u);
    EXPECT_EQ(counters.completed, 2u);
    EXPECT_EQ(counters.shed, 0u);
    EXPECT_EQ(counters.expired, 0u);
    EXPECT_EQ(counters.failed, 0u);

    const auto ft = ftFuture.get();
    ASSERT_EQ(ft.outcome, service::RequestOutcome::Done);
    ASSERT_TRUE(ft.ft.has_value());
    EXPECT_FALSE(ft.slice.has_value());
    EXPECT_EQ(ft.ft->name, "raytracer");
    EXPECT_GT(ft.ft->testRuns, 0u);
    EXPECT_GE(ft.runMs, 0.0);

    const auto sliced = sliceFuture.get();
    ASSERT_EQ(sliced.outcome, service::RequestOutcome::Done);
    ASSERT_TRUE(sliced.slice.has_value());
    EXPECT_EQ(sliced.slice->name, "zlib");
}

TEST(AnalysisService, SubmitAfterShutdownIsShed)
{
    service::AnalysisService daemon;
    daemon.shutdown();
    const auto race = workloads::makeRaceWorkload("raytracer", 2, 1);
    auto future = daemon.submit(requestFor(race));
    const auto result = future.get();
    EXPECT_EQ(result.outcome, service::RequestOutcome::Shed);
    EXPECT_EQ(result.error, "service is shut down");
    const auto counters = daemon.counters();
    EXPECT_EQ(counters.accepted, 0u);
    EXPECT_EQ(counters.shed, 1u);
}

TEST(AnalysisService, FullQueueShedsUnderShedPolicy)
{
    const auto race = workloads::makeRaceWorkload("raytracer", 6, 4);
    service::ServiceConfig config;
    config.shards = 1;
    config.maxQueueDepth = 1;
    config.admission = service::AdmissionPolicy::Shed;
    service::AnalysisService daemon(config);

    // The first request occupies the single shard for many
    // milliseconds; the second fills the one queue slot; the burst
    // behind them must shed (submission takes microseconds).
    std::vector<std::future<service::ServiceRunResult>> futures;
    for (int i = 0; i < 6; ++i)
        futures.push_back(daemon.submit(requestFor(race)));
    std::size_t done = 0, shed = 0;
    for (auto &future : futures) {
        const auto result = future.get();
        if (result.outcome == service::RequestOutcome::Done)
            ++done;
        else if (result.outcome == service::RequestOutcome::Shed) {
            ++shed;
            EXPECT_EQ(result.error, "queue full");
        }
    }
    EXPECT_EQ(done + shed, 6u);
    EXPECT_GE(done, 1u);
    EXPECT_GE(shed, 1u) << "burst should exceed the depth-1 queue";
    const auto counters = daemon.counters();
    EXPECT_EQ(counters.shed, shed);
    EXPECT_EQ(counters.completed, done);
}

TEST(AnalysisService, QueuedDeadlineExpiresWithoutRunning)
{
    const auto race = workloads::makeRaceWorkload("raytracer", 6, 4);
    service::ServiceConfig config;
    config.shards = 1;
    service::AnalysisService daemon(config);

    // Request A occupies the only shard for >> 1ms; B's deadline
    // passes while it sits queued behind A.
    auto slow = daemon.submit(requestFor(race));
    auto doomed = daemon.submit(
        requestFor(race, std::chrono::milliseconds(1)));
    daemon.drain();

    EXPECT_EQ(slow.get().outcome, service::RequestOutcome::Done);
    const auto expired = doomed.get();
    EXPECT_EQ(expired.outcome, service::RequestOutcome::Expired);
    EXPECT_FALSE(expired.ft.has_value());
    EXPECT_EQ(daemon.counters().expired, 1u);
}

// ---------------------------------------------------------------------
// Determinism contract: service == batch, field for field
// ---------------------------------------------------------------------

// Every cached intermediate (static results, profiling observations)
// must be indistinguishable from a fresh computation: the
// fully-cached pipeline and the fully-live pipeline agree field for
// field.
TEST(AnalysisService, CachedPipelineMatchesLivePipeline)
{
    const auto race = workloads::makeRaceWorkload("sor", 5, 2);
    const auto slice = workloads::makeSliceWorkload("zlib", 4, 2);

    const core::OptFtConfig cachedFtConfig;
    const core::OptSliceConfig cachedSliceConfig;
    core::OptFtConfig liveFt = cachedFtConfig;
    liveFt.cacheProfileObservations = false;
    core::OptSliceConfig liveSlice = cachedSliceConfig;
    liveSlice.cacheProfileObservations = false;

    analysis::resetAndersenCache();
    const auto cachedFt = core::runOptFt(race, cachedFtConfig);
    const auto cachedSlice = core::runOptSlice(slice, cachedSliceConfig);
    expectEqual(cachedFt, core::runOptFt(race, liveFt), "optft");
    expectEqual(cachedSlice, core::runOptSlice(slice, liveSlice),
                "optslice");
}

TEST(AnalysisService, ResultsMatchBatchModeAtOneAndFourShards)
{
    const auto race = workloads::makeRaceWorkload("pmd", 6, 4);
    const auto slice = workloads::makeSliceWorkload("go", 4, 3);

    // Batch-mode reference, computed on a cold cache.
    analysis::resetAndersenCache();
    const auto batchFt = core::runOptFt(race, {});
    const auto batchSlice = core::runOptSlice(slice, {});

    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
        service::ServiceConfig config;
        config.shards = shards;
        service::AnalysisService daemon(config);
        // Two rounds of each request: the first may be served cold or
        // warm (depending on what earlier iterations cached), the
        // second is certainly warm — results must be identical either
        // way, concurrently, at every shard count.
        std::vector<std::future<service::ServiceRunResult>> ftFutures;
        std::vector<std::future<service::ServiceRunResult>> sliceFutures;
        for (int rep = 0; rep < 2; ++rep) {
            ftFutures.push_back(daemon.submit(requestFor(race)));
            service::AnalysisRequest request;
            request.workload = slice;
            sliceFutures.push_back(daemon.submit(std::move(request)));
        }
        const std::string label = "@" + std::to_string(shards) + " shards";
        for (auto &future : ftFutures) {
            const auto result = future.get();
            ASSERT_EQ(result.outcome, service::RequestOutcome::Done)
                << label;
            ASSERT_TRUE(result.ft.has_value()) << label;
            expectEqual(batchFt, *result.ft, label);
        }
        for (auto &future : sliceFutures) {
            const auto result = future.get();
            ASSERT_EQ(result.outcome, service::RequestOutcome::Done)
                << label;
            ASSERT_TRUE(result.slice.has_value()) << label;
            expectEqual(batchSlice, *result.slice, label);
        }
    }
}

// ---------------------------------------------------------------------
// History independence: a result is a function of its input only
// ---------------------------------------------------------------------

/** Batch-mode run of the pipeline the workload's kind selects, in the
 *  daemon's result shape. */
service::ServiceRunResult
runBatchMode(const workloads::Workload &workload)
{
    service::ServiceRunResult result;
    if (workload.race)
        result.ft = core::runOptFt(workload, {});
    else
        result.slice = core::runOptSlice(workload, {});
    return result;
}

void
expectEqual(const service::ServiceRunResult &a,
            const service::ServiceRunResult &b, const std::string &label)
{
    ASSERT_EQ(b.outcome, service::RequestOutcome::Done) << label;
    ASSERT_EQ(a.ft.has_value(), b.ft.has_value()) << label;
    ASSERT_EQ(a.slice.has_value(), b.slice.has_value()) << label;
    if (a.ft)
        expectEqual(*a.ft, *b.ft, label);
    if (a.slice)
        expectEqual(*a.slice, *b.slice, label);
}

/**
 * For each adjacent pair (A, B) of @p programs, run A and then B on
 * one fresh cache, once as batch calls and once through a daemon, and
 * check both results for B against a cold batch run of B.  Whatever
 * A left in the cache may serve B only exact hits.
 */
void
expectResultsIndependentOfThePreviousProgram(
    const std::vector<workloads::Workload> &programs)
{
    for (std::size_t i = 1; i < programs.size(); ++i) {
        const workloads::Workload &a = programs[i - 1];
        const workloads::Workload &b = programs[i];
        const std::string label = a.name + " then " + b.name;

        analysis::resetAndersenCache();
        const service::ServiceRunResult cold = runBatchMode(b);

        analysis::resetAndersenCache();
        runBatchMode(a);
        expectEqual(cold, runBatchMode(b), label + " (batch)");

        analysis::resetAndersenCache();
        service::AnalysisService daemon;
        const auto warmed = daemon.submit(requestFor(a)).get();
        ASSERT_EQ(warmed.outcome, service::RequestOutcome::Done) << label;
        expectEqual(cold, daemon.submit(requestFor(b)).get(),
                    label + " (service)");
    }
    analysis::resetAndersenCache();
}

TEST(AnalysisService, RaceResultsIgnoreThePreviousProgram)
{
    std::vector<workloads::Workload> programs;
    for (const std::string &name : workloads::raceWorkloadNames())
        programs.push_back(workloads::makeRaceWorkload(name, 4, 2));
    expectResultsIndependentOfThePreviousProgram(programs);
}

TEST(AnalysisService, SliceResultsIgnoreThePreviousProgram)
{
    std::vector<workloads::Workload> programs;
    for (const std::string &name : workloads::sliceWorkloadNames())
        programs.push_back(workloads::makeSliceWorkload(name, 3, 2));
    expectResultsIndependentOfThePreviousProgram(programs);
}

} // namespace
} // namespace oha
