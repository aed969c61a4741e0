/**
 * @file
 * The run-batching helpers that execute independent interpreter runs
 * concurrently: a batch over T workers runs on the calling thread plus
 * T - 1 short-lived threads started for that batch.
 *
 * Every execution the OHA pipeline performs — profiling runs,
 * no-custom-sync calibration trials, testing-corpus evaluations — is a
 * pure function of (module, input, schedule seed), so batches of runs
 * can execute on worker threads and have their observations merged in
 * deterministic input-index order.  runBatch() collects results by
 * index and degenerates to the plain serial loop when one thread is
 * configured, so OHA_THREADS=1 reproduces the single-threaded pipeline
 * bit for bit and larger thread counts change wall-clock time only.
 */

#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "support/env.h"

namespace oha::support {

/** Upper bound on a sane worker count: oversubscribing beyond a few
 *  threads per core only adds context-switch overhead, and absurd
 *  requests (OHA_THREADS=4000000000) would try to spawn that many
 *  std::threads and take the process down. */
inline std::size_t
maxSaneThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::size_t{4} * std::max(1u, hw);
}

namespace detail {

/** Cached OHA_THREADS value; 0 = not parsed yet. */
inline std::atomic<std::size_t> &
cachedEnvThreads()
{
    static std::atomic<std::size_t> cached{0};
    return cached;
}

/** Run @p worker on @p numThreads threads: numThreads - 1 new ones
 *  and the calling thread, then join the new ones.  Every started
 *  thread is joined on every exit path (a std::jthread joins when
 *  destroyed), so the batch's state outlives its workers.  If a
 *  thread fails to start, the caller does not run its copy: the
 *  running workers finish every job, and the start failure is
 *  rethrown once they are joined. */
template <typename Worker>
void
runOnThreads(std::size_t numThreads, const Worker &worker)
{
    std::vector<std::jthread> started;
    started.reserve(numThreads - 1);
    for (std::size_t t = 1; t < numThreads; ++t)
        started.emplace_back([&worker] { worker(); });
    worker();
}

} // namespace detail

/**
 * Re-read OHA_THREADS into the process-wide cached value and return
 * it.  Called implicitly by the first configuredThreads(); tests that
 * setenv() the variable mid-process must call this explicitly —
 * steady-state callers never touch getenv again, so concurrent
 * setenv/getenv UB is confined to deliberate refresh points.
 */
inline std::size_t
refreshConfiguredThreads()
{
    const std::size_t value =
        envSizeBytes("OHA_THREADS", 1, 1, maxSaneThreads());
    detail::cachedEnvThreads().store(value, std::memory_order_release);
    return value;
}

/**
 * Worker-thread count for a run batch: @p requested when nonzero,
 * else the OHA_THREADS environment variable, else 1.  The default of
 * 1 keeps every pipeline serial unless parallelism is asked for.
 * Values beyond 4x hardware_concurrency() are clamped with a warning.
 * The environment is parsed once and cached in an atomic; see
 * refreshConfiguredThreads().
 */
inline std::size_t
configuredThreads(std::size_t requested = 0)
{
    if (requested > 0)
        return clampCount("requested thread", requested, 1,
                          maxSaneThreads());
    const std::size_t cached =
        detail::cachedEnvThreads().load(std::memory_order_acquire);
    if (cached != 0)
        return cached;
    // First call: parse the environment.  A concurrent first call
    // computes the same value, so the race is benign.
    return refreshConfiguredThreads();
}

/**
 * Execute jobs fn(0) .. fn(count - 1) and return their results in
 * index order.  Jobs must be mutually independent; because results
 * are collected by index (not completion order), callers that merge
 * them serially observe byte-identical outputs for any thread count.
 * With one effective thread the jobs run inline on the caller;
 * otherwise the caller is one of the workers, and each worker pulls
 * the next job as soon as it is free.
 * Every job runs; if any throw, the lowest-index failing job's
 * exception is rethrown.
 */
template <typename Fn>
auto
runBatch(std::size_t count, Fn &&fn, std::size_t threads = 0)
    -> std::vector<decltype(fn(std::size_t{}))>
{
    using Result = decltype(fn(std::size_t{}));
    std::vector<Result> results(count);
    const std::size_t numThreads =
        std::min(configuredThreads(threads), count);
    if (numThreads <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            results[i] = fn(i);
        return results;
    }

    std::atomic<std::size_t> next{0};
    std::mutex errorMutex;
    std::size_t errorAt = count; // lowest job that threw
    std::exception_ptr error;
    detail::runOnThreads(numThreads, [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= count)
                return;
            try {
                results[i] = fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errorMutex);
                if (i < errorAt) {
                    errorAt = i;
                    error = std::current_exception();
                }
            }
        }
    });
    if (error)
        std::rethrow_exception(error);
    return results;
}

/**
 * Execute jobs fn(0), fn(1), ... in index order until the first job
 * whose result satisfies stop(result), and return the results of jobs
 * 0 .. that job (all @p count of them when none stops).  The returned
 * prefix is identical at any thread count.
 *
 * Jobs start in index order, and no job past a known stopping index
 * is started.  The serial path calls fn exactly on the returned
 * prefix.  With T workers a job starts only once every job T or more
 * places before it has finished, so at most T - 1 jobs beyond the
 * stopping job are ever started; their results are dropped.  A job
 * that throws stops the batch like a stopping result, and the
 * exception of the lowest-index failing job is rethrown unless an
 * earlier job stopped first.
 */
template <typename Fn, typename Stop>
auto
runBatchUntil(std::size_t count, Fn &&fn, Stop &&stop,
              std::size_t threads = 0)
    -> std::vector<decltype(fn(std::size_t{}))>
{
    using Result = decltype(fn(std::size_t{}));
    std::vector<Result> results;
    const std::size_t numThreads =
        std::min(configuredThreads(threads), count);
    if (numThreads <= 1) {
        for (std::size_t i = 0; i < count; ++i) {
            results.push_back(fn(i));
            if (stop(results.back()))
                break;
        }
        return results;
    }

    results.resize(count);
    std::mutex mutex;
    std::condition_variable advanced;
    std::vector<std::uint8_t> finished(count, 0);
    std::size_t next = 0;     // next job to start
    std::size_t finishedPrefix = 0; // jobs [0, finishedPrefix) are done
    std::size_t stopAt = count;  // lowest job whose result stopped
    std::size_t errorAt = count; // lowest job that threw
    std::exception_ptr error;
    auto worker = [&] {
        for (;;) {
            std::size_t i;
            {
                std::unique_lock<std::mutex> lock(mutex);
                advanced.wait(lock, [&] {
                    return next > std::min(stopAt, errorAt) ||
                           next >= count ||
                           next < finishedPrefix + numThreads;
                });
                if (next > std::min(stopAt, errorAt) || next >= count)
                    return;
                i = next++;
            }
            Result result{};
            bool stops = false;
            std::exception_ptr thrown;
            try {
                result = fn(i);
                stops = stop(result);
            } catch (...) {
                thrown = std::current_exception();
            }
            {
                std::lock_guard<std::mutex> lock(mutex);
                results[i] = std::move(result);
                finished[i] = 1;
                while (finishedPrefix < count && finished[finishedPrefix])
                    ++finishedPrefix;
                if (stops && i < stopAt)
                    stopAt = i;
                if (thrown && i < errorAt) {
                    errorAt = i;
                    error = thrown;
                }
            }
            advanced.notify_all();
        }
    };

    detail::runOnThreads(numThreads, worker);
    if (errorAt < stopAt)
        std::rethrow_exception(error);
    if (stopAt < count)
        results.resize(stopAt + 1);
    return results;
}

} // namespace oha::support
