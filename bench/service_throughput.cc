/**
 * @file
 * Analysis-daemon throughput benchmark: the service's steady-state
 * win over batch mode is the shared cross-request cache.
 *
 * Protocol:
 *
 *  1. Parity: one race and one slice workload run once in batch mode
 *     (direct runOptFt/runOptSlice calls on a cold cache) and then
 *     through the service at 1 and 4 shards.  The field comparison
 *     must match exactly — the determinism contract says the service
 *     is just a scheduler around pure pipeline functions.
 *
 *  2. Pass sets.  Each set starts from an empty shared cache and
 *     runs three timed passes over a mixed corpus of race + slice
 *     requests on a 4-shard daemon, collecting per-request latency
 *     (queue + run wall time), requests/sec, the shared-cache hit
 *     rate and the process CPU time each pass burned:
 *
 *     - cold: every static solve and profiling observation misses;
 *     - warm: every workload is rebuilt from scratch (NEW module
 *       objects — the cache is value-keyed, not pointer-keyed) and
 *       submitted again.  The static phase and the profiling
 *       observations all hit; the testing inputs run live;
 *     - restart-warm: a daemon with a state directory snapshots the
 *       warm cache on graceful shutdown (service/snapshot.h); after a
 *       full cache reset a fresh daemon reloads it.  Andersen results
 *       are recomputed (never persisted).
 *
 *     One pass of a dozen requests makes a noisy p50, so several sets
 *     run and every bar is checked against the median over the sets
 *     of the per-set value (ratios are taken within a set).  Bars:
 *     warm hit rate >= 90% and warm p50 below 50% of cold p50;
 *     restart-warm hit rate >= 80% and p50 below 70% of cold.
 *
 * OHA_BENCH_SMOKE=1 shrinks the corpus for CI.  JSON output:
 * BENCH_service_throughput.json.
 */

#include "bench_common.h"

#include <algorithm>
#include <cstdlib>
#include <future>
#include <vector>

#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include "analysis/andersen_cache.h"
#include "service/analysis_service.h"
#include "service/snapshot.h"
#include "workloads/workloads.h"

using namespace oha;

namespace {

bool
smokeMode()
{
    const char *env = std::getenv("OHA_BENCH_SMOKE");
    return env && *env && *env != '0';
}

/** Percentile over a copy of @p values (nearest-rank). */
double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const std::size_t rank = std::min(
        values.size() - 1,
        static_cast<std::size_t>(p / 100.0 * double(values.size())));
    return values[rank];
}

struct Corpus
{
    std::vector<std::string> race;
    std::vector<std::string> slice;
    std::size_t profileRuns;
    std::size_t raceTestRuns;
    std::size_t sliceTestRuns;

    std::size_t size() const { return race.size() + slice.size(); }

    /** Build request @p i from scratch — fresh module objects every
     *  call, so warm-pass hits prove the cache is value-keyed. */
    service::AnalysisRequest
    request(std::size_t i) const
    {
        service::AnalysisRequest request;
        request.workload =
            i < race.size()
                ? workloads::makeRaceWorkload(race[i], profileRuns,
                                              raceTestRuns)
                : workloads::makeSliceWorkload(slice[i - race.size()],
                                               profileRuns, sliceTestRuns);
        return request;
    }
};

/** Median of @p values (the upper middle for an even count). */
double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return values.empty() ? 0 : values[values.size() / 2];
}

/** CPU time this process has used, all threads, in ms. */
double
processCpuMs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) * 1e3 + double(ts.tv_nsec) / 1e6;
}

struct PassStats
{
    double wallMs = 0;
    double cpuMs = 0;
    double p50 = 0;
    double p95 = 0;
    double requestsPerSec = 0;
    double hitRate = 0;
};

/** Submit the whole corpus to a fresh @p shards-shard daemon and
 *  measure latency distribution plus the shared-cache hit rate.  A
 *  non-empty @p stateDir makes the daemon warm-start from (and, on
 *  shutdown, persist to) <stateDir>/oha-cache.snapshot. */
PassStats
runPass(const Corpus &corpus, std::size_t shards,
        const std::string &stateDir = std::string())
{
    const auto before = analysis::andersenCacheStats();

    service::ServiceConfig config;
    config.shards = shards;
    config.maxQueueDepth = corpus.size() + 1;
    config.stateDir = stateDir;
    service::AnalysisService daemon(config);

    const double t0 = bench::nowMs();
    const double cpu0 = processCpuMs();
    std::vector<std::future<service::ServiceRunResult>> futures;
    futures.reserve(corpus.size());
    for (std::size_t i = 0; i < corpus.size(); ++i)
        futures.push_back(daemon.submit(corpus.request(i)));

    std::vector<double> latencies;
    latencies.reserve(futures.size());
    for (auto &future : futures) {
        const auto result = future.get();
        if (result.outcome != service::RequestOutcome::Done) {
            std::fprintf(stderr, "request failed: %s\n",
                         result.error.c_str());
            std::abort();
        }
        latencies.push_back(result.queueMs + result.runMs);
    }
    daemon.drain();

    PassStats stats;
    stats.wallMs = bench::nowMs() - t0;
    stats.cpuMs = processCpuMs() - cpu0;
    stats.p50 = percentile(latencies, 50);
    stats.p95 = percentile(latencies, 95);
    stats.requestsPerSec =
        stats.wallMs > 0 ? double(corpus.size()) / (stats.wallMs / 1000.0)
                         : 0;

    const auto after = analysis::andersenCacheStats();
    const std::uint64_t hits = after.hits - before.hits;
    const std::uint64_t misses = (after.misses - before.misses) +
                                 (after.verifiedMisses -
                                  before.verifiedMisses);
    stats.hitRate =
        hits + misses > 0 ? double(hits) / double(hits + misses) : 0;
    return stats;
}

/** One cold, warm and restart-warm pass, from an empty cache.  The
 *  restart-warm pass boots from the snapshot that a warm daemon with
 *  @p stateDir wrote on shutdown, after a full cache reset (a
 *  simulated process restart). */
struct PassSet
{
    PassStats cold;
    PassStats warm;
    PassStats restart;
};

PassSet
runPassSet(const Corpus &corpus, const std::string &stateDir)
{
    PassSet set;
    analysis::resetAndersenCache();
    set.cold = runPass(corpus, 4);
    set.warm = runPass(corpus, 4);
    ::unlink(service::defaultSnapshotPath(stateDir).c_str());
    runPass(corpus, 4, stateDir); // warm daemon; snapshot on shutdown
    analysis::resetAndersenCache();
    set.restart = runPass(corpus, 4, stateDir);
    return set;
}

/** Per-pass-kind medians over @p sets, field by field. */
PassStats
medianPass(const std::vector<PassSet> &sets, PassStats PassSet::*kind)
{
    auto field = [&](double PassStats::*member) {
        std::vector<double> values;
        for (const PassSet &set : sets)
            values.push_back((set.*kind).*member);
        return median(std::move(values));
    };
    PassStats stats;
    stats.wallMs = field(&PassStats::wallMs);
    stats.cpuMs = field(&PassStats::cpuMs);
    stats.p50 = field(&PassStats::p50);
    stats.p95 = field(&PassStats::p95);
    stats.requestsPerSec = field(&PassStats::requestsPerSec);
    stats.hitRate = field(&PassStats::hitRate);
    return stats;
}

} // namespace

int
main()
{
    bench::banner(
        "Service throughput: persistent daemon + shared cross-request cache",
        "amortize predicated static analysis and profiling across "
        "requests instead of paying them per invocation");

    const bool smoke = smokeMode();
    Corpus corpus;
    {
        const auto &race = workloads::raceWorkloadNames();
        const auto &slice = workloads::sliceWorkloadNames();
        const std::size_t raceCount = smoke ? 3 : 8;
        const std::size_t sliceCount = smoke ? 1 : 4;
        corpus.race.assign(race.begin(),
                           race.begin() +
                               std::min(raceCount, race.size()));
        corpus.slice.assign(slice.begin(),
                            slice.begin() +
                                std::min(sliceCount, slice.size()));
        // Small corpora on purpose: the shared cache carries the
        // static phase and the profiling observations, but the
        // dynamic tools (FastTrack/Giri over the testing inputs) run
        // live in every pass — the smaller the testing corpus, the
        // closer the measurement is to the cacheable share of a
        // steady-state daemon request.
        corpus.profileRuns = smoke ? 2 : 4;
        corpus.raceTestRuns = 2;
        corpus.sliceTestRuns = 2;
    }

    bench::JsonReport json("service_throughput");

    // ---- 1. Service-vs-batch parity at 1 and 4 shards ---------------
    analysis::resetAndersenCache();
    const auto batchFt =
        core::runOptFt(workloads::makeRaceWorkload(
                           corpus.race.front(), corpus.profileRuns,
                           corpus.raceTestRuns),
                       {});
    const auto batchSlice =
        core::runOptSlice(workloads::makeSliceWorkload(
                              corpus.slice.front(), corpus.profileRuns,
                              corpus.sliceTestRuns),
                          {});
    bool parityOk = true;
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
        service::ServiceConfig config;
        config.shards = shards;
        service::AnalysisService daemon(config);
        auto ftFuture = daemon.submit(corpus.request(0));
        auto sliceFuture = daemon.submit(corpus.request(corpus.race.size()));
        const auto ft = ftFuture.get();
        const auto slice = sliceFuture.get();
        const bool ok =
            ft.outcome == service::RequestOutcome::Done &&
            slice.outcome == service::RequestOutcome::Done &&
            ft.ft.has_value() && slice.slice.has_value() &&
            batchFt == *ft.ft && batchSlice == *slice.slice;
        parityOk = parityOk && ok;
        json.metric("parity", "shards_" + std::to_string(shards),
                    "matches_batch", ok ? 1 : 0);
        std::printf("parity @ %zu shards: %s\n", shards,
                    ok ? "MATCH" : "MISMATCH");
    }

    // ---- 2. Pass sets: cold, warm and restart-warm -----------------
    const std::size_t numSets = 7;
    const std::string stateDir = "oha-bench-state";
    ::mkdir(stateDir.c_str(), 0755);
    std::vector<PassSet> sets;
    std::vector<double> warmRatios, restartRatios;
    for (std::size_t i = 0; i < numSets; ++i) {
        sets.push_back(runPassSet(corpus, stateDir));
        const PassSet &set = sets.back();
        const double cold = set.cold.p50;
        warmRatios.push_back(cold > 0 ? set.warm.p50 / cold : 0);
        restartRatios.push_back(cold > 0 ? set.restart.p50 / cold : 0);
        const std::string name = "set" + std::to_string(i);
        json.metric(name, "warm", "p50_vs_cold", warmRatios.back());
        json.metric(name, "restart-warm", "p50_vs_cold",
                    restartRatios.back());
    }
    const PassStats cold = medianPass(sets, &PassSet::cold);
    const PassStats warm = medianPass(sets, &PassSet::warm);
    const PassStats restart = medianPass(sets, &PassSet::restart);

    TextTable table({"pass (median)", "wall ms", "cpu ms", "req/s",
                     "p50 ms", "p95 ms", "cache hit rate"});
    auto row = [&](const char *pass, const PassStats &s) {
        table.addRow({pass, fmtDouble(s.wallMs, 1), fmtDouble(s.cpuMs, 1),
                      fmtDouble(s.requestsPerSec, 1), fmtDouble(s.p50, 2),
                      fmtDouble(s.p95, 2), fmtDouble(s.hitRate * 100, 1) +
                                               "%"});
        const std::string variant = pass;
        json.metric("corpus", variant, "wall_ms", s.wallMs);
        json.metric("corpus", variant, "cpu_ms", s.cpuMs);
        json.metric("corpus", variant, "requests_per_sec",
                    s.requestsPerSec);
        json.metric("corpus", variant, "p50_ms", s.p50);
        json.metric("corpus", variant, "p95_ms", s.p95);
        json.metric("corpus", variant, "cache_hit_rate", s.hitRate);
    };
    row("cold", cold);
    row("warm", warm);
    row("restart-warm", restart);
    std::printf("%s\n", table.str().c_str());

    auto list = [](const std::vector<double> &values) {
        std::string out;
        for (const double value : values)
            out += (out.empty() ? "" : " ") + fmtDouble(value, 2);
        return out;
    };
    const double p50Ratio = median(warmRatios);
    const double restartRatio = median(restartRatios);
    json.metric("corpus", "warm", "p50_vs_cold", p50Ratio);
    json.metric("corpus", "restart-warm", "p50_vs_cold", restartRatio);
    std::printf("pass sets: %zu; per-set warm/cold p50: %s; per-set "
                "restart-warm/cold p50: %s\n",
                numSets, list(warmRatios).c_str(),
                list(restartRatios).c_str());
    std::printf("requests: %zu (%zu race + %zu slice)\n", corpus.size(),
                corpus.race.size(), corpus.slice.size());
    std::printf("median warm hit rate: %.1f%% (bar: >= 90%%)\n",
                warm.hitRate * 100);
    std::printf("median warm p50 / cold p50: %.2f (bar: < 0.50)\n",
                p50Ratio);
    std::printf("median restart-warm hit rate: %.1f%% (bar: >= 80%%)\n",
                restart.hitRate * 100);
    std::printf("median restart-warm p50 / cold p50: %.2f (bar: < 0.70)\n",
                restartRatio);

    bool ok = parityOk;
    if (warm.hitRate < 0.9) {
        std::printf("WARNING: warm hit rate below the 90%% bar\n");
        ok = false;
    }
    if (p50Ratio >= 0.5) {
        std::printf("WARNING: warm p50 not under half of cold p50\n");
        ok = false;
    }
    // The restart bars are timing-sensitive on tiny smoke corpora;
    // under OHA_BENCH_SMOKE a miss warns without failing the run.
    if (restart.hitRate < 0.8) {
        std::printf("WARNING: restart-warm hit rate below the 80%% "
                    "bar\n");
        ok = ok && smoke;
    }
    if (restartRatio >= 0.7) {
        std::printf("WARNING: restart-warm p50 not under 0.70 of cold "
                    "p50\n");
        ok = ok && smoke;
    }
    if (!parityOk)
        std::printf("WARNING: service/batch parity mismatch\n");

    json.write();
    return ok ? 0 : 1;
}
