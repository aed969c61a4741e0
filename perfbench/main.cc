/**
 * @file
 * The repository benchmark.
 *
 *   oha_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 --reference FILE [--spans-out FILE]
 *   oha_perfbench --write-reference FILE
 *
 * Workloads (closed loop, whole rounds only, busy threads <= 2):
 *   optft-cold     one client, runOptFt over the 14 race programs,
 *                  threads = 2, cache reset before every op;
 *   optslice-cold  the same over the 7 slice programs;
 *   service-warm   a warmed 2-shard AnalysisService fed by 2 clients
 *                  with threads = 1 per request, 21 programs x 4
 *                  passes per round, one request per program per
 *                  round carrying a fault seed.  A round's requests
 *                  are built before the round, outside its timing.
 *
 * --trace 0 measures the end-to-end metrics; --trace 1 runs the same
 * rounds untraced and then through the traced sweep (traced.h) and
 * reports the per-layer metrics.  The last stdout line is the JSON
 * result; the line before it ("info ...") stamps the host and the
 * sample counts.  Every op's result is checked against the reference
 * digests; a failed op is counted, never dropped.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "analysis/andersen_cache.h"
#include "ops.h"
#include "service/analysis_service.h"
#include "traced.h"

using namespace oha;
using namespace perfbench;

namespace {

constexpr std::size_t kColdThreads = 2;
constexpr std::size_t kServiceShards = 2;
constexpr std::size_t kServiceClients = 2;
/** Set-ups per timed run; setup_s is their median. */
constexpr int kSetups = 5;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string reference;
    std::string spansOut;
    std::string writeReference;
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", flag.c_str());
            return false;
        }
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            haveSeed = *end == '\0' && !value.empty();
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            haveSeconds = *end == '\0' && args.seconds > 0;
        } else if (flag == "--trace") {
            args.trace = value == "1";
            haveTrace = value == "0" || value == "1";
        } else if (flag == "--reference") {
            args.reference = value;
        } else if (flag == "--spans-out") {
            args.spansOut = value;
        } else if (flag == "--write-reference") {
            args.writeReference = value;
        } else {
            std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
            return false;
        }
    }
    if (!args.writeReference.empty())
        return true;
    if (args.workload != "optft-cold" && args.workload != "optslice-cold" &&
        args.workload != "service-warm") {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     args.workload.c_str());
        return false;
    }
    if (!haveSeed || !haveSeconds || !haveTrace || args.reference.empty()) {
        std::fprintf(stderr, "need --seed, --seconds, --trace 0|1 and "
                             "--reference\n");
        return false;
    }
    return true;
}

double
seconds(std::int64_t ns)
{
    return double(ns) / 1e9;
}

double
millis(std::int64_t ns)
{
    return double(ns) / 1e6;
}

/** Linear-interpolation percentile (p in [0, 1]). */
double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double rank = p * double(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (rank - double(lo)) * (values[hi] - values[lo]);
}

double
loadAverage()
{
    double load[1] = {0};
    return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

/** One completed op. */
struct OpRecord
{
    Request request;
    bool ok = false;
    double latencyMs = 0;
    double queueMs = 0;
    double runMs = 0;
    std::uint64_t rollbacks = 0;
    std::uint64_t repredications = 0;
    /** The result fields the traced sweep must reproduce. */
    std::size_t racesObserved = 0;
    double soundSliceSize = 0;
    double optSliceSize = 0;
};

/** Checks results against the reference digests. */
class Verifier
{
  public:
    explicit Verifier(Reference reference) : reference_(std::move(reference))
    {
    }

    void
    check(OpRecord &record, const core::OptFtResult &result) const
    {
        record.rollbacks = result.misSpeculations;
        record.repredications = result.repredications;
        record.racesObserved = result.racesObserved;
        record.ok = result.raceReportsMatch &&
                    matches(record.request, digest(result,
                                                   record.request.faultSeed));
    }

    void
    check(OpRecord &record, const core::OptSliceResult &result) const
    {
        record.rollbacks = result.misSpeculations;
        record.repredications = result.repredications;
        record.soundSliceSize = result.soundSliceSize;
        record.optSliceSize = result.optSliceSize;
        record.ok = result.sliceResultsMatch &&
                    matches(record.request, digest(result,
                                                   record.request.faultSeed));
    }

  private:
    bool
    matches(const Request &request, const std::string &line) const
    {
        const auto it =
            reference_.find(referenceKey(request.program, request.faultSeed));
        if (it != reference_.end() && it->second == line)
            return true;
        std::fprintf(stderr, "perfbench: result differs from reference:\n"
                             "  got  %s\n  want %s\n",
                     line.c_str(),
                     it == reference_.end() ? "(none)" : it->second.c_str());
        return false;
    }

    Reference reference_;
};

/** Shared-cache counters summed over the ops of a phase. */
struct CacheTally
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t verifiedMisses = 0;
    std::uint64_t evictions = 0;

    void
    add(const analysis::AndersenCacheStats &after,
        const analysis::AndersenCacheStats &before)
    {
        hits += after.hits - before.hits;
        misses += after.misses - before.misses;
        verifiedMisses += after.verifiedMisses - before.verifiedMisses;
        evictions += after.evictions - before.evictions;
    }
};

// ------------------------------------------------------------ workloads

/** A workload: its set-up, and its rounds of untraced ops. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Prepare for measurement; returns the set-up time in ns. */
    virtual std::int64_t setUp() = 0;

    /** Untimed: get round @p round ready to run. */
    virtual void prepareRound(std::uint64_t round) = 0;

    /** Timed: run the prepared round; appends each op and adds the
     *  cache counters. */
    virtual void runRound(std::vector<OpRecord> &ops, CacheTally &cache) = 0;
};

/** Batch user: fresh workload and reset cache per op, one client. */
class ColdWorkload : public Workload
{
  public:
    ColdWorkload(std::vector<Request> programs, std::uint64_t seed,
                 const Verifier &verifier)
        : programs_(std::move(programs)), seed_(seed), verifier_(verifier)
    {
    }

    std::int64_t
    setUp() override
    {
        const std::int64_t t0 = nowNs();
        for (const Request &request : programs_)
            buildWorkload(request);
        std::vector<OpRecord> warmUp;
        CacheTally ignored;
        // The warm-up round uses a round index no measured round has.
        prepareRound(~std::uint64_t{0});
        runRound(warmUp, ignored);
        return nowNs() - t0;
    }

    /** Only fixes the order: building is part of a cold op. */
    void
    prepareRound(std::uint64_t round) override
    {
        round_ = coldRound(programs_, seed_, round);
    }

    void
    runRound(std::vector<OpRecord> &ops, CacheTally &cache) override
    {
        for (const Request &request : round_)
            ops.push_back(op(request, cache));
    }

  private:
    OpRecord
    op(const Request &request, CacheTally &cache) const
    {
        analysis::resetAndersenCache(); // also zeroes the counters
        OpRecord record;
        record.request = request;
        const std::int64_t t0 = nowNs();
        try {
            const workloads::Workload workload = buildWorkload(request);
            const std::int64_t t1 = nowNs();
            if (request.race) {
                const core::OptFtResult result = core::runOptFt(
                    workload, ftConfig(kColdThreads, 0, false));
                const std::int64_t t2 = nowNs();
                record.latencyMs = millis(t2 - t0);
                record.runMs = millis(t2 - t1);
                verifier_.check(record, result);
            } else {
                const core::OptSliceResult result = core::runOptSlice(
                    workload, sliceConfig(kColdThreads, 0, false));
                const std::int64_t t2 = nowNs();
                record.latencyMs = millis(t2 - t0);
                record.runMs = millis(t2 - t1);
                verifier_.check(record, result);
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: %s threw: %s\n",
                         request.program.c_str(), e.what());
            record.latencyMs = millis(nowNs() - t0);
            record.ok = false;
        }
        cache.add(analysis::andersenCacheStats(), {});
        return record;
    }

    std::vector<Request> programs_;
    std::uint64_t seed_;
    const Verifier &verifier_;
    std::vector<Request> round_;
};

/** Daemon steady state: a warmed 2-shard service, 2 closed-loop
 *  clients that only submit and wait, so the busy threads are the
 *  shards. */
class ServiceWorkload : public Workload
{
  public:
    ServiceWorkload(std::uint64_t seed, const Verifier &verifier)
        : seed_(seed), verifier_(verifier)
    {
    }

    std::int64_t
    setUp() override
    {
        daemon_.reset();
        analysis::resetAndersenCache();
        const std::int64_t t0 = nowNs();
        service::ServiceConfig config;
        config.shards = kServiceShards;
        config.maxQueueDepth = 128;
        daemon_ = std::make_unique<service::AnalysisService>(config);

        // Warm every distinct request: each program with and without
        // the fault seed.
        std::vector<Request> distinct = racePrograms();
        for (const Request &request : slicePrograms())
            distinct.push_back(request);
        const std::size_t programs = distinct.size();
        for (std::size_t i = 0; i < programs; ++i) {
            distinct.push_back(distinct[i]);
            distinct.back().faultSeed = kFaultSeed;
        }
        std::vector<std::future<service::ServiceRunResult>> futures;
        for (const Request &request : distinct)
            futures.push_back(daemon_->submit(makeRequest(request)));
        bool ok = true;
        for (std::size_t i = 0; i < futures.size(); ++i) {
            OpRecord record;
            record.request = distinct[i];
            finish(record, futures[i].get());
            ok = ok && record.ok;
        }
        if (!ok)
            std::fprintf(stderr, "perfbench: warming pass failed\n");
        return nowNs() - t0;
    }

    /** Builds the round's requests, as the daemon's callers would
     *  before sending them, so only the daemon's work is timed. */
    void
    prepareRound(std::uint64_t round) override
    {
        round_ = serviceRound(seed_, round);
        built_.clear();
        for (const Request &request : round_)
            built_.push_back(makeRequest(request));
    }

    void
    runRound(std::vector<OpRecord> &ops, CacheTally &cache) override
    {
        const analysis::AndersenCacheStats before =
            analysis::andersenCacheStats();
        std::atomic<std::size_t> next{0};
        std::vector<std::vector<OpRecord>> perClient(kServiceClients);
        std::vector<std::thread> clients;
        for (std::size_t c = 0; c < kServiceClients; ++c) {
            clients.emplace_back([&, c] {
                for (std::size_t i = next++; i < round_.size(); i = next++) {
                    OpRecord record;
                    record.request = round_[i];
                    const std::int64_t t0 = nowNs();
                    try {
                        service::ServiceRunResult result =
                            daemon_->submit(std::move(built_[i])).get();
                        record.latencyMs = millis(nowNs() - t0);
                        finish(record, std::move(result));
                    } catch (const std::exception &e) {
                        record.latencyMs = millis(nowNs() - t0);
                        std::fprintf(stderr, "perfbench: request threw: %s\n",
                                     e.what());
                    }
                    perClient[c].push_back(std::move(record));
                }
            });
        }
        for (std::thread &client : clients)
            client.join();
        built_.clear();
        for (auto &records : perClient)
            ops.insert(ops.end(), records.begin(), records.end());
        cache.add(analysis::andersenCacheStats(), before);
    }

  private:
    static service::AnalysisRequest
    makeRequest(const Request &request)
    {
        service::AnalysisRequest out;
        out.workload = buildWorkload(request);
        out.ftConfig = ftConfig(1, request.faultSeed, false);
        out.sliceConfig = sliceConfig(1, request.faultSeed, false);
        return out;
    }

    void
    finish(OpRecord &record, service::ServiceRunResult result) const
    {
        record.queueMs = result.queueMs;
        record.runMs = result.runMs;
        if (result.outcome != service::RequestOutcome::Done) {
            std::fprintf(stderr, "perfbench: %s not done: %s\n",
                         record.request.program.c_str(),
                         result.error.c_str());
            record.ok = false;
        } else if (result.ft) {
            verifier_.check(record, *result.ft);
        } else if (result.slice) {
            verifier_.check(record, *result.slice);
        }
    }

    std::uint64_t seed_;
    const Verifier &verifier_;
    std::unique_ptr<service::AnalysisService> daemon_;
    std::vector<Request> round_;
    std::vector<service::AnalysisRequest> built_;
};

// ------------------------------------------------------------ reporting

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char buf[256];
        const double value =
            std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].name.c_str(), value,
                      metrics[i].unit);
        json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

std::size_t
countFailed(const std::vector<OpRecord> &ops)
{
    return std::size_t(std::count_if(ops.begin(), ops.end(),
                                     [](const OpRecord &r) { return !r.ok; }));
}

std::vector<double>
field(const std::vector<OpRecord> &ops, double OpRecord::*member)
{
    std::vector<double> out;
    for (const OpRecord &record : ops)
        out.push_back(record.*member);
    return out;
}

int
timedRun(const Args &args, Workload &workload, double loadStart)
{
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i)
        setups.push_back(seconds(workload.setUp()));

    // Only whole rounds count, and only their run is timed.
    std::vector<OpRecord> ops;
    CacheTally cache;
    std::int64_t wallNs = 0, cpuUsed = 0;
    std::vector<double> roundSeconds;
    for (std::uint64_t r = 0; seconds(wallNs) < args.seconds; ++r) {
        workload.prepareRound(r);
        const std::int64_t cpu0 = cpuNs();
        const std::int64_t t0 = nowNs();
        workload.runRound(ops, cache);
        const std::int64_t roundNs = nowNs() - t0;
        cpuUsed += cpuNs() - cpu0;
        wallNs += roundNs;
        roundSeconds.push_back(seconds(roundNs));
    }
    const std::size_t rounds = roundSeconds.size();

    const std::vector<double> latencies = field(ops, &OpRecord::latencyMs);
    const std::size_t failed = countFailed(ops);
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);

    const double p90 = percentile(latencies, 0.9);
    const std::size_t beyondP90 = std::size_t(std::count_if(
        latencies.begin(), latencies.end(),
        [&](double v) { return v > p90; }));
    auto joined = [](const std::vector<double> &values) {
        std::string out;
        for (double v : values)
            out += (out.empty() ? "" : ", ") + std::to_string(v);
        return out;
    };
    std::printf("info {\"workload\": \"%s\", \"seed\": %llu, "
                "\"nproc\": %ld, \"hardware_concurrency\": %u, "
                "\"build_type\": \"%s\", \"loadavg_1m_start\": %.2f, "
                "\"loadavg_1m_end\": %.2f, \"rounds\": %llu, "
                "\"ops\": %zu, \"p90_samples_beyond\": %zu, "
                "\"setup_s_samples\": [%s], \"round_s\": [%s]}\n",
                args.workload.c_str(), (unsigned long long)args.seed,
                sysconf(_SC_NPROCESSORS_ONLN),
                std::thread::hardware_concurrency(), OHA_PERFBENCH_BUILD_TYPE,
                loadStart, loadAverage(), (unsigned long long)rounds,
                ops.size(), beyondP90, joined(setups).c_str(),
                joined(roundSeconds).c_str());

    const double n = double(std::max<std::size_t>(ops.size(), 1));
    printResult(failed == 0 && !ops.empty(), ops.size(), failed,
                {{"ops_per_s", n / seconds(wallNs), "1/s"},
                 {"p50_ms", percentile(latencies, 0.5), "ms"},
                 {"p90_ms", p90, "ms"},
                 {"cpu_ms_per_op", millis(cpuUsed) / n, "ms"},
                 {"ok_frac", double(ops.size() - failed) / n, "frac"},
                 {"setup_s", percentile(setups, 0.5), "s"},
                 {"peak_rss_mb", double(usage.ru_maxrss) / 1024.0, "MiB"}});
    return 0;
}

int
tracedRun(const Args &args, Workload &workload, double loadStart)
{
    workload.setUp();

    std::vector<OpRecord> ops;
    CacheTally cache;
    Tracer tracer;
    std::size_t traced = 0;
    std::size_t mirrorFailures = 0;
    std::size_t countDrift = 0;
    double untracedMs = 0;
    std::uint64_t rounds = 0;
    std::map<std::string, std::uint64_t> perRound;
    const std::int64_t t0 = nowNs();
    for (;; ++rounds) {
        const std::size_t firstOp = ops.size();
        workload.prepareRound(rounds);
        workload.runRound(ops, cache);
        std::uint64_t rollbacks = 0, repredications = 0;
        for (std::size_t i = firstOp; i < ops.size(); ++i) {
            untracedMs += ops[i].latencyMs;
            rollbacks += ops[i].rollbacks;
            repredications += ops[i].repredications;
        }

        const auto countsBefore = tracer.counts();
        for (std::size_t i = firstOp; i < ops.size(); ++i) {
            const OpRecord &op = ops[i];
            tracer.setOp(std::uint32_t(traced++));
            const TracedOutcome outcome = tracedOp(tracer, op.request);
            const bool mirrored =
                op.request.race
                    ? outcome.racesObserved == op.racesObserved
                    : outcome.soundSliceSize == op.soundSliceSize &&
                          outcome.optSliceSize == op.optSliceSize;
            if (!mirrored) {
                ++mirrorFailures;
                std::fprintf(stderr,
                             "perfbench: traced sweep of %s differs from "
                             "the pipeline\n",
                             op.request.program.c_str());
            }
        }

        // Counts per round must repeat exactly: every round has the
        // same mix.
        std::map<std::string, std::uint64_t> delta;
        for (const auto &[name, value] : tracer.counts())
            delta[name] = value - (countsBefore.count(name)
                                       ? countsBefore.at(name)
                                       : 0);
        delta["core.rollbacks"] = rollbacks;
        delta["core.repredications"] = repredications;
        if (rounds == 0)
            perRound = delta;
        else if (delta != perRound)
            ++countDrift;

        if (seconds(nowNs() - t0) >= args.seconds)
            break;
    }
    ++rounds;
    if (countDrift)
        std::fprintf(stderr, "perfbench: per-round counts drifted in %zu "
                             "rounds\n",
                     countDrift);
    if (!args.spansOut.empty() && !tracer.write(args.spansOut))
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.spansOut.c_str());

    std::printf("info {\"workload\": \"%s\", \"seed\": %llu, "
                "\"nproc\": %ld, \"hardware_concurrency\": %u, "
                "\"build_type\": \"%s\", \"loadavg_1m_start\": %.2f, "
                "\"loadavg_1m_end\": %.2f, \"rounds\": %llu, "
                "\"traced_ops\": %zu, \"spans\": %zu}\n",
                args.workload.c_str(), (unsigned long long)args.seed,
                sysconf(_SC_NPROCESSORS_ONLN),
                std::thread::hardware_concurrency(), OHA_PERFBENCH_BUILD_TYPE,
                loadStart, loadAverage(), (unsigned long long)rounds, traced,
                tracer.spans().size());

    const std::map<std::string, double> self = tracer.selfMs();
    const double perOp = 1.0 / double(std::max<std::size_t>(traced, 1));
    auto selfMs = [&](const char *span) {
        const auto it = self.find(span);
        return it == self.end() ? 0.0 : it->second * perOp;
    };
    auto count = [&](const char *name) {
        const auto it = perRound.find(name);
        return it == perRound.end() ? 0.0 : double(it->second);
    };
    const double lookups = double(cache.hits + cache.misses);
    const double untracedPerOp =
        untracedMs / double(std::max<std::size_t>(ops.size(), 1));

    const std::size_t failed = countFailed(ops) + mirrorFailures;
    printResult(
        failed == 0 && countDrift == 0, ops.size() + traced, failed,
        {{"workloads.build_ms", selfMs("workloads.build"), "ms"},
         {"profile.self_ms", selfMs("profile"), "ms"},
         {"profile.steps", count("profile.steps"), "count"},
         {"profile.runs", count("profile.runs"), "count"},
         {"analysis.andersen.self_ms", selfMs("analysis.andersen"), "ms"},
         {"analysis.andersen.work_units",
          count("analysis.andersen.work_units"), "count"},
         {"analysis.race.self_ms", selfMs("analysis.race"), "ms"},
         {"analysis.race.racy_accesses", count("analysis.race.racy_accesses"),
          "count"},
         {"analysis.slicer.self_ms", selfMs("analysis.slicer"), "ms"},
         {"analysis.slicer.slice_instrs",
          count("analysis.slicer.slice_instrs"), "count"},
         {"exec.record.self_ms", selfMs("exec.record"), "ms"},
         {"exec.record.steps", count("exec.record.steps"), "count"},
         {"exec.record.trace_bytes", count("exec.record.trace_bytes"),
          "bytes"},
         {"exec.replay.self_ms", selfMs("exec.replay"), "ms"},
         {"exec.replay.events", count("exec.replay.events"), "count"},
         {"dyn.fasttrack.self_ms", selfMs("dyn.fasttrack"), "ms"},
         {"dyn.giri.self_ms", selfMs("dyn.giri"), "ms"},
         {"dyn.checker.self_ms", selfMs("dyn.checker"), "ms"},
         {"dyn.checker.aborts", count("dyn.checker.aborts"), "count"},
         {"core.rollbacks", count("core.rollbacks"), "count"},
         {"core.repredications", count("core.repredications"), "count"},
         {"service.queue_ms", percentile(field(ops, &OpRecord::queueMs), 0.5),
          "ms"},
         {"service.run_ms", percentile(field(ops, &OpRecord::runMs), 0.5),
          "ms"},
         {"service.cache.hit_frac",
          lookups > 0 ? double(cache.hits) / lookups : 0.0, "frac"},
         {"service.cache.verified_misses", double(cache.verifiedMisses),
          "count"},
         {"service.cache.evictions", double(cache.evictions), "count"},
         {"trace.overhead_frac",
          untracedPerOp > 0 ? tracer.opMs() * perOp / untracedPerOp - 1.0
                            : 0.0,
          "frac"},
         {"trace.unattributed_frac", tracer.unattributedFrac(), "frac"}});
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args))
        return 2;
    if (!args.writeReference.empty()) {
        if (!writeReference(args.writeReference, kColdThreads)) {
            std::fprintf(stderr, "cannot write %s\n",
                         args.writeReference.c_str());
            return 1;
        }
        return 0;
    }

    const double loadStart = loadAverage();
    Reference reference;
    std::string error;
    if (!loadReference(args.reference, reference, error)) {
        std::fprintf(stderr, "perfbench: %s\n", error.c_str());
        return 1;
    }
    const Verifier verifier(std::move(reference));

    std::unique_ptr<Workload> workload;
    if (args.workload == "optft-cold")
        workload = std::make_unique<ColdWorkload>(racePrograms(), args.seed,
                                                  verifier);
    else if (args.workload == "optslice-cold")
        workload = std::make_unique<ColdWorkload>(slicePrograms(), args.seed,
                                                  verifier);
    else {
        // Version-lineage patching lets a warming miss patch another
        // program's cached result, which reports fewer static work
        // units than the one real solve, so the service's modeled
        // static costs would depend on the warming order and differ
        // from batch.  The measured phase serves only hits, so turning
        // lineage off changes set-up only, and keeps every result
        // byte-comparable to the reference.
        setenv("OHA_LINEAGE_DEPTH", "0", 1);
        workload = std::make_unique<ServiceWorkload>(args.seed, verifier);
    }

    return args.trace ? tracedRun(args, *workload, loadStart)
                      : timedRun(args, *workload, loadStart);
}
