#include "ops.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

#include "analysis/andersen_cache.h"

namespace perfbench {

using namespace oha;

std::vector<Request>
racePrograms()
{
    std::vector<Request> out;
    for (const std::string &name : workloads::raceWorkloadNames())
        out.push_back({name, true, 0});
    return out;
}

std::vector<Request>
slicePrograms()
{
    std::vector<Request> out;
    for (const std::string &name : workloads::sliceWorkloadNames())
        out.push_back({name, false, 0});
    return out;
}

workloads::Workload
buildWorkload(const Request &request)
{
    return request.race
               ? workloads::makeRaceWorkload(request.program, kProfileRuns,
                                             kRaceTestRuns)
               : workloads::makeSliceWorkload(request.program, kProfileRuns,
                                              kSliceTestRuns);
}

core::OptFtConfig
ftConfig(std::size_t threads, std::uint64_t faultSeed, bool direct)
{
    core::OptFtConfig config;
    config.maxProfileRuns = kProfileRuns;
    config.convergenceWindow = kConvergenceWindow;
    config.threads = threads;
    config.faultSeed = faultSeed;
    if (direct) {
        config.useTraceReplay = false;
        config.cacheTraceCaptures = false;
        config.cacheProfileObservations = false;
    }
    return config;
}

core::OptSliceConfig
sliceConfig(std::size_t threads, std::uint64_t faultSeed, bool direct)
{
    core::OptSliceConfig config;
    config.maxProfileRuns = kProfileRuns;
    config.convergenceWindow = kConvergenceWindow;
    config.threads = threads;
    config.faultSeed = faultSeed;
    if (direct) {
        config.useTraceReplay = false;
        config.cacheTraceCaptures = false;
        config.cacheProfileObservations = false;
    }
    return config;
}

std::string
referenceKey(const std::string &program, std::uint64_t faultSeed)
{
    return program + " " + std::to_string(faultSeed);
}

namespace {

std::string
format(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

std::string
format(const char *fmt, ...)
{
    char buf[1024];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    return buf;
}

} // namespace

std::string
digest(const core::OptFtResult &r, std::uint64_t faultSeed)
{
    return referenceKey(r.name, faultSeed) +
           format(" ft testRuns=%zu soundStatic=%.17g predStatic=%.17g "
                  "misSpeculations=%" PRIu64 " racesObserved=%zu "
                  "raceReportsMatch=%d speedupVsFastTrack=%.17g "
                  "speedupVsHybrid=%.17g optFt=%.17g hybridFt=%.17g",
                  r.testRuns, r.soundStaticSeconds, r.predStaticSeconds,
                  r.misSpeculations, r.racesObserved,
                  r.raceReportsMatch ? 1 : 0, r.speedupVsFastTrack,
                  r.speedupVsHybrid, r.optFt.total(), r.hybridFt.total());
}

std::string
digest(const core::OptSliceResult &r, std::uint64_t faultSeed)
{
    return referenceKey(r.name, faultSeed) +
           format(" slice testRuns=%zu endpoints=%zu "
                  "misSpeculations=%" PRIu64 " sliceResultsMatch=%d "
                  "soundSliceSize=%.17g optSliceSize=%.17g "
                  "dynSpeedup=%.17g optimistic=%.17g hybrid=%.17g",
                  r.testRuns, r.endpoints, r.misSpeculations,
                  r.sliceResultsMatch ? 1 : 0, r.soundSliceSize,
                  r.optSliceSize, r.dynSpeedup, r.optimistic.total(),
                  r.hybrid.total());
}

bool
loadReference(const std::string &path, Reference &out, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot read reference digests " + path;
        return false;
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string program, fault;
        if (!(fields >> program >> fault)) {
            error = "malformed reference line: " + line;
            return false;
        }
        out[program + " " + fault] = line;
    }
    if (out.empty()) {
        error = "no reference digests in " + path;
        return false;
    }
    return true;
}

bool
writeReference(const std::string &path, std::size_t threads)
{
    std::ostringstream text;
    text << "# Reference digests for the perfbench ok_frac check: one line "
            "per (program, faultSeed),\n"
            "# computed on the direct path (no trace replay, no capture "
            "or observation caching).\n"
            "# Regenerate with: python3 perfbench/run.py "
            "--write-reference perfbench/reference.txt\n";
    for (std::uint64_t fault : {std::uint64_t{0}, kFaultSeed}) {
        for (const Request &request : racePrograms()) {
            analysis::resetAndersenCache();
            text << digest(core::runOptFt(buildWorkload(request),
                                          ftConfig(threads, fault, true)),
                           fault)
                 << "\n";
        }
        for (const Request &request : slicePrograms()) {
            analysis::resetAndersenCache();
            text << digest(core::runOptSlice(
                               buildWorkload(request),
                               sliceConfig(threads, fault, true)),
                           fault)
                 << "\n";
        }
    }
    std::ofstream out(path, std::ios::trunc);
    out << text.str();
    return bool(out.flush());
}

namespace {

/** Deterministic 64-bit generator (splitmix64). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, bound). */
    std::uint64_t below(std::uint64_t bound) { return next() % bound; }

    template <typename T>
    void
    shuffle(std::vector<T> &items)
    {
        for (std::size_t i = items.size(); i > 1; --i)
            std::swap(items[i - 1], items[below(i)]);
    }

  private:
    std::uint64_t state_;
};

/** Generator for one round: independent streams per (seed, round). */
Rng
roundRng(std::uint64_t seed, std::uint64_t round)
{
    Rng mix(seed);
    return Rng(mix.next() ^ (round * 0xd1b54a32d192ed03ull));
}

} // namespace

std::vector<Request>
coldRound(const std::vector<Request> &programs, std::uint64_t seed,
          std::uint64_t round)
{
    Rng rng = roundRng(seed, round);
    std::vector<Request> out = programs;
    rng.shuffle(out);
    return out;
}

std::vector<Request>
serviceRound(std::uint64_t seed, std::uint64_t round)
{
    Rng rng = roundRng(seed, round);
    std::vector<Request> programs = racePrograms();
    for (const Request &request : slicePrograms())
        programs.push_back(request);

    std::vector<std::size_t> faultPass(programs.size());
    for (std::size_t &pass : faultPass)
        pass = rng.below(kServicePasses);

    std::vector<Request> out;
    for (std::size_t pass = 0; pass < kServicePasses; ++pass) {
        std::vector<Request> passOps = programs;
        for (std::size_t i = 0; i < passOps.size(); ++i)
            passOps[i].faultSeed = faultPass[i] == pass ? kFaultSeed : 0;
        rng.shuffle(passOps);
        out.insert(out.end(), passOps.begin(), passOps.end());
    }
    return out;
}

std::int64_t
nowNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return std::int64_t(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return std::int64_t(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

} // namespace perfbench
