/**
 * @file
 * What the benchmark runs: the programs, the pipeline configurations,
 * the seeded round schedules, and the reference digests every op's
 * result is checked against.
 *
 * An op is one core::runOptFt / core::runOptSlice call or one
 * service::AnalysisService::submit request.  A round is a fixed mix
 * of ops whose order the seed permutes; runs measure whole rounds
 * only, so every run of a workload contains the same mix.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/optft.h"
#include "core/optslice.h"
#include "workloads/workloads.h"

namespace perfbench {

/** Corpus sizes: 48 profiling inputs, 16 race / 12 slice testing
 *  inputs, convergence after 8 quiet profiling runs. */
constexpr std::size_t kProfileRuns = 48;
constexpr std::size_t kRaceTestRuns = 16;
constexpr std::size_t kSliceTestRuns = 12;
constexpr std::size_t kConvergenceWindow = 8;

/** The non-zero fault seed a fault-carrying service request uses.  The
 *  benchmark seed chooses which requests carry it, never its value, so
 *  the reference holds one faulted digest per program. */
constexpr std::uint64_t kFaultSeed = 7;

/** One op's program and pipeline inputs. */
struct Request
{
    std::string program;
    bool race = true;
    std::uint64_t faultSeed = 0;
};

/** The race programs, then the slice programs (Figure 5 / Table 2
 *  order). */
std::vector<Request> racePrograms();
std::vector<Request> slicePrograms();

/** Build @p request's workload fresh (new module objects). */
oha::workloads::Workload buildWorkload(const Request &request);

/** Pipeline configurations.  @p direct selects the reference path:
 *  no trace replay, no capture or observation caching. */
oha::core::OptFtConfig ftConfig(std::size_t threads,
                                std::uint64_t faultSeed, bool direct);
oha::core::OptSliceConfig sliceConfig(std::size_t threads,
                                      std::uint64_t faultSeed, bool direct);

/**
 * Canonical text of the result fields the service/batch parity check
 * compares, minus interpretedSteps (which differs between the direct
 * and the replay path by design).  Doubles print with all 17 digits.
 */
std::string digest(const oha::core::OptFtResult &result,
                   std::uint64_t faultSeed);
std::string digest(const oha::core::OptSliceResult &result,
                   std::uint64_t faultSeed);

/** Reference digests keyed by "<program> <faultSeed>". */
using Reference = std::map<std::string, std::string>;

std::string referenceKey(const std::string &program,
                         std::uint64_t faultSeed);

/** Load a reference file; false (with @p error) when unreadable or
 *  malformed. */
bool loadReference(const std::string &path, Reference &out,
                   std::string &error);

/** Compute every reference digest on the direct path and write them to
 *  @p path, one line per (program, faultSeed).  False on I/O failure. */
bool writeReference(const std::string &path, std::size_t threads);

/** Round @p round of a cold workload: @p programs in a seeded order. */
std::vector<Request> coldRound(const std::vector<Request> &programs,
                               std::uint64_t seed, std::uint64_t round);

/** Passes per service round: each program runs once per pass and
 *  carries the fault seed in exactly one of them. */
constexpr std::size_t kServicePasses = 4;

/** Round @p round of the service workload: kServicePasses passes over
 *  every program, each pass in a seeded order, with the seed choosing
 *  the pass in which each program carries kFaultSeed. */
std::vector<Request> serviceRound(std::uint64_t seed, std::uint64_t round);

/** Steady-clock nanoseconds. */
std::int64_t nowNs();
/** Process CPU time (user + sys, all threads) in nanoseconds. */
std::int64_t cpuNs();

} // namespace perfbench
