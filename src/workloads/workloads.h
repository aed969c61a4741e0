/**
 * @file
 * Synthetic benchmark workloads named after the paper's evaluation
 * programs (Section 6.1).
 *
 * The paper's corpora (DaCapo, JavaGrande, nginx, redis, perl, vim,
 * sphinx, go, zlib and their input sets) are external artifacts; per
 * the substitution rule each namesake here is a generated OHA-IR
 * program engineered to exhibit the *phenomenon* that made the
 * original interesting:
 *
 *  race-detection suite (Figure 5 / Table 1)
 *   - lusearch/raytracer: heavy lock-guarded shared state -> the
 *     likely-guarding-locks invariant is the win;
 *   - pmd/batik: cold error paths (LUC) and a rare true race;
 *   - moldyn: flag-based custom synchronization (Figure 4);
 *   - sunflow/montecarlo: barrier/fork-join parallelism a lockset
 *     detector cannot optimize;
 *   - xalan: statically almost race-free already (hybrid ~ optimistic);
 *   - luindex: a singleton background thread only the invariant can
 *     prove single;
 *   - sor/sparse/series/crypt/lufact: thread-local kernels provably
 *     race-free by the sound detector.
 *
 *  slicing suite (Figure 6 / Table 2)
 *   - perl/redis/vim: indirect-dispatch interpreters/servers (likely
 *     callee sets); perl's shared script state keeps slices big;
 *   - vim/go: large input-dependent behaviour spaces (slow invariant
 *     convergence, Figures 7-8);
 *   - sphinx: deep call pipelines (context checking is the overhead);
 *   - zlib: a small kernel whose endpoint slice is tiny under
 *     predicated CS analysis;
 *   - nginx: I/O-style event loop where slicing is cheap either way.
 *
 * Every workload carries deterministic profiling and testing input
 * corpora; testing inputs are drawn from the same distribution, so
 * rare behaviours missed during profiling occasionally appear at
 * test time and exercise genuine mis-speculation + rollback.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exec/interpreter.h"
#include "ir/module.h"

namespace oha::workloads {

/** A benchmark program plus its input corpora. */
struct Workload
{
    std::string name;
    std::shared_ptr<ir::Module> module;
    std::vector<exec::ExecConfig> profilingSet;
    std::vector<exec::ExecConfig> testingSet;
    /** True for the race-detection suite. */
    bool race = false;
    /** The paper's reported baseline runtime (display only). */
    double paperBaselineSeconds = 1.0;
};

/** Names of the 14 race-detection workloads, Figure 5 order. */
const std::vector<std::string> &raceWorkloadNames();

/** The five statically race-free kernels (right of Figure 5's line). */
const std::vector<std::string> &raceFreeKernelNames();

/** Names of the 7 slicing workloads, Table 2 order. */
const std::vector<std::string> &sliceWorkloadNames();

/** Build a race workload with deterministic corpora. */
Workload makeRaceWorkload(const std::string &name,
                          std::size_t profileRuns = 48,
                          std::size_t testRuns = 24);

/** Build a slicing workload with deterministic corpora. */
Workload makeSliceWorkload(const std::string &name,
                           std::size_t profileRuns = 48,
                           std::size_t testRuns = 24);

} // namespace oha::workloads
