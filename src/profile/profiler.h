/**
 * @file
 * The likely-invariant profiling campaign (phase 1 of optimistic
 * hybrid analysis, Section 2.1).
 *
 * A campaign executes profiling inputs one at a time, merging each
 * run's observations into the accumulated InvariantSet:
 *  - reachable-style invariants (visited blocks, callee sets, call
 *    contexts) are unions across runs;
 *  - constraint-style invariants (must-alias lock pairs, singleton
 *    spawn sites) survive only if no run violated them.
 *
 * Callers typically addRun() until the invariant set stabilizes —
 * the "profile until the number of learned dynamic invariants
 * stabilizes" methodology of Section 6.1.
 */

#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "exec/interpreter.h"
#include "invariants/invariant_set.h"

namespace oha::prof {

/** What to profile (contexts are only useful to OptSlice's CS client). */
struct ProfileOptions
{
    bool callContexts = false;
    /** Worker threads for batched profiling; 0 = OHA_THREADS env. */
    std::size_t threads = 0;
};

/**
 * The raw observations of a single profiled run, separated from the
 * campaign so runs can execute concurrently: gathering observations
 * is a pure function of (module, input), while merging them into the
 * campaign happens serially in input-index order.
 */
struct RunObservations
{
    // Keyed observations are flat vectors sorted by key (inner sets
    // are sorted-unique vectors): same iteration order the merge
    // loops saw with std::map/std::set, minus the per-node
    // allocations on the profiling hot path.
    std::vector<std::pair<BlockId, std::uint64_t>> blockCounts;
    std::vector<std::pair<InstrId, std::vector<FuncId>>> calleeSets;
    std::set<inv::CallContext> callContexts;
    std::vector<std::pair<InstrId, std::vector<exec::ObjectId>>>
        lockObjects;
    std::vector<std::pair<InstrId, std::uint64_t>> spawnCounts;
    std::uint64_t steps = 0;
    exec::RunResult::Status status = exec::RunResult::Status::Finished;
};

/**
 * Pluggable source of per-run observations for
 * addRunsUntilConverged.  Observations are a pure function of
 * (module, input), so a campaign can be driven from a memo cache
 * (profile/observation_cache.h) instead of live profiled execution —
 * the merged result is identical either way.
 */
using Observer = std::function<std::shared_ptr<const RunObservations>(
    const exec::ExecConfig &)>;

/** Accumulates likely invariants over a sequence of profiled runs. */
class ProfilingCampaign
{
  public:
    ProfilingCampaign(const ir::Module &module, ProfileOptions options);

    /**
     * Execute the program on @p config under the campaign's observer
     * plan (profilers.h) and merge the observations.
     * @return true if the merged invariant set changed.
     */
    bool addRun(const exec::ExecConfig &config);

    /**
     * Profile @p inputs in order until the invariant set has been
     * stable for @p convergenceWindow consecutive runs or @p maxRuns
     * runs merged, executing up to ProfileOptions::threads runs
     * concurrently.  Observations are merged in input-index order and
     * speculative surplus runs past the convergence point are
     * discarded, so the merged invariants, profiled-step total and
     * run count are byte-identical to the serial loop.
     *
     * When @p observe is set it replaces observeRun as the source of
     * each input's observations (e.g. the shared observation cache);
     * it must return exactly what observeRun would.
     * @return the number of runs merged.
     */
    std::size_t addRunsUntilConverged(
        const std::vector<exec::ExecConfig> &inputs, std::size_t maxRuns,
        std::size_t convergenceWindow, const Observer &observe = {});

    /** Execute one profiled run without merging it (thread-safe). */
    RunObservations observeRun(const exec::ExecConfig &config) const;

    /** Merge one run's observations; @return true if the invariant
     *  set changed.  Call in input-index order for determinism. */
    bool mergeRun(const RunObservations &run);

    /** The merged invariant set so far. */
    const inv::InvariantSet &invariants() const { return invariants_; }

    /**
     * The strength/stability trade-off of Section 2.1: "aggressively
     * assume a property that is infrequently violated during
     * profiling".  Returns the invariant set with likely-unreachable
     * code extended to blocks executed fewer than @p minVisits times
     * across the whole campaign — stronger pruning, more
     * mis-speculations.  minVisits <= 1 reproduces invariants().
     */
    inv::InvariantSet invariantsWithAggressiveLuc(
        std::uint64_t minVisits) const;

    /** Guest instructions executed across all profiled runs
     *  (profiling cost accounting). */
    std::uint64_t profiledSteps() const { return profiledSteps_; }

    std::size_t numRuns() const { return runSteps_.size(); }

    /** Guest instructions of each merged run, in merge order. */
    const std::vector<std::uint64_t> &runSteps() const { return runSteps_; }

  private:
    /** @return true if mustAliasLocks changed. */
    bool mergeLockObservations(
        const std::vector<std::pair<InstrId, std::vector<exec::ObjectId>>>
            &objects);

    const ir::Module &module_;
    ProfileOptions options_;
    /** observerPlan(module_, options_.callContexts), built once. */
    exec::InstrumentationPlan plan_;
    inv::InvariantSet invariants_;

    /** Candidate and violated must-alias lock pairs across runs. */
    std::set<std::pair<InstrId, InstrId>> lockCandidates_;
    std::set<std::pair<InstrId, InstrId>> lockViolated_;
    /** Max spawn count per site across runs. */
    std::map<InstrId, std::uint64_t> maxSpawnCounts_;
    /** Total visit count per block across runs (aggressive LUC). */
    std::map<BlockId, std::uint64_t> blockCounts_;

    std::uint64_t profiledSteps_ = 0;
    std::vector<std::uint64_t> runSteps_;
};

} // namespace oha::prof
