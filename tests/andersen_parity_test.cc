/**
 * @file
 * Pre/post-overhaul parity for the Andersen constraint solver.
 *
 * The solver overhaul (difference propagation, offline constraint
 * reduction, leveled wave order, hash-consed result sets)
 * must be a pure throughput change: both solvers compute the same
 * inclusion fixpoint, so on every workload the points-to sets,
 * indirect-call targets, static slice sets and static race reports
 * must be identical.  The original FIFO full-propagation solver is
 * kept behind AndersenOptions::referenceSolver and compared here
 * against the production delta solver, in CI and CS modes, sound and
 * predicated.  Batches run at 1 and 4 worker threads and their
 * results are compared, pinning thread-count invariance of the
 * parallelized static phase.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/race_detector.h"
#include "analysis/slicer.h"
#include "profile/profiler.h"
#include "support/thread_pool.h"
#include "workloads/workloads.h"

namespace oha {
namespace {

using analysis::AndersenOptions;
using analysis::AndersenResult;
using analysis::CellId;

std::vector<CellId>
toVector(const SparseBitSet &set)
{
    std::vector<CellId> cells;
    set.forEach([&](CellId cell) { cells.push_back(cell); });
    return cells;
}

/** Everything observable about one points-to run, in comparable form.
 *  workUnits is deliberately absent: the two solvers count different
 *  events, only the fixpoint must agree. */
struct PtsView
{
    bool completed = false;
    std::size_t numContexts = 0;
    /** pts of every (context instance, register) pair. */
    std::vector<std::vector<CellId>> regPts;
    /** Flattened pts of every (function, register) pair. */
    std::vector<std::vector<CellId>> flatPts;
    /** cellPts of every abstract cell. */
    std::vector<std::vector<CellId>> cellPts;
    /** Sorted targets of every ICall instruction. */
    std::vector<std::vector<FuncId>> icalls;
    /** Static slices (instruction sets) from every Output. */
    std::vector<std::pair<bool, std::set<InstrId>>> slices;

    bool
    operator==(const PtsView &other) const
    {
        return completed == other.completed &&
               numContexts == other.numContexts &&
               regPts == other.regPts && flatPts == other.flatPts &&
               cellPts == other.cellPts && icalls == other.icalls &&
               slices == other.slices;
    }
};

PtsView
viewOf(const ir::Module &module, const AndersenResult &result,
       const inv::InvariantSet *invariants)
{
    PtsView view;
    view.completed = result.completed;
    view.numContexts = result.contexts.size();
    // An incomplete result (CS context-budget overflow) carries no
    // queryable points-to structure; the flag itself is the parity.
    if (!result.completed)
        return view;
    for (const analysis::ContextInstance &inst : result.contexts) {
        const unsigned numRegs = module.function(inst.func)->numRegs();
        for (ir::Reg reg = 0; reg < numRegs; ++reg)
            view.regPts.push_back(toVector(result.pts(inst.id, reg)));
    }
    for (const auto &func : module.functions())
        for (ir::Reg reg = 0; reg < func->numRegs(); ++reg)
            view.flatPts.push_back(
                toVector(result.ptsAllContexts(func->id(), reg)));
    for (CellId cell = 0; cell < result.memory.numCells(); ++cell)
        view.cellPts.push_back(toVector(result.cellPts(cell)));
    for (InstrId id = 0; id < module.numInstrs(); ++id)
        if (module.instr(id).op == ir::Opcode::ICall)
            view.icalls.push_back(result.icallTargets(id));

    if (result.completed) {
        analysis::SlicerOptions sliceOptions;
        sliceOptions.invariants = invariants;
        const analysis::StaticSlicer slicer(module, result, sliceOptions);
        for (InstrId id = 0; id < module.numInstrs(); ++id) {
            if (module.instr(id).op != ir::Opcode::Output)
                continue;
            const analysis::StaticSliceResult slice = slicer.slice(id);
            view.slices.push_back({slice.completed, slice.instructions});
        }
    }
    return view;
}

std::vector<std::tuple<InstrId, InstrId>>
pairList(const std::set<std::pair<InstrId, InstrId>> &pairs)
{
    std::vector<std::tuple<InstrId, InstrId>> out;
    for (const auto &[a, b] : pairs)
        out.push_back({a, b});
    return out;
}

/** Race-detector output in comparable form (workUnits excluded). */
struct RaceView
{
    std::vector<std::tuple<InstrId, InstrId>> racyPairs;
    std::vector<InstrId> racyAccesses;
    std::vector<std::tuple<InstrId, InstrId>> usedLockAliases;
    std::vector<InstrId> usedSingletonSites;
    std::size_t accessesConsidered = 0;

    bool
    operator==(const RaceView &other) const
    {
        return racyPairs == other.racyPairs &&
               racyAccesses == other.racyAccesses &&
               usedLockAliases == other.usedLockAliases &&
               usedSingletonSites == other.usedSingletonSites &&
               accessesConsidered == other.accessesConsidered;
    }
};

RaceView
raceViewOf(const analysis::StaticRaceResult &result)
{
    RaceView view;
    view.racyPairs = pairList(result.racyPairs);
    view.racyAccesses.assign(result.racyAccesses.begin(),
                             result.racyAccesses.end());
    view.usedLockAliases = pairList(result.usedLockAliases);
    view.usedSingletonSites.assign(result.usedSingletonSites.begin(),
                                   result.usedSingletonSites.end());
    view.accessesConsidered = result.accessesConsidered;
    return view;
}

/** Likely invariants for a workload, exactly as the pipelines derive
 *  them (profiling campaign over the profiling corpus). */
inv::InvariantSet
profiledInvariants(const workloads::Workload &workload)
{
    prof::ProfilingCampaign campaign(*workload.module, {});
    campaign.addRunsUntilConverged(workload.profilingSet, 4, 2);
    return campaign.invariants();
}

/** CS budget for the parity sweep, above the pipelines' default so
 *  the large CS solves (redis's sound CS clones 8,307 contexts) stay
 *  covered instead of both solvers reporting an incomplete result. */
constexpr std::uint32_t kLargeContextBudget = 20000;

/** Reference-vs-delta comparison over one workload: CI and CS, sound
 *  and predicated, plus full race-detector parity. */
struct WorkloadParity
{
    std::string name;
    std::vector<PtsView> reference, delta;
    std::vector<RaceView> referenceRaces, deltaRaces;

    bool
    operator==(const WorkloadParity &other) const
    {
        return name == other.name && reference == other.reference &&
               delta == other.delta &&
               referenceRaces == other.referenceRaces &&
               deltaRaces == other.deltaRaces;
    }
};

WorkloadParity
runParity(const workloads::Workload &workload)
{
    WorkloadParity out;
    out.name = workload.name;
    const ir::Module &module = *workload.module;
    const inv::InvariantSet invariants = profiledInvariants(workload);

    for (const bool contextSensitive : {false, true}) {
        for (const inv::InvariantSet *inv :
             {static_cast<const inv::InvariantSet *>(nullptr),
              &invariants}) {
            AndersenOptions options;
            options.contextSensitive = contextSensitive;
            options.invariants = inv;
            options.maxContexts = kLargeContextBudget;

            AndersenOptions refOptions = options;
            refOptions.referenceSolver = true;
            const AndersenResult ref =
                analysis::runAndersen(module, refOptions);
            const AndersenResult now =
                analysis::runAndersen(module, options);
            out.reference.push_back(viewOf(module, ref, inv));
            out.delta.push_back(viewOf(module, now, inv));
        }
    }

    for (const inv::InvariantSet *inv :
         {static_cast<const inv::InvariantSet *>(nullptr), &invariants}) {
        out.referenceRaces.push_back(
            raceViewOf(analysis::runStaticRaceDetector(
                module, inv, nullptr, /*referenceSolver=*/true)));
        out.deltaRaces.push_back(raceViewOf(
            analysis::runStaticRaceDetector(module, inv, nullptr)));
    }
    return out;
}

std::vector<std::string>
allWorkloadNames()
{
    std::vector<std::string> names = workloads::raceWorkloadNames();
    const auto &slice = workloads::sliceWorkloadNames();
    names.insert(names.end(), slice.begin(), slice.end());
    return names;
}

WorkloadParity
runParityByName(const std::string &name, bool race)
{
    return runParity(race ? workloads::makeRaceWorkload(name, 1, 3)
                          : workloads::makeSliceWorkload(name, 1, 3));
}

TEST(AndersenParity, DeltaSolverMatchesReferenceOnAllWorkloads)
{
    const std::vector<std::string> names = allWorkloadNames();
    const std::size_t numRace = workloads::raceWorkloadNames().size();

    const auto serial = support::runBatch(
        names.size(),
        [&](std::size_t i) {
            return runParityByName(names[i], i < numRace);
        },
        1);

    std::size_t nonEmptySets = 0, icalls = 0, slices = 0, races = 0;
    for (const WorkloadParity &parity : serial) {
        ASSERT_EQ(parity.reference.size(), parity.delta.size());
        for (std::size_t m = 0; m < parity.reference.size(); ++m) {
            EXPECT_EQ(parity.reference[m], parity.delta[m])
                << "points-to / slice parity broke on " << parity.name
                << " (mode " << m << ")";
        }
        EXPECT_EQ(parity.referenceRaces, parity.deltaRaces)
            << "race reports diverged on " << parity.name;
        for (const PtsView &view : parity.reference) {
            for (const auto &pts : view.flatPts)
                nonEmptySets += !pts.empty();
            icalls += view.icalls.size();
            slices += view.slices.size();
        }
        for (const RaceView &view : parity.referenceRaces)
            races += view.racyPairs.size();
    }
    // Sanity: the comparisons above must not be vacuous.
    EXPECT_GT(nonEmptySets, 0u);
    EXPECT_GT(icalls, 0u);
    EXPECT_GT(slices, 0u);
    EXPECT_GT(races, 0u);

    // The same batch at 4 workers must produce the same results in
    // the same index order.
    const auto parallel = support::runBatch(
        names.size(),
        [&](std::size_t i) {
            return runParityByName(names[i], i < numRace);
        },
        4);
    EXPECT_TRUE(serial == parallel)
        << "Andersen parity batch differs between 1 and 4 threads";
}

} // namespace
} // namespace oha
