/**
 * @file
 * Golden Andersen results: every solve the pipelines ask for, pinned
 * to a checked-in table (andersen_golden.inc).
 *
 * For each of the 21 workloads, under context-insensitive, sound
 * context-sensitive and predicated context-sensitive points-to (the
 * predicated solve assumes the invariants a converged profiling
 * campaign gathers, call contexts included), one row pins:
 *  - completed: whether the solve finished within the context budget;
 *  - contexts: the number of context instances;
 *  - digest: every register's points-to set in every context, then
 *    every call edge (callerCtx, site, callee) -> calleeCtx.
 *
 * Solver effort (workUnits) is deliberately not pinned: the rows hold
 * the fixpoint, so a solver that reaches it by a different route
 * (without offline variable substitution, say) still matches.  A
 * mismatch or a missing row prints the current row in the table's
 * format.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "analysis/andersen.h"
#include "core/recovery.h"
#include "profile/profiler.h"
#include "workloads/workloads.h"

namespace oha::analysis {
namespace {

/** One pinned solve (andersen_golden.inc). */
struct AndersenGoldenRow
{
    const char *label;
    bool completed;
    std::uint64_t contexts;
    std::uint64_t digest;
};

const AndersenGoldenRow kAndersenGolden[] = {
#include "andersen_golden.inc"
};

/** Order-sensitive 64-bit hash over a stream of words. */
struct Hasher
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    add(std::uint64_t v)
    {
        h ^= v;
        h *= 0x100000001b3ull;
        h ^= h >> 29;
    }
};

std::uint64_t
digestOf(const ir::Module &module, const AndersenResult &result)
{
    Hasher hasher;
    if (!result.completed)
        return hasher.h;
    for (const ContextInstance &context : result.contexts) {
        hasher.add(context.id);
        hasher.add(context.func);
        const ir::Function &func = *module.function(context.func);
        for (ir::Reg reg = 0; reg < func.numRegs(); ++reg) {
            const SparseBitSet &pts = result.pts(context.id, reg);
            hasher.add(pts.size());
            pts.forEach([&](CellId cell) { hasher.add(cell); });
        }
    }
    hasher.add(result.callEdges().size());
    for (const auto &[edge, calleeCtx] : result.callEdges()) {
        const auto &[callerCtx, site, callee] = edge;
        hasher.add(callerCtx);
        hasher.add(site);
        hasher.add(callee);
        hasher.add(calleeCtx);
    }
    return hasher.h;
}

void
checkRow(const std::string &label, const ir::Module &module,
         const AndersenResult &result)
{
    const AndersenGoldenRow current{label.c_str(), result.completed,
                                    result.contexts.size(),
                                    digestOf(module, result)};
    char line[160];
    std::snprintf(line, sizeof line, "{\"%s\", %d, %llu, 0x%016llxull},",
                  current.label, current.completed ? 1 : 0,
                  static_cast<unsigned long long>(current.contexts),
                  static_cast<unsigned long long>(current.digest));
    for (const AndersenGoldenRow &row : kAndersenGolden) {
        if (label != row.label)
            continue;
        EXPECT_TRUE(row.completed == current.completed &&
                    row.contexts == current.contexts &&
                    row.digest == current.digest)
            << "current row:\n" << line;
        return;
    }
    ADD_FAILURE() << "no golden row; current row:\n" << line;
}

void
checkWorkload(const workloads::Workload &workload)
{
    const ir::Module &module = *workload.module;
    const core::PipelineConfig defaults;
    prof::ProfileOptions profOptions;
    profOptions.callContexts = true;
    prof::ProfilingCampaign campaign(module, profOptions);
    campaign.addRunsUntilConverged(workload.profilingSet,
                                   defaults.maxProfileRuns,
                                   defaults.convergenceWindow);
    const inv::InvariantSet invariants = campaign.invariants();

    struct Variant
    {
        const char *name;
        bool contextSensitive;
        const inv::InvariantSet *invariants;
    };
    const Variant variants[] = {{"ci", false, nullptr},
                                {"cs", true, nullptr},
                                {"cs-pred", true, &invariants}};
    for (const Variant &variant : variants) {
        AndersenOptions options;
        options.contextSensitive = variant.contextSensitive;
        options.invariants = variant.invariants;
        checkRow(workload.name + "/" + variant.name, module,
                 runAndersen(module, options));
    }
}

class RaceAndersenGolden : public ::testing::TestWithParam<std::string>
{};

TEST_P(RaceAndersenGolden, ResultsMatchTable)
{
    checkWorkload(workloads::makeRaceWorkload(GetParam(), 48, 0));
}

INSTANTIATE_TEST_SUITE_P(
    AllRaceWorkloads, RaceAndersenGolden,
    ::testing::ValuesIn(workloads::raceWorkloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

class SliceAndersenGolden : public ::testing::TestWithParam<std::string>
{};

TEST_P(SliceAndersenGolden, ResultsMatchTable)
{
    checkWorkload(workloads::makeSliceWorkload(GetParam(), 48, 0));
}

INSTANTIATE_TEST_SUITE_P(
    AllSliceWorkloads, SliceAndersenGolden,
    ::testing::ValuesIn(workloads::sliceWorkloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace oha::analysis
