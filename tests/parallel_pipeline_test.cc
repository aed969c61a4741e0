/**
 * @file
 * Determinism tests for the parallel run-batching paths: profiling
 * campaigns and both end-to-end pipelines must produce byte-identical
 * results for any thread count, because observations execute in
 * parallel but merge serially in input-index order.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>

#include "core/optft.h"
#include "core/optslice.h"
#include "profile/profiler.h"

namespace oha::core {
namespace {

TEST(ParallelProfiling, ConvergedCampaignMatchesSerialAddRunLoop)
{
    const auto workload = workloads::makeRaceWorkload("raytracer", 12, 2);
    const std::size_t maxRuns = 12;
    const std::size_t window = 3;

    // Reference: the pre-existing serial addRun() loop.
    prof::ProfileOptions serialOptions;
    prof::ProfilingCampaign serial(*workload.module, serialOptions);
    {
        std::size_t unchanged = 0;
        for (const auto &config : workload.profilingSet) {
            if (serial.numRuns() >= maxRuns || unchanged >= window)
                break;
            unchanged = serial.addRun(config) ? 0 : unchanged + 1;
        }
    }

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        prof::ProfileOptions options;
        options.threads = threads;
        prof::ProfilingCampaign batched(*workload.module, options);
        batched.addRunsUntilConverged(workload.profilingSet, maxRuns,
                                      window);
        EXPECT_EQ(batched.numRuns(), serial.numRuns()) << threads;
        EXPECT_EQ(batched.profiledSteps(), serial.profiledSteps())
            << threads;
        EXPECT_EQ(batched.invariants().saveText(),
                  serial.invariants().saveText())
            << threads;
    }
}

TEST(ParallelProfiling, SurplusSpeculativeRunsAreDiscarded)
{
    // With more workers than the convergence window, runs past the
    // convergence point must not leak into the run count or the step
    // total.
    const auto workload = workloads::makeRaceWorkload("lusearch", 16, 2);
    prof::ProfileOptions serialOptions;
    serialOptions.threads = 1;
    prof::ProfilingCampaign serial(*workload.module, serialOptions);
    serial.addRunsUntilConverged(workload.profilingSet, 16, 2);

    prof::ProfileOptions wideOptions;
    wideOptions.threads = 8;
    prof::ProfilingCampaign wide(*workload.module, wideOptions);
    wide.addRunsUntilConverged(workload.profilingSet, 16, 2);

    EXPECT_EQ(wide.numRuns(), serial.numRuns());
    EXPECT_EQ(wide.profiledSteps(), serial.profiledSteps());
    EXPECT_EQ(wide.invariants().saveText(), serial.invariants().saveText());
}

TEST(ParallelProfiling, ObserverRunsOnlyTheMergedRuns)
{
    // A batch stops at the run that could close the convergence
    // window, so no run past it is observed (or cached by an
    // observation-cache observer) at any thread count.
    const auto workload = workloads::makeRaceWorkload("lusearch", 16, 2);
    std::string serialInvariants;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        prof::ProfileOptions options;
        options.threads = threads;
        prof::ProfilingCampaign campaign(*workload.module, options);
        std::atomic<std::size_t> calls{0};
        campaign.addRunsUntilConverged(
            workload.profilingSet, 16, 2,
            [&](const exec::ExecConfig &input) {
                ++calls;
                return std::make_shared<const prof::RunObservations>(
                    campaign.observeRun(input));
            });
        EXPECT_EQ(calls.load(), campaign.numRuns()) << threads;
        if (threads == 1)
            serialInvariants = campaign.invariants().saveText();
        EXPECT_EQ(campaign.invariants().saveText(), serialInvariants)
            << threads;
    }
}

TEST(ParallelOptFt, ThreadCountNeverChangesTheResult)
{
    const auto workload = workloads::makeRaceWorkload("raytracer", 10, 6);

    OptFtConfig serialConfig;
    serialConfig.threads = 1;
    const auto serial = runOptFt(workload, serialConfig);

    OptFtConfig parallelConfig;
    parallelConfig.threads = 4;
    const auto parallel = runOptFt(workload, parallelConfig);

    EXPECT_EQ(parallel.profileRunsUsed, serial.profileRunsUsed);
    EXPECT_EQ(parallel.elidedLockSites, serial.elidedLockSites);
    EXPECT_EQ(parallel.racesObserved, serial.racesObserved);
    EXPECT_EQ(parallel.misSpeculations, serial.misSpeculations);
    EXPECT_EQ(parallel.raceReportsMatch, serial.raceReportsMatch);
    // Costs are sums of doubles folded in input order: exact equality,
    // not approximate, is the contract.
    EXPECT_EQ(parallel.fastTrack.normalized(), serial.fastTrack.normalized());
    EXPECT_EQ(parallel.hybridFt.normalized(), serial.hybridFt.normalized());
    EXPECT_EQ(parallel.optFt.normalized(), serial.optFt.normalized());
    EXPECT_EQ(parallel.speedupVsFastTrack, serial.speedupVsFastTrack);
    EXPECT_EQ(parallel.speedupVsHybrid, serial.speedupVsHybrid);
    EXPECT_EQ(parallel.breakEvenVsHybrid, serial.breakEvenVsHybrid);
}

TEST(ParallelOptFt, MisSpeculatingBenchmarkStaysDeterministic)
{
    // pmd carries a real race, so the elision calibration and the
    // rollback paths are exercised; they too must be thread-agnostic.
    const auto workload = workloads::makeRaceWorkload("pmd", 8, 8);

    OptFtConfig serialConfig;
    serialConfig.threads = 1;
    const auto serial = runOptFt(workload, serialConfig);

    OptFtConfig parallelConfig;
    parallelConfig.threads = 4;
    const auto parallel = runOptFt(workload, parallelConfig);

    EXPECT_GT(serial.racesObserved, 0u);
    EXPECT_EQ(parallel.racesObserved, serial.racesObserved);
    EXPECT_EQ(parallel.misSpeculations, serial.misSpeculations);
    EXPECT_EQ(parallel.raceReportsMatch, serial.raceReportsMatch);
    EXPECT_EQ(parallel.optFt.normalized(), serial.optFt.normalized());
}

TEST(ParallelOptSlice, ThreadCountNeverChangesTheResult)
{
    const auto workload = workloads::makeSliceWorkload("zlib", 8, 5);

    OptSliceConfig serialConfig;
    serialConfig.threads = 1;
    const auto serial = runOptSlice(workload, serialConfig);

    OptSliceConfig parallelConfig;
    parallelConfig.threads = 4;
    const auto parallel = runOptSlice(workload, parallelConfig);

    EXPECT_EQ(parallel.profileRunsUsed, serial.profileRunsUsed);
    EXPECT_EQ(parallel.endpoints, serial.endpoints);
    EXPECT_EQ(parallel.misSpeculations, serial.misSpeculations);
    EXPECT_EQ(parallel.sliceResultsMatch, serial.sliceResultsMatch);
    EXPECT_EQ(parallel.soundSliceSize, serial.soundSliceSize);
    EXPECT_EQ(parallel.optSliceSize, serial.optSliceSize);
    EXPECT_EQ(parallel.hybrid.normalized(), serial.hybrid.normalized());
    EXPECT_EQ(parallel.optimistic.normalized(),
              serial.optimistic.normalized());
    EXPECT_EQ(parallel.dynSpeedup, serial.dynSpeedup);
    EXPECT_EQ(parallel.breakEven, serial.breakEven);
}

TEST(ParallelOptSlice, RollbackHeavyBenchmarkStaysDeterministic)
{
    // Under-profiled go mis-speculates on most test tasks, exercising
    // the rollback accounting in the parallel fold.
    const auto workload = workloads::makeSliceWorkload("go", 4, 8);

    OptSliceConfig serialConfig;
    serialConfig.threads = 1;
    const auto serial = runOptSlice(workload, serialConfig);

    OptSliceConfig parallelConfig;
    parallelConfig.threads = 4;
    const auto parallel = runOptSlice(workload, parallelConfig);

    EXPECT_GT(serial.misSpeculations, 0u);
    EXPECT_EQ(parallel.misSpeculations, serial.misSpeculations);
    EXPECT_EQ(parallel.sliceResultsMatch, serial.sliceResultsMatch);
    EXPECT_EQ(parallel.optimistic.normalized(),
              serial.optimistic.normalized());
}

} // namespace
} // namespace oha::core
