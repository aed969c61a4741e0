/**
 * @file
 * Field-by-field equality of pipeline results, for tests that compare
 * two runs of runOptFt or runOptSlice (serial against parallel, cached
 * against live, restored against fresh).  In namespace core, so
 * argument-dependent lookup finds them beside a test's own
 * expectEqual overloads.
 */

#pragma once

#include <gtest/gtest.h>

#include <string>

#include "core/optft.h"
#include "core/optslice.h"

namespace oha::core {

inline void
expectEqual(const RunCost &a, const RunCost &b, const std::string &label)
{
    EXPECT_EQ(a.base, b.base) << label;
    EXPECT_EQ(a.framework, b.framework) << label;
    EXPECT_EQ(a.analysis, b.analysis) << label;
    EXPECT_EQ(a.invariants, b.invariants) << label;
    EXPECT_EQ(a.rollback, b.rollback) << label;
}

/** The fields both pipelines report, including the demotion and
 *  injected-fault sequences. */
inline void
expectEqual(const PipelineResult &a, const PipelineResult &b,
            const std::string &label)
{
    EXPECT_EQ(a.name, b.name) << label;
    EXPECT_EQ(a.profileSeconds, b.profileSeconds) << label;
    EXPECT_EQ(a.profileRunsUsed, b.profileRunsUsed) << label;
    EXPECT_EQ(a.testRuns, b.testRuns) << label;
    EXPECT_EQ(a.baselineSeconds, b.baselineSeconds) << label;
    EXPECT_EQ(a.misSpeculations, b.misSpeculations) << label;
    EXPECT_EQ(a.interpretedSteps, b.interpretedSteps) << label;
    EXPECT_EQ(a.repredications, b.repredications) << label;
    EXPECT_EQ(a.repredStaticSeconds, b.repredStaticSeconds) << label;
    EXPECT_EQ(a.circuitBroken, b.circuitBroken) << label;
    EXPECT_EQ(a.demotions, b.demotions) << label;
    EXPECT_EQ(a.injectedFaults, b.injectedFaults) << label;
}

inline void
expectEqual(const OptFtResult &a, const OptFtResult &b,
            const std::string &label)
{
    expectEqual(static_cast<const PipelineResult &>(a), b, label);
    EXPECT_EQ(a.staticallyRaceFree, b.staticallyRaceFree) << label;
    EXPECT_EQ(a.soundStaticSeconds, b.soundStaticSeconds) << label;
    EXPECT_EQ(a.predStaticSeconds, b.predStaticSeconds) << label;
    expectEqual(a.fastTrack, b.fastTrack, label + " fastTrack");
    expectEqual(a.hybridFt, b.hybridFt, label + " hybridFt");
    expectEqual(a.optFt, b.optFt, label + " optFt");
    EXPECT_EQ(a.raceReportsMatch, b.raceReportsMatch) << label;
    EXPECT_EQ(a.racesObserved, b.racesObserved) << label;
    EXPECT_EQ(a.soundRacyAccesses, b.soundRacyAccesses) << label;
    EXPECT_EQ(a.predRacyAccesses, b.predRacyAccesses) << label;
    EXPECT_EQ(a.elidedLockSites, b.elidedLockSites) << label;
    EXPECT_EQ(a.speedupVsFastTrack, b.speedupVsFastTrack) << label;
    EXPECT_EQ(a.speedupVsHybrid, b.speedupVsHybrid) << label;
    EXPECT_EQ(a.breakEvenVsHybrid, b.breakEvenVsHybrid) << label;
    EXPECT_EQ(a.breakEvenVsFastTrack, b.breakEvenVsFastTrack) << label;
    // Also fails on a field the lines above do not name.
    EXPECT_TRUE(a == b) << label;
}

inline void
expectEqual(const OptSliceResult &a, const OptSliceResult &b,
            const std::string &label)
{
    expectEqual(static_cast<const PipelineResult &>(a), b, label);
    EXPECT_EQ(a.endpoints, b.endpoints) << label;
    expectEqual(a.hybrid, b.hybrid, label + " hybrid");
    expectEqual(a.optimistic, b.optimistic, label + " optimistic");
    EXPECT_EQ(a.sliceResultsMatch, b.sliceResultsMatch) << label;
    EXPECT_EQ(a.soundSliceSize, b.soundSliceSize) << label;
    EXPECT_EQ(a.optSliceSize, b.optSliceSize) << label;
    EXPECT_EQ(a.soundAliasRate, b.soundAliasRate) << label;
    EXPECT_EQ(a.optAliasRate, b.optAliasRate) << label;
    EXPECT_EQ(a.dynSpeedup, b.dynSpeedup) << label;
    EXPECT_EQ(a.breakEven, b.breakEven) << label;
    // Also fails on a field the lines above do not name (the analysis
    // picks).
    EXPECT_TRUE(a == b) << label;
}

} // namespace oha::core
