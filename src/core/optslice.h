/**
 * @file
 * OptSlice: the end-to-end optimistic hybrid dynamic-slicing
 * pipeline (Section 5).
 *
 * Phases:
 *  1. profile likely invariants (including call contexts) to
 *     stability;
 *  2. pick the most accurate static analyses that run within budget —
 *     context-sensitive if it completes, context-insensitive
 *     otherwise — separately for the sound and predicated variants
 *     and separately for points-to and slicing, exactly like the
 *     AT columns of Table 2;
 *  3. choose non-trivial slice endpoints (sound static slice at least
 *     a threshold size, Section 6.1.2);
 *  4. run the testing corpus under the traditional hybrid slicer and
 *     under OptSlice (speculative, invariant-checked, with rollback
 *     to the hybrid configuration on violation, and adaptive recovery
 *     through runAdaptiveRounds).
 */

#pragma once

#include "analysis/slicer.h"
#include "core/recovery.h"
#include "workloads/workloads.h"

namespace oha::core {

/** OptSlice pipeline configuration: the shared fields plus its own. */
struct OptSliceConfig : PipelineConfig
{
    /** Non-trivial endpoint threshold (instructions in sound slice). */
    std::size_t minSliceSize = 25;
    std::size_t maxEndpoints = 3;
    /** Context budget of the CS points-to attempt: a read-only name
     *  for analysis::kDefaultMaxContexts, the default every Andersen
     *  solve of the pipeline runs at. */
    static constexpr std::uint32_t csContextBudget =
        analysis::kDefaultMaxContexts;
    /** Work budget for one static slice. */
    static constexpr std::uint64_t sliceWorkBudget = 3'000'000;
};

/** Analysis-type pick for one analysis (a Table 2 "AT" cell). */
struct AnalysisPick
{
    bool contextSensitive = false;
    double seconds = 0;
};

/** End-to-end result for one benchmark (Figure 6 / Table 2 row). */
struct OptSliceResult : PipelineResult
{
    AnalysisPick soundPts, soundSlice;
    AnalysisPick optPts, optSlice;

    std::size_t endpoints = 0;
    RunCost hybrid;
    RunCost optimistic;
    bool sliceResultsMatch = true;

    /** Mean static slice sizes over the chosen endpoints (Figure 10). */
    double soundSliceSize = 0;
    double optSliceSize = 0;
    /** Load/store alias rates over the optimistic access set (Fig 9). */
    double soundAliasRate = 0;
    double optAliasRate = 0;

    double dynSpeedup = 1.0;
    /** Break-even baseline-seconds vs. traditional hybrid; <0 never;
     *  0 means optimistic is cheaper from the very first run. */
    double breakEven = -1.0;
};

/** Run the whole OptSlice pipeline on @p workload. */
OptSliceResult runOptSlice(const workloads::Workload &workload,
                           const OptSliceConfig &config = {});

} // namespace oha::core
