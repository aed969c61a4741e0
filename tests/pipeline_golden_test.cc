/**
 * @file
 * Pipeline golden tests: every field of runOptFt and runOptSlice is
 * the same at 1 and 4 worker threads and equals the golden table
 * (pipeline_golden.inc), which was generated while the pipelines could
 * still replay captures and pins that both paths gave these results:
 * all 21 programs, clean and fault-seeded, plus many-endpoint,
 * no-output and empty-corpus cases, and every program fault-seeded
 * without repair and with a one-repair budget.  A mismatch or a
 * missing row prints the current row in the table's own format, which
 * is how the table is regenerated.
 *
 * Also covers the OptFT rollback-trigger contract
 * (optFtShouldRollBack).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "core/optft.h"
#include "core/optslice.h"
#include "exec/interpreter.h"
#include "ir/parser.h"
#include "pipeline_result_eq.h"
#include "service/analysis_service.h"
#include "workloads/workloads.h"

namespace oha {
namespace {

TEST(OptFtRollback, TriggerTruthTable)
{
    // An invariant violation always rolls back.
    EXPECT_TRUE(core::optFtShouldRollBack(true, false, false));
    EXPECT_TRUE(core::optFtShouldRollBack(true, true, false));
    EXPECT_TRUE(core::optFtShouldRollBack(true, false, true));
    EXPECT_TRUE(core::optFtShouldRollBack(true, true, true));
    // A race report forces rollback only under active lock elision —
    // and then globally, regardless of which pair raced (Figure 4:
    // the lost happens-before edge can order unrelated accesses).
    EXPECT_TRUE(core::optFtShouldRollBack(false, true, true));
    EXPECT_FALSE(core::optFtShouldRollBack(false, true, false));
    // No violation and no race: speculation succeeded.
    EXPECT_FALSE(core::optFtShouldRollBack(false, false, true));
    EXPECT_FALSE(core::optFtShouldRollBack(false, false, false));
}

/** One pinned pipeline result (pipeline_golden.inc): a case label and
 *  the result's fields as resultLine() prints them. */
struct PipelineGoldenRow
{
    const char *label;
    const char *fields;
};

const PipelineGoldenRow kPipelineGolden[] = {
#include "pipeline_golden.inc"
};

/** Space-separated key=value fields.  Doubles print with %.17g, which
 *  round-trips every double exactly, so equal lines mean equal
 *  fields. */
class FieldLine
{
  public:
    template <class T>
    void
    put(const std::string &key, const T &value)
    {
        if (!text_.empty())
            text_ += ' ';
        text_ += key + '=';
        if constexpr (std::is_same_v<T, std::string>) {
            text_ += value;
        } else if constexpr (std::is_floating_point_v<T>) {
            char buf[40];
            std::snprintf(buf, sizeof buf, "%.17g", value);
            text_ += buf;
        } else {
            text_ += std::to_string(static_cast<std::uint64_t>(value));
        }
    }

    void
    put(const std::string &key, const core::RunCost &cost)
    {
        put(key + ".base", cost.base);
        put(key + ".framework", cost.framework);
        put(key + ".analysis", cost.analysis);
        put(key + ".invariants", cost.invariants);
        put(key + ".rollback", cost.rollback);
    }

    const std::string &str() const { return text_; }

  private:
    std::string text_;
};

/** Every pinned field: the results and the repair accounting. */
std::string
resultLine(const core::OptFtResult &r)
{
    FieldLine line;
    line.put("name", r.name);
    line.put("staticallyRaceFree", r.staticallyRaceFree);
    line.put("soundStaticSeconds", r.soundStaticSeconds);
    line.put("predStaticSeconds", r.predStaticSeconds);
    line.put("profileSeconds", r.profileSeconds);
    line.put("profileRunsUsed", r.profileRunsUsed);
    line.put("testRuns", r.testRuns);
    line.put("baselineSeconds", r.baselineSeconds);
    line.put("fastTrack", r.fastTrack);
    line.put("hybridFt", r.hybridFt);
    line.put("optFt", r.optFt);
    line.put("misSpeculations", r.misSpeculations);
    line.put("raceReportsMatch", r.raceReportsMatch);
    line.put("racesObserved", r.racesObserved);
    line.put("soundRacyAccesses", r.soundRacyAccesses);
    line.put("predRacyAccesses", r.predRacyAccesses);
    line.put("elidedLockSites", r.elidedLockSites);
    line.put("speedupVsFastTrack", r.speedupVsFastTrack);
    line.put("speedupVsHybrid", r.speedupVsHybrid);
    line.put("breakEvenVsHybrid", r.breakEvenVsHybrid);
    line.put("breakEvenVsFastTrack", r.breakEvenVsFastTrack);
    line.put("interpretedSteps", r.interpretedSteps);
    line.put("repredications", r.repredications);
    line.put("repredStaticSeconds", r.repredStaticSeconds);
    line.put("circuitBroken", r.circuitBroken);
    return line.str();
}

std::string
resultLine(const core::OptSliceResult &r)
{
    FieldLine line;
    line.put("name", r.name);
    line.put("profileSeconds", r.profileSeconds);
    line.put("profileRunsUsed", r.profileRunsUsed);
    line.put("endpoints", r.endpoints);
    line.put("testRuns", r.testRuns);
    line.put("baselineSeconds", r.baselineSeconds);
    line.put("hybrid", r.hybrid);
    line.put("optimistic", r.optimistic);
    line.put("misSpeculations", r.misSpeculations);
    line.put("sliceResultsMatch", r.sliceResultsMatch);
    line.put("soundSliceSize", r.soundSliceSize);
    line.put("optSliceSize", r.optSliceSize);
    line.put("dynSpeedup", r.dynSpeedup);
    line.put("breakEven", r.breakEven);
    line.put("interpretedSteps", r.interpretedSteps);
    line.put("repredications", r.repredications);
    line.put("repredStaticSeconds", r.repredStaticSeconds);
    line.put("circuitBroken", r.circuitBroken);
    return line.str();
}

/** @p fields must equal the golden row @p label.  A mismatch or a
 *  missing row prints the current row in the table's own format. */
void
expectGolden(const std::string &label, const std::string &fields)
{
    const std::string current = "{\"" + label + "\", \"" + fields + "\"},";
    for (const PipelineGoldenRow &row : kPipelineGolden) {
        if (label == row.label) {
            EXPECT_EQ(fields, row.fields) << "current row:\n" << current;
            return;
        }
    }
    ADD_FAILURE() << "no golden row for " << label << "; current row:\n"
                  << current;
}

/** Run @p config (at 1 and at 4 worker threads) through @p run: the
 *  two results must agree field by field and match the golden row
 *  @p label.  Returns the serial result. */
template <class Config, class Run>
auto
expectPinned(const std::string &label, Config config, Run run)
{
    config.threads = 1;
    const auto serial = run(config);
    config.threads = 4;
    const auto parallel = run(config);
    expectEqual(serial, parallel, label + " @1t vs @4t");
    expectGolden(label, resultLine(serial));
    return serial;
}

core::OptFtResult
runFt(const workloads::Workload &workload, const core::OptFtConfig &config)
{
    return core::runOptFt(workload, config);
}

core::OptSliceResult
runSlice(const workloads::Workload &workload,
         const core::OptSliceConfig &config)
{
    return core::runOptSlice(workload, config);
}

/** Guest steps of one plain run of each testing input. */
std::uint64_t
plainCorpusSteps(const workloads::Workload &workload)
{
    std::uint64_t steps = 0;
    for (const exec::ExecConfig &input : workload.testingSet)
        steps += exec::Interpreter(*workload.module, input).run().steps;
    return steps;
}

/** The execution accounting of a pipeline run over @p plainSteps:
 *  each input is interpreted once in the fused first round and at
 *  most once more per repair round, and exactly once when nothing was
 *  repaired. */
template <class Result>
void
expectExecutionAccounting(const Result &result, std::uint64_t plainSteps,
                          const std::string &label)
{
    EXPECT_GE(result.interpretedSteps, plainSteps) << label;
    EXPECT_LE(result.interpretedSteps,
              plainSteps * (1 + result.repredications))
        << label;
    if (result.repredications == 0) {
        EXPECT_EQ(result.interpretedSteps, plainSteps) << label;
    }
}

/** Fault seeds of the golden cases: none, and one that mis-speculates. */
constexpr std::uint64_t kGoldenSeeds[] = {0, 7};

TEST(PipelineParity, OptFtMatchesGoldenAt1And4Threads)
{
    // Every race program, clean and fault-seeded, against the table
    // generated before the record-once path was deleted.
    std::uint64_t rollbacks = 0;
    for (const std::string &name : workloads::raceWorkloadNames()) {
        const auto workload = workloads::makeRaceWorkload(name, 8, 4);
        const std::uint64_t plainSteps = plainCorpusSteps(workload);
        for (const std::uint64_t seed : kGoldenSeeds) {
            core::OptFtConfig config;
            config.faultSeed = seed;
            const std::string label =
                "optft/" + name + "/seed" + std::to_string(seed);
            const auto result =
                expectPinned(label, config, [&](const auto &c) {
                    return runFt(workload, c);
                });
            expectExecutionAccounting(result, plainSteps, label);
            rollbacks += result.misSpeculations;
        }
    }
    EXPECT_GT(rollbacks, 0u) << "no case exercised rollback";
}

TEST(PipelineParity, OptSliceMatchesGoldenAt1And4Threads)
{
    std::uint64_t rollbacks = 0;
    for (const std::string &name : workloads::sliceWorkloadNames()) {
        const auto workload = workloads::makeSliceWorkload(name, 4, 6);
        const std::uint64_t plainSteps = plainCorpusSteps(workload);
        for (const std::uint64_t seed : kGoldenSeeds) {
            core::OptSliceConfig config;
            config.faultSeed = seed;
            const std::string label =
                "optslice/" + name + "/seed" + std::to_string(seed);
            const auto result =
                expectPinned(label, config, [&](const auto &c) {
                    return runSlice(workload, c);
                });
            expectExecutionAccounting(result, plainSteps, label);
            rollbacks += result.misSpeculations;
        }
    }
    EXPECT_GT(rollbacks, 0u) << "no case exercised rollback";
}

/** The round loop's branches the default config leaves unpinned. */
struct RecoveryBranch
{
    const char *label;
    bool adaptiveRecovery;
    std::size_t maxRepredications;
};

/** No repair (every rollback keeps the plan), and a one-repair budget
 *  (the next rollback degrades the rest of the corpus, mid-input for
 *  OptSlice). */
constexpr RecoveryBranch kRecoveryBranches[] = {
    {"noadapt", false, 4},
    {"maxrepred1", true, 1},
};

TEST(PipelineParity, RecoveryBranchesMatchGolden)
{
    // Every program at the mis-speculating fault seed, under each
    // branch, against rows generated before the two pipelines shared
    // one round loop.
    constexpr std::uint64_t kSeed = 7;
    std::uint64_t unrepairedRollbacks = 0;
    std::size_t degraded = 0;
    auto tally = [&](const RecoveryBranch &branch, const auto &result) {
        if (!branch.adaptiveRecovery) {
            unrepairedRollbacks += result.misSpeculations;
            EXPECT_EQ(result.repredications, 0u) << branch.label;
            EXPECT_FALSE(result.circuitBroken) << branch.label;
        }
        EXPECT_LE(result.repredications, branch.maxRepredications)
            << branch.label;
        degraded += result.circuitBroken;
    };
    for (const RecoveryBranch &branch : kRecoveryBranches) {
        for (const std::string &name : workloads::raceWorkloadNames()) {
            const auto workload = workloads::makeRaceWorkload(name, 8, 4);
            core::OptFtConfig config;
            config.faultSeed = kSeed;
            config.adaptiveRecovery = branch.adaptiveRecovery;
            config.maxRepredications = branch.maxRepredications;
            const std::string label = "optft/" + name + "/seed7/" +
                                      branch.label;
            const auto result =
                expectPinned(label, config, [&](const auto &c) {
                    return runFt(workload, c);
                });
            expectExecutionAccounting(result, plainCorpusSteps(workload),
                                      label);
            tally(branch, result);
        }
        for (const std::string &name : workloads::sliceWorkloadNames()) {
            const auto workload = workloads::makeSliceWorkload(name, 4, 6);
            core::OptSliceConfig config;
            config.faultSeed = kSeed;
            config.adaptiveRecovery = branch.adaptiveRecovery;
            config.maxRepredications = branch.maxRepredications;
            const std::string label = "optslice/" + name + "/seed7/" +
                                      branch.label;
            const auto result =
                expectPinned(label, config, [&](const auto &c) {
                    return runSlice(workload, c);
                });
            expectExecutionAccounting(result, plainCorpusSteps(workload),
                                      label);
            tally(branch, result);
        }
    }
    EXPECT_GT(unrepairedRollbacks, 0u) << "no unrepaired rollback";
    EXPECT_GT(degraded, 0u) << "no case degraded to hybrid";
}

/** A slicing workload with @p outputs Output endpoints; testing
 *  inputs with a nonzero word take a block profiling never saw, so
 *  their optimistic runs abort and roll back. */
workloads::Workload
manyOutputWorkload(std::size_t outputs)
{
    std::string text = "global cell[" + std::to_string(outputs) +
                       "]\n\nfunc main() {\n  entry:\n"
                       "    r0 = input[0]\n    r1 = &cell\n"
                       "    condbr r0, cold, warm\n  cold:\n"
                       "    r2 = 13\n    *r1 = r2\n    br warm\n  warm:\n";
    ir::Reg next = 3;
    for (std::size_t k = 0; k < outputs; ++k) {
        const std::string addr = "r" + std::to_string(next++);
        const std::string num = "r" + std::to_string(next++);
        const std::string sum = "r" + std::to_string(next++);
        const std::string val = "r" + std::to_string(next++);
        text += "    " + addr + " = &r1[" + std::to_string(k) + "]\n" +
                "    " + num + " = " + std::to_string(k) + "\n" +
                "    " + sum + " = " + num + " + r0\n" +
                "    *" + addr + " = " + sum + "\n" +
                "    " + val + " = *" + addr + "\n" +
                "    output " + val + "\n";
    }
    text += "    ret\n}\n";

    workloads::Workload workload;
    workload.name = "many-outputs";
    workload.module = ir::parseModule(text);
    auto input = [](std::int64_t word) {
        exec::ExecConfig config;
        config.input = {word};
        return config;
    };
    for (std::int64_t word : {0, 0, 0})
        workload.profilingSet.push_back(input(word));
    for (std::int64_t word : {0, 1, 0, 2})
        workload.testingSet.push_back(input(word));
    return workload;
}

TEST(PipelineParity, OptSliceMatchesGoldenBeyondEightEndpoints)
{
    // maxEndpoints = 5: nginx reads all four of its outputs off one
    // hybrid and one optimistic union graph per input; go is
    // under-profiled and rolls back.  The synthetic workload reads 40
    // endpoints off each union graph (still 3 attachments per run)
    // and rolls back too, so its repair rounds restart mid-input.
    struct Case
    {
        workloads::Workload workload;
        std::size_t maxEndpoints;
        std::size_t endpoints;
    };
    std::vector<Case> cases;
    cases.push_back({workloads::makeSliceWorkload("nginx", 4, 6), 5, 4});
    cases.push_back({workloads::makeSliceWorkload("go", 4, 6), 5, 3});
    cases.push_back({manyOutputWorkload(40), 40, 40});
    for (const Case &c : cases) {
        core::OptSliceConfig config;
        config.maxEndpoints = c.maxEndpoints;
        config.minSliceSize = 0;
        const std::string label = "optslice/" + c.workload.name +
                                  "/maxEndpoints" +
                                  std::to_string(c.maxEndpoints);
        const auto result = expectPinned(label, config, [&](const auto &cfg) {
            return runSlice(c.workload, cfg);
        });
        ASSERT_EQ(result.endpoints, c.endpoints) << label;
        EXPECT_TRUE(result.sliceResultsMatch) << label;
        if (c.workload.name != "nginx") {
            EXPECT_GT(result.misSpeculations, 0u) << label;
        }
        expectExecutionAccounting(result, plainCorpusSteps(c.workload),
                                  label);
    }
}

TEST(PipelineParity, OptSliceWithoutOutputReportsZeroSliceSizes)
{
    // No Output, so no endpoint: the mean slice sizes are 0, not 0/0,
    // and every path agrees field by field (NaN would equal nothing).
    workloads::Workload workload;
    workload.name = "no-outputs";
    workload.module = ir::parseModule("func main() {\n  entry:\n"
                                      "    r0 = input[0]\n"
                                      "    r1 = r0 + r0\n    ret\n}\n");
    exec::ExecConfig input;
    input.input = {3};
    workload.profilingSet = {input, input};
    workload.testingSet = {input, input};

    const auto batch = expectPinned(
        "optslice/no-outputs", core::OptSliceConfig{},
        [&](const auto &config) { return runSlice(workload, config); });
    EXPECT_EQ(batch.endpoints, 0u);
    EXPECT_EQ(batch.soundSliceSize, 0.0);
    EXPECT_EQ(batch.optSliceSize, 0.0);

    service::AnalysisService daemon;
    service::AnalysisRequest request;
    request.workload = workload;
    const service::ServiceRunResult served = daemon.submit(request).get();
    ASSERT_EQ(served.outcome, service::RequestOutcome::Done);
    ASSERT_TRUE(served.slice.has_value());
    expectEqual(*served.slice, batch, "service vs batch");
}

TEST(PipelineParity, EmptyTestingSetsAreHandled)
{
    auto race = workloads::makeRaceWorkload("raytracer", 2, 2);
    race.testingSet.clear();
    const auto ft = expectPinned(
        "optft/raytracer/empty", core::OptFtConfig{},
        [&](const auto &config) { return runFt(race, config); });
    EXPECT_EQ(ft.testRuns, 0u);
    EXPECT_EQ(ft.misSpeculations, 0u);
    EXPECT_EQ(ft.interpretedSteps, 0u);
    EXPECT_TRUE(ft.raceReportsMatch);

    auto slice = workloads::makeSliceWorkload("zlib", 2, 2);
    slice.testingSet.clear();
    const auto sl = expectPinned(
        "optslice/zlib/empty", core::OptSliceConfig{},
        [&](const auto &config) { return runSlice(slice, config); });
    EXPECT_EQ(sl.testRuns, 0u);
    EXPECT_EQ(sl.misSpeculations, 0u);
    EXPECT_EQ(sl.interpretedSteps, 0u);
    EXPECT_TRUE(sl.sliceResultsMatch);
}

} // namespace
} // namespace oha
