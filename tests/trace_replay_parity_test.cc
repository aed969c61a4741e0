/**
 * @file
 * Replay parity: driving FastTrack, Giri and the invariant checker
 * from a TraceReplayer must be byte-identical to running the same
 * tools on a live Interpreter — race reports, slice sets,
 * delivered-event accounting, step counts, outputs, thread counts and
 * abort semantics — on every workload, including runs the checker
 * aborts mid-execution.
 *
 * Pipeline parity: every field of runOptFt and runOptSlice is the
 * same at 1 and 4 worker threads and equals the golden table
 * (pipeline_golden.inc), which was generated while the pipelines could
 * still replay captures and pins that both paths gave these results:
 * all 21 programs, clean and fault-seeded, plus many-endpoint,
 * no-output and empty-corpus cases, and every program fault-seeded
 * without repair and with a one-repair budget.
 *
 * Fused replay: one pass driving several attachment groups must give
 * every group the result of a standalone replay of that group, at any
 * abort point, including when every group aborts early.
 *
 * Also covers the capture/replay edge cases: recordings truncated by
 * an abort or a step limit, and snapshots holding a trace entry in an
 * older format; plus the OptFT rollback-trigger contract
 * (optFtShouldRollBack).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <unistd.h>

#include "core/optft.h"
#include "core/optslice.h"
#include "dyn/fasttrack.h"
#include "dyn/giri.h"
#include "dyn/invariant_checker.h"
#include "dyn/plans.h"
#include "exec/trace.h"
#include "ir/builder.h"
#include "ir/parser.h"
#include "pipeline_result_eq.h"
#include "profile/profiler.h"
#include "service/analysis_service.h"
#include "service/snapshot.h"
#include "support/durable_file.h"
#include "support/thread_pool.h"
#include "workloads/workloads.h"

namespace oha {
namespace {

std::vector<std::uint64_t>
eventVec(const exec::EventCounts &counts)
{
    return std::vector<std::uint64_t>(std::begin(counts.counts),
                                      std::end(counts.counts));
}

/** Everything observable from one analysis run that must match
 *  between a live interpreter run and a trace replay. */
struct RunSnapshot
{
    int status = 0;
    std::string abortReason;
    std::vector<std::pair<InstrId, std::int64_t>> outputs;
    std::uint64_t steps = 0;
    std::uint32_t numThreads = 0;
    std::vector<std::uint64_t> totalEvents;
    std::vector<std::vector<std::uint64_t>> delivered;
    std::set<std::pair<InstrId, InstrId>> races;
    std::vector<std::pair<InstrId, std::set<InstrId>>> slices;
    bool violated = false;
    std::uint64_t slowChecks = 0;
};

void
fillCommon(RunSnapshot &snap, const exec::RunResult &result)
{
    snap.status = static_cast<int>(result.status);
    snap.abortReason = result.abortReason;
    snap.outputs = result.outputs;
    snap.steps = result.steps;
    snap.numThreads = result.numThreads;
    snap.totalEvents = eventVec(result.totalEvents);
    for (const exec::EventCounts &counts : result.delivered)
        snap.delivered.push_back(eventVec(counts));
}

void
expectEqual(const RunSnapshot &live, const RunSnapshot &replayed,
            const std::string &label)
{
    EXPECT_EQ(live.status, replayed.status) << label;
    EXPECT_EQ(live.abortReason, replayed.abortReason) << label;
    EXPECT_EQ(live.outputs, replayed.outputs) << label;
    EXPECT_EQ(live.steps, replayed.steps) << label;
    EXPECT_EQ(live.numThreads, replayed.numThreads) << label;
    EXPECT_EQ(live.totalEvents, replayed.totalEvents) << label;
    EXPECT_EQ(live.delivered, replayed.delivered) << label;
    EXPECT_EQ(live.races, replayed.races) << label;
    EXPECT_EQ(live.slices, replayed.slices) << label;
    EXPECT_EQ(live.violated, replayed.violated) << label;
    EXPECT_EQ(live.slowChecks, replayed.slowChecks) << label;
}

/** Profile @p inputs and return the merged invariants. */
inv::InvariantSet
profiled(const ir::Module &module,
         const std::vector<exec::ExecConfig> &inputs)
{
    prof::ProfilingCampaign campaign(module, {});
    for (const auto &config : inputs)
        campaign.addRun(config);
    return campaign.invariants();
}

std::vector<InstrId>
outputInstrs(const ir::Module &module)
{
    std::vector<InstrId> out;
    for (InstrId id = 0; id < module.numInstrs(); ++id)
        if (module.instr(id).op == ir::Opcode::Output)
            out.push_back(id);
    return out;
}

/** FastTrack + invariant checker, live or replayed. */
RunSnapshot
ftSnapshot(const ir::Module &module, const inv::InvariantSet &invariants,
           const exec::InstrumentationPlan &plan,
           const exec::ExecConfig *config,
           const exec::RecordedTrace *trace)
{
    RunSnapshot snap;
    dyn::FastTrack tool;
    dyn::InvariantChecker checker(module, invariants, {});
    exec::RunResult result;
    if (trace) {
        exec::TraceReplayer replayer(module, *trace);
        replayer.attach(&tool, &plan);
        checker.setControl(&replayer);
        replayer.attach(&checker, &checker.plan());
        result = replayer.run();
    } else {
        exec::Interpreter interp(module, *config);
        interp.attach(&tool, &plan);
        checker.setControl(&interp);
        interp.attach(&checker, &checker.plan());
        result = interp.run();
    }
    fillCommon(snap, result);
    snap.races = tool.racePairs();
    snap.violated = checker.violated();
    snap.slowChecks = checker.slowContextChecks();
    return snap;
}

/** Giri + invariant checker, live or replayed. */
RunSnapshot
giriSnapshot(const ir::Module &module,
             const inv::InvariantSet &invariants,
             const exec::InstrumentationPlan &plan,
             const std::vector<InstrId> &endpoints,
             const exec::ExecConfig *config,
             const exec::RecordedTrace *trace)
{
    RunSnapshot snap;
    dyn::GiriSlicer tool(module);
    dyn::InvariantChecker checker(module, invariants, {});
    exec::RunResult result;
    if (trace) {
        exec::TraceReplayer replayer(module, *trace);
        replayer.attach(&tool, &plan);
        checker.setControl(&replayer);
        replayer.attach(&checker, &checker.plan());
        result = replayer.run();
    } else {
        exec::Interpreter interp(module, *config);
        interp.attach(&tool, &plan);
        checker.setControl(&interp);
        interp.attach(&checker, &checker.plan());
        result = interp.run();
    }
    fillCommon(snap, result);
    for (InstrId endpoint : endpoints)
        snap.slices.push_back({endpoint, tool.slice(endpoint)});
    snap.violated = checker.violated();
    snap.slowChecks = checker.slowContextChecks();
    return snap;
}

TEST(TraceReplayParity, FastTrackIdenticalOnAllRaceWorkloads)
{
    std::size_t totalRaces = 0;
    std::size_t aborted = 0;
    for (const auto &name : workloads::raceWorkloadNames()) {
        const auto workload = workloads::makeRaceWorkload(name, 2, 3);
        const ir::Module &module = *workload.module;
        // Deliberately under-profiled so some testing inputs violate
        // invariants and exercise the abort path of the replayer.
        const auto invariants =
            profiled(module, workload.profilingSet);
        const auto plan = dyn::fullFastTrackPlan(module);
        for (const exec::ExecConfig &config : workload.testingSet) {
            const exec::RecordedTrace trace =
                exec::recordRun(module, config);
            const RunSnapshot live =
                ftSnapshot(module, invariants, plan, &config, nullptr);
            const RunSnapshot replayed =
                ftSnapshot(module, invariants, plan, nullptr, &trace);
            expectEqual(live, replayed, name);
            totalRaces += live.races.size();
            if (live.violated)
                ++aborted;
        }
    }
    // The comparisons must not be vacuous.
    EXPECT_GT(totalRaces, 0u);
    EXPECT_GT(aborted, 0u)
        << "no under-profiled run aborted; the abort path is untested";
}

TEST(TraceReplayParity, GiriIdenticalOnAllSliceWorkloads)
{
    std::size_t totalSliceInstrs = 0;
    for (const auto &name : workloads::sliceWorkloadNames()) {
        const auto workload = workloads::makeSliceWorkload(name, 2, 3);
        const ir::Module &module = *workload.module;
        const auto invariants =
            profiled(module, workload.profilingSet);
        const auto plan = dyn::fullGiriPlan(module);
        const auto endpoints = outputInstrs(module);
        for (const exec::ExecConfig &config : workload.testingSet) {
            const exec::RecordedTrace trace =
                exec::recordRun(module, config);
            const RunSnapshot live = giriSnapshot(
                module, invariants, plan, endpoints, &config, nullptr);
            const RunSnapshot replayed = giriSnapshot(
                module, invariants, plan, endpoints, nullptr, &trace);
            expectEqual(live, replayed, name);
            for (const auto &[endpoint, slice] : live.slices)
                totalSliceInstrs += slice.size();
        }
    }
    EXPECT_GT(totalSliceInstrs, 0u);
}

TEST(TraceReplayParity, AbortedReplayStopsAtTheLiveBoundary)
{
    using namespace ir;
    Module module;
    IRBuilder b(module);
    Function *main = b.createFunction("main", 0);
    BasicBlock *cold = b.createBlock(main, "cold");
    BasicBlock *done = b.createBlock(main, "done");
    b.condBr(b.input(0), cold, done);
    b.setInsertPoint(cold);
    b.output(b.constInt(13));
    b.br(done);
    b.setInsertPoint(done);
    b.output(b.constInt(7));
    b.ret();
    module.finalize();

    exec::ExecConfig trained;
    trained.input = {0};
    exec::ExecConfig violating;
    violating.input = {1};
    const auto invariants = profiled(module, {trained});
    const auto plan = dyn::fullFastTrackPlan(module);

    const exec::RecordedTrace trace = exec::recordRun(module, violating);
    // The uninstrumented recording runs to completion...
    ASSERT_EQ(trace.result.status, exec::RunResult::Status::Finished);

    const RunSnapshot live =
        ftSnapshot(module, invariants, plan, &violating, nullptr);
    const RunSnapshot replayed =
        ftSnapshot(module, invariants, plan, nullptr, &trace);
    // ...but the checked replay aborts exactly where the live checked
    // run does: before the cold block's Output executes.
    ASSERT_TRUE(replayed.violated);
    EXPECT_EQ(replayed.status,
              static_cast<int>(exec::RunResult::Status::Aborted));
    EXPECT_TRUE(replayed.outputs.empty());
    EXPECT_LT(replayed.steps, trace.result.steps);
    expectEqual(live, replayed, "aborted LUC run");
}

TEST(TraceReplayEdge, TruncatedRecordingReplaysTheRecordedOutcome)
{
    using namespace ir;
    Module module;
    IRBuilder b(module);
    Function *main = b.createFunction("main", 0);
    BasicBlock *cold = b.createBlock(main, "cold");
    BasicBlock *done = b.createBlock(main, "done");
    b.condBr(b.input(0), cold, done);
    b.setInsertPoint(cold);
    b.output(b.constInt(13));
    b.br(done);
    b.setInsertPoint(done);
    b.output(b.constInt(7));
    b.ret();
    module.finalize();

    exec::ExecConfig trained;
    trained.input = {0};
    exec::ExecConfig violating;
    violating.input = {1};
    const auto invariants = profiled(module, {trained});

    // Record *with* a checker attached, so the recording itself is
    // aborted mid-trace (an invariant violation during capture).
    exec::RecordedTrace trace;
    {
        dyn::InvariantChecker checker(module, invariants, {});
        exec::TraceRecorder recorder;
        exec::Interpreter interp(module, violating);
        interp.setRecorder(&recorder);
        checker.setControl(&interp);
        interp.attach(&checker, &checker.plan());
        trace.result = interp.run();
        trace.events = recorder.take();
        ASSERT_TRUE(checker.violated());
    }
    ASSERT_EQ(trace.result.status, exec::RunResult::Status::Aborted);

    // A full replay of the truncated trace reports the recorded
    // outcome — status, reason, step count — and delivers exactly the
    // events that happened before the abort.
    const auto plan = dyn::fullFastTrackPlan(module);
    dyn::FastTrack tool;
    exec::TraceReplayer replayer(module, trace);
    replayer.attach(&tool, &plan);
    const exec::RunResult result = replayer.run();
    EXPECT_EQ(result.status, exec::RunResult::Status::Aborted);
    EXPECT_EQ(result.abortReason, trace.result.abortReason);
    EXPECT_EQ(result.steps, trace.result.steps);
    EXPECT_TRUE(result.outputs.empty());
    EXPECT_EQ(eventVec(result.totalEvents),
              eventVec(trace.result.totalEvents));
}

TEST(TraceReplayEdge, StepLimitTruncationReplaysIdentically)
{
    const auto workload = workloads::makeRaceWorkload("raytracer", 1, 1);
    const ir::Module &module = *workload.module;
    const auto invariants = profiled(module, workload.profilingSet);
    const auto plan = dyn::fullFastTrackPlan(module);

    exec::ExecConfig limited = workload.testingSet.front();
    limited.maxSteps = 200;

    const exec::RecordedTrace trace = exec::recordRun(module, limited);
    ASSERT_EQ(trace.result.status, exec::RunResult::Status::StepLimit);
    ASSERT_EQ(trace.result.steps, 200u);

    const RunSnapshot live =
        ftSnapshot(module, invariants, plan, &limited, nullptr);
    const RunSnapshot replayed =
        ftSnapshot(module, invariants, plan, nullptr, &trace);
    expectEqual(live, replayed, "step-limited run");
}

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

TEST(PipelineParity, OptFtReplayMatchesDirectAt1And4Threads)
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

TEST(PipelineParity, OptSliceReplayMatchesDirectAt1And4Threads)
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

TEST(PipelineParity, OptSliceFusedReplayBeyondEightAttachments)
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

TEST(TraceReplayEdge, EmptyTestingSetsAreHandled)
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

/** Requests an abort through its control on its @p k-th event. */
class AbortAtEvent : public exec::Tool
{
  public:
    explicit AbortAtEvent(std::uint64_t k) : k_(k) {}

    void setControl(exec::ExecutionControl *control) { control_ = control; }

    void
    onEvent(const exec::EventCtx &ctx) override
    {
        if (++seen_ == k_)
            control_->requestAbort("abort at event " + std::to_string(k_),
                                   {7, ctx.instr->id, 0, k_, ctx.tid});
    }

  private:
    std::uint64_t k_;
    std::uint64_t seen_ = 0;
    exec::ExecutionControl *control_ = nullptr;
};

/** One attachment group of a fused replay: FastTrack under @p plan,
 *  optionally followed by a tool aborting at its abortAt-th event
 *  (0 = no abort). */
struct GroupSpec
{
    const exec::InstrumentationPlan *plan;
    std::uint64_t abortAt = 0;
};

struct GroupOutcome
{
    exec::RunResult result;
    std::set<std::pair<InstrId, InstrId>> races;
};

void
expectEqual(const GroupOutcome &separate, const GroupOutcome &fused,
            const std::string &label)
{
    const exec::RunResult &a = separate.result;
    const exec::RunResult &b = fused.result;
    EXPECT_EQ(a.status, b.status) << label;
    EXPECT_EQ(a.abortReason, b.abortReason) << label;
    EXPECT_EQ(a.abortMeta, b.abortMeta) << label;
    EXPECT_EQ(a.outputs, b.outputs) << label;
    EXPECT_EQ(a.steps, b.steps) << label;
    EXPECT_EQ(eventVec(a.totalEvents), eventVec(b.totalEvents)) << label;
    ASSERT_EQ(a.delivered.size(), b.delivered.size()) << label;
    for (std::size_t i = 0; i < a.delivered.size(); ++i)
        EXPECT_EQ(eventVec(a.delivered[i]), eventVec(b.delivered[i]))
            << label << " tool " << i;
    EXPECT_EQ(a.numThreads, b.numThreads) << label;
    EXPECT_EQ(a.schedule, b.schedule) << label;
    EXPECT_EQ(separate.races, fused.races) << label;
}

/** Replay @p trace once with every spec as its own group (fused), or
 *  once per spec (separate); one outcome per spec either way. */
std::vector<GroupOutcome>
replayGroups(const ir::Module &module, const exec::RecordedTrace &trace,
             const std::vector<GroupSpec> &specs, bool fused)
{
    std::vector<dyn::FastTrack> tools(specs.size());
    std::vector<AbortAtEvent> aborters;
    for (const GroupSpec &spec : specs)
        aborters.emplace_back(spec.abortAt);
    const exec::InstrumentationPlan all =
        exec::InstrumentationPlan::all(module);

    std::vector<exec::RunResult> results;
    auto attachSpec = [&](exec::TraceReplayer &replayer, std::size_t g,
                          exec::TraceReplayer::GroupId group) {
        replayer.attach(group, &tools[g], specs[g].plan);
        if (specs[g].abortAt != 0) {
            aborters[g].setControl(&replayer.control(group));
            replayer.attach(group, &aborters[g], &all);
        }
    };
    if (fused) {
        exec::TraceReplayer replayer(module, trace);
        for (std::size_t g = 0; g < specs.size(); ++g)
            attachSpec(replayer, g, g == 0 ? 0 : replayer.addGroup());
        results = replayer.runGroups();
    } else {
        for (std::size_t g = 0; g < specs.size(); ++g) {
            exec::TraceReplayer replayer(module, trace);
            attachSpec(replayer, g, 0);
            results.push_back(replayer.run());
        }
    }
    std::vector<GroupOutcome> out(specs.size());
    for (std::size_t g = 0; g < specs.size(); ++g) {
        out[g].result = std::move(results[g]);
        out[g].races = tools[g].racePairs();
    }
    return out;
}

TEST(FusedReplay, GroupsMatchSeparateReplaysAtEveryAbortPoint)
{
    // Per group, one fused pass must equal a standalone replay of
    // that group: aborts on the first, a middle and the last event,
    // groups that never abort, and every group aborting early, with
    // the fused replays of one capture running concurrently at 1 and
    // 4 workers.
    for (const char *name : {"raytracer", "pmd", "lusearch"}) {
        const auto workload = workloads::makeRaceWorkload(name, 1, 2);
        const ir::Module &module = *workload.module;
        const auto fullPlan = dyn::fullFastTrackPlan(module);
        const auto none = exec::InstrumentationPlan::none(module);
        for (const exec::ExecConfig &config : workload.testingSet) {
            const exec::RecordedTrace trace =
                exec::recordRun(module, config);
            const std::uint64_t steps = trace.result.steps;
            const std::uint64_t events =
                trace.result.totalEvents.total() -
                trace.result.totalEvents[exec::EventClass::BlockEnter];
            const std::vector<std::vector<GroupSpec>> scenarios = {
                // Aborts on the first, a middle and the last event
                // beside a group that runs to the end.
                {{&fullPlan}, {&fullPlan, 1}, {&fullPlan, events / 2},
                 {&fullPlan, events}},
                // Every group aborts early, group 0 included.
                {{&fullPlan, events / 3}, {&none, events / 4},
                 {&fullPlan, 2}, {&fullPlan, events / 3}},
            };
            for (const std::size_t threads :
                 {std::size_t{1}, std::size_t{4}}) {
                const auto fused = support::runBatch(
                    scenarios.size(),
                    [&](std::size_t s) {
                        return replayGroups(module, trace, scenarios[s],
                                            true);
                    },
                    threads);
                for (std::size_t s = 0; s < scenarios.size(); ++s) {
                    const auto separate =
                        replayGroups(module, trace, scenarios[s], false);
                    for (std::size_t g = 0; g < separate.size(); ++g)
                        expectEqual(separate[g], fused[s][g],
                                    std::string(name) + " scenario " +
                                        std::to_string(s) + " group " +
                                        std::to_string(g) + " @" +
                                        std::to_string(threads) + "t");
                }
                // The aborting groups really were truncated, and the
                // abort on the last step still counts every step.
                EXPECT_EQ(fused[0][0].result.status,
                          exec::RunResult::Status::Finished);
                EXPECT_LT(fused[0][1].result.steps, steps / 100);
                EXPECT_EQ(fused[0][3].result.status,
                          exec::RunResult::Status::Aborted);
                EXPECT_EQ(fused[0][3].result.steps, steps);
                for (const GroupOutcome &group : fused[1]) {
                    EXPECT_EQ(group.result.status,
                              exec::RunResult::Status::Aborted);
                    EXPECT_LT(group.result.steps, steps / 2) << name;
                }
            }
        }
    }
}

TEST(TraceReplayEdge, OldFormatCaptureAndSnapshotAreRejected)
{
    // A snapshot written while captures were cached may hold a trace
    // entry (tag 1) — here one in the older meta-version-1 layout.
    // The container verifies; that entry alone is rejected.
    const std::string snapshot = ::testing::TempDir() + "/oha-v1-" +
                                 std::to_string(::getpid()) + ".snapshot";
    {
        support::DurableWriter writer(snapshot,
                                      support::kDurableKindSnapshot);
        support::ByteWriter meta;
        meta.u32(service::kSnapshotVersion);
        meta.u64(1); // one entry
        writer.addBlock(meta.data());
        support::ByteWriter entry;
        entry.u8(1); // trace entry
        for (int i = 0; i < 4; ++i)
            entry.u64(0); // module + config fingerprints
        entry.u32(1);     // capture meta version 1
        writer.addBlock(entry.data());
        ASSERT_TRUE(writer.commit());
    }
    const service::SnapshotStats before = service::snapshotStats();
    std::string error;
    EXPECT_TRUE(service::loadSnapshot(snapshot, &error)) << error;
    const service::SnapshotStats after = service::snapshotStats();
    EXPECT_EQ(after.entriesRejected, before.entriesRejected + 1);
    EXPECT_EQ(after.entriesRestored, before.entriesRestored);
    std::remove(snapshot.c_str());
}

} // namespace
} // namespace oha
