/**
 * @file
 * Attachment groups on the live interpreter: one grouped live run must
 * give every group exactly what a standalone live run of that group
 * reports — status, abort reason and metadata, outputs, steps, event totals,
 * per-tool delivery counts, thread count and the tools' own results.
 * Covered: aborts on the first, a middle and the last event beside a
 * group that never aborts; every group aborting, group 0 included; a
 * guest fault and the step limit ending the groups still running; on
 * race (FastTrack) and slice (Giri) workloads, with the grouped runs
 * of one input executing concurrently at 1 and 4 workers.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dyn/fasttrack.h"
#include "dyn/giri.h"
#include "dyn/plans.h"
#include "exec/interpreter.h"
#include "ir/parser.h"
#include "support/thread_pool.h"
#include "workloads/workloads.h"

namespace oha {
namespace {

/** Requests an abort through its control on its @p k-th event (never
 *  when @p k is 0), and counts the thread start and finish callbacks
 *  it sees: a stopped group's tools must see none. */
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
                                   {3, ctx.instr->id, 0, k_, ctx.tid});
    }

    void
    onThreadStart(ThreadId, ThreadId, InstrId) override
    {
        ++threadCallbacks;
    }

    void onThreadFinish(ThreadId) override { ++threadCallbacks; }

    std::uint64_t threadCallbacks = 0;

  private:
    std::uint64_t k_;
    std::uint64_t seen_ = 0;
    exec::ExecutionControl *control_ = nullptr;
};

/** One group: the analysis tool under @p plan, then — when @p abortAt
 *  is non-zero — a tool aborting the group on its abortAt-th event. */
struct GroupSpec
{
    const exec::InstrumentationPlan *plan;
    std::uint64_t abortAt = 0;
};

/** What one group reports: its run result and its tool's output. */
struct GroupOutcome
{
    exec::RunResult result;
    std::set<std::pair<InstrId, InstrId>> races;
    std::vector<std::set<InstrId>> slices;
    std::uint64_t threadCallbacks = 0;
};

/** The workload kind under test: FastTrack (races) or Giri (slices
 *  from every Output). */
struct Analysis
{
    const ir::Module *module;
    bool slicing;
};

std::vector<std::uint64_t>
eventVec(const exec::EventCounts &counts)
{
    return std::vector<std::uint64_t>(std::begin(counts.counts),
                                      std::end(counts.counts));
}

void
expectEqual(const GroupOutcome &expected, const GroupOutcome &actual,
            const std::string &label)
{
    const exec::RunResult &a = expected.result;
    const exec::RunResult &b = actual.result;
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
    EXPECT_EQ(expected.races, actual.races) << label;
    EXPECT_EQ(expected.slices, actual.slices) << label;
    EXPECT_EQ(expected.threadCallbacks, actual.threadCallbacks) << label;
}

/** Drive @p specs over @p input live: all as groups of one run
 *  (@p grouped) or each alone in its own run.  One outcome per spec
 *  either way. */
std::vector<GroupOutcome>
runSpecs(const Analysis &analysis, const exec::ExecConfig &input,
         const std::vector<GroupSpec> &specs, bool grouped)
{
    const ir::Module &module = *analysis.module;
    std::vector<std::unique_ptr<exec::Tool>> tools;
    std::vector<AbortAtEvent> aborters;
    for (const GroupSpec &spec : specs) {
        if (analysis.slicing)
            tools.push_back(std::make_unique<dyn::GiriSlicer>(module));
        else
            tools.push_back(std::make_unique<dyn::FastTrack>());
        aborters.emplace_back(spec.abortAt);
    }
    const exec::InstrumentationPlan all =
        exec::InstrumentationPlan::all(module);
    auto attachSpec = [&](exec::Interpreter &run, std::size_t g,
                          exec::Interpreter::GroupId group) {
        run.attach(group, tools[g].get(), specs[g].plan);
        if (specs[g].abortAt != 0) {
            aborters[g].setControl(&run.control(group));
            run.attach(group, &aborters[g], &all);
        }
    };

    std::vector<exec::RunResult> results;
    if (grouped) {
        exec::Interpreter run(module, input);
        for (std::size_t g = 0; g < specs.size(); ++g)
            attachSpec(run, g, g == 0 ? 0 : run.addGroup());
        results = run.runGroups();
    } else {
        for (std::size_t g = 0; g < specs.size(); ++g) {
            exec::Interpreter run(module, input);
            attachSpec(run, g, 0);
            results.push_back(run.run());
        }
    }

    std::vector<InstrId> endpoints;
    for (InstrId id = 0; id < module.numInstrs(); ++id)
        if (module.instr(id).op == ir::Opcode::Output)
            endpoints.push_back(id);
    std::vector<GroupOutcome> out(specs.size());
    for (std::size_t g = 0; g < specs.size(); ++g) {
        out[g].result = std::move(results[g]);
        out[g].threadCallbacks = aborters[g].threadCallbacks;
        if (analysis.slicing) {
            const auto &giri = static_cast<const dyn::GiriSlicer &>(*tools[g]);
            for (InstrId endpoint : endpoints)
                out[g].slices.push_back(giri.slice(endpoint));
        } else {
            out[g].races =
                static_cast<const dyn::FastTrack &>(*tools[g]).racePairs();
        }
    }
    return out;
}

/** Per scenario and group: the grouped live run equals a standalone
 *  live run, with the grouped runs of all scenarios executing
 *  concurrently on @p threads workers.  Returns the grouped
 *  outcomes. */
std::vector<std::vector<GroupOutcome>>
checkScenarios(const Analysis &analysis, const exec::ExecConfig &input,
               const std::vector<std::vector<GroupSpec>> &scenarios,
               std::size_t threads, const std::string &name)
{
    const auto live = support::runBatch(
        scenarios.size(),
        [&](std::size_t s) {
            return runSpecs(analysis, input, scenarios[s], true);
        },
        threads);
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
        const auto alone = runSpecs(analysis, input, scenarios[s], false);
        for (std::size_t g = 0; g < scenarios[s].size(); ++g)
            expectEqual(alone[g], live[s][g],
                        name + " scenario " + std::to_string(s) +
                            " group " + std::to_string(g) + " @" +
                            std::to_string(threads) + "t");
    }
    return live;
}

/** Events an AbortAtEvent under the all-plan sees in a whole run. */
std::uint64_t
abortableEvents(const exec::RunResult &result)
{
    return result.totalEvents.total() -
           result.totalEvents[exec::EventClass::BlockEnter];
}

void
checkAbortPoints(const Analysis &analysis, const exec::ExecConfig &base,
                 const exec::InstrumentationPlan &plan, std::size_t threads,
                 const std::string &name)
{
    exec::ExecConfig input = base;
    input.recordSchedule = true;
    const exec::InstrumentationPlan none =
        exec::InstrumentationPlan::none(*analysis.module);
    const exec::RunResult plain =
        exec::Interpreter(*analysis.module, input).run();
    const std::uint64_t events = abortableEvents(plain);
    ASSERT_GT(events, 16u) << name;
    const std::vector<std::vector<GroupSpec>> scenarios = {
        // Aborts on the first, a middle and the last event beside a
        // group that runs to the end.
        {{&plan}, {&plan, 1}, {&plan, events / 2}, {&plan, events}},
        // Every group aborts early, group 0 included.
        {{&plan, events / 3}, {&none, events / 4}, {&plan, 2},
         {&plan, events / 3}},
    };
    const auto live =
        checkScenarios(analysis, input, scenarios, threads, name);

    // The aborting groups really were cut short, the abort on the last
    // event still counts every step, and the group that never aborts
    // ran the whole program.
    EXPECT_EQ(live[0][0].result.status, plain.status) << name;
    EXPECT_EQ(live[0][0].result.steps, plain.steps) << name;
    EXPECT_LT(live[0][1].result.steps, plain.steps / 100) << name;
    EXPECT_EQ(live[0][3].result.status, exec::RunResult::Status::Aborted)
        << name;
    EXPECT_EQ(live[0][3].result.steps, plain.steps) << name;
    for (const GroupOutcome &group : live[1]) {
        EXPECT_EQ(group.result.status, exec::RunResult::Status::Aborted)
            << name;
        EXPECT_LT(group.result.steps, plain.steps / 2) << name;
    }
}

TEST(LiveGroups, RaceWorkloadsMatchStandaloneRunsAt1And4Threads)
{
    for (const char *name : {"raytracer", "pmd", "lusearch", "moldyn"}) {
        const auto workload = workloads::makeRaceWorkload(name, 1, 2);
        const Analysis analysis{workload.module.get(), false};
        const auto plan = dyn::fullFastTrackPlan(*workload.module);
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}})
            for (const exec::ExecConfig &input : workload.testingSet)
                checkAbortPoints(analysis, input, plan, threads, name);
    }
}

TEST(LiveGroups, SliceWorkloadsMatchStandaloneRunsAt1And4Threads)
{
    for (const char *name : {"go", "nginx", "zlib"}) {
        const auto workload = workloads::makeSliceWorkload(name, 1, 2);
        const Analysis analysis{workload.module.get(), true};
        const auto plan = dyn::fullGiriPlan(*workload.module);
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}})
            for (const exec::ExecConfig &input : workload.testingSet)
                checkAbortPoints(analysis, input, plan, threads, name);
    }
}

TEST(LiveGroups, GuestFaultEndsTheGroupsStillRunning)
{
    // main walks a 64-cell global off its end while a worker thread
    // updates the first cell under a lock: the out-of-bounds load
    // faults the program mid-run.
    const auto module = ir::parseModule(R"(global cell[64]
global m[1]

func worker(r0) {
  entry:
    r1 = 0
    r2 = &m
    r3 = &cell
    r6 = 1
    r7 = 400
    br loop
  loop:
    lock r2
    r4 = *r3
    r5 = r4 + r0
    *r3 = r5
    unlock r2
    r1 = r1 + r6
    r8 = r1 < r7
    condbr r8, loop, done
  done:
    ret r1
}

func main() {
  entry:
    r0 = 3
    r1 = spawn worker(r0)
    r2 = &cell
    r3 = 0
    r6 = 1
    br loop
  loop:
    r4 = &r2[r3]
    r5 = *r4
    output r5
    r3 = r3 + r6
    br loop
}
)");
    const Analysis analysis{module.get(), false};
    const auto plan = dyn::fullFastTrackPlan(*module);
    exec::ExecConfig input;
    input.recordSchedule = true;
    const exec::RunResult plain = exec::Interpreter(*module, input).run();
    ASSERT_EQ(plain.status, exec::RunResult::Status::RuntimeError);
    ASSERT_EQ(plain.abortReason, "out-of-bounds memory access");
    ASSERT_EQ(plain.numThreads, 2u);
    const std::uint64_t events = abortableEvents(plain);

    // Groups that abort before the fault stop there; the others —
    // one whose abort would come after the last event — end with the
    // fault, at the faulting step.
    const std::vector<std::vector<GroupSpec>> scenarios = {
        {{&plan}, {&plan, 1}, {&plan, events / 2}, {&plan, events + 5}},
    };
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const auto live = checkScenarios(analysis, input, scenarios,
                                         threads, "guest fault");
        for (const std::size_t g : {std::size_t{0}, std::size_t{3}}) {
            EXPECT_EQ(live[0][g].result.status,
                      exec::RunResult::Status::RuntimeError);
            EXPECT_EQ(live[0][g].result.abortReason, plain.abortReason);
            EXPECT_EQ(live[0][g].result.steps, plain.steps);
            EXPECT_EQ(live[0][g].result.outputs, plain.outputs);
        }
        for (const std::size_t g : {std::size_t{1}, std::size_t{2}}) {
            EXPECT_EQ(live[0][g].result.status,
                      exec::RunResult::Status::Aborted);
            EXPECT_LT(live[0][g].result.steps, plain.steps);
        }
    }
}

TEST(LiveGroups, StepLimitEndsTheGroupsStillRunning)
{
    const auto workload = workloads::makeRaceWorkload("lusearch", 1, 1);
    const ir::Module &module = *workload.module;
    const Analysis analysis{&module, false};
    const auto plan = dyn::fullFastTrackPlan(module);
    exec::ExecConfig input = workload.testingSet.front();
    input.recordSchedule = true;
    const exec::RunResult whole = exec::Interpreter(module, input).run();
    ASSERT_TRUE(whole.finished());
    input.maxSteps = whole.steps / 2;
    const exec::RunResult plain = exec::Interpreter(module, input).run();
    ASSERT_EQ(plain.status, exec::RunResult::Status::StepLimit);
    const std::uint64_t events = abortableEvents(plain);

    // An abort on the last event before the limit wins over the limit,
    // as in a standalone run.
    const std::vector<std::vector<GroupSpec>> scenarios = {
        {{&plan}, {&plan, 1}, {&plan, events}, {&plan, events + 1}},
    };
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const auto live = checkScenarios(analysis, input, scenarios,
                                         threads, "step limit");
        for (const std::size_t g : {std::size_t{0}, std::size_t{3}}) {
            EXPECT_EQ(live[0][g].result.status,
                      exec::RunResult::Status::StepLimit);
            EXPECT_EQ(live[0][g].result.steps, input.maxSteps);
        }
        EXPECT_EQ(live[0][1].result.status,
                  exec::RunResult::Status::Aborted);
        EXPECT_EQ(live[0][2].result.status,
                  exec::RunResult::Status::Aborted);
        EXPECT_EQ(live[0][2].result.steps, input.maxSteps);
    }
}

} // namespace
} // namespace oha
