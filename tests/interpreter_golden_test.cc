/**
 * @file
 * Golden interpreter digests: every observable of an execution,
 * hashed field by field and pinned to a checked-in table
 * (interpreter_golden.inc).
 *
 * For each of the 21 workloads, over the first 12 profiling inputs
 * and every testing input, one digest per run kind covers:
 *  - plain: the RunResult of an uninstrumented run (schedule on);
 *  - observer: the profiler's RunObservations under its narrow plan;
 *  - spyAll / spySparse: a spy tool hashing every EventCtx field and
 *    lifecycle callback, under an all-sites plan alone, and under a
 *    sparse plan (every 3rd instruction, every 2nd block) attached
 *    next to an all-sites spy;
 *  - abort: a tool aborting at the 1st, ~1/3, ~1/2 and last delivered
 *    event;
 *  - maxSteps: plain runs under step limits of 1, 100 and 777.
 *
 * Everything is hashed field by field, never as raw struct bytes:
 * AbortMetadata and pair<BlockId, uint64_t> carry padding whose
 * contents are unspecified.  A Value is hashed as its kind and the
 * payload that kind defines, so a payload field the kind leaves unset
 * pins nothing.  A mismatch prints the digest line the current code
 * produces, in the table's own format.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "exec/interpreter.h"
#include "profile/profiler.h"
#include "workloads/workloads.h"

namespace oha {
namespace {

struct GoldenEntry
{
    const char *workload;
    const char *kind;
    std::uint64_t digest;
};

const GoldenEntry kGolden[] = {
#include "interpreter_golden.inc"
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

    void
    add(const std::string &s)
    {
        add(s.size());
        for (const char c : s)
            add(static_cast<unsigned char>(c));
    }

    /** The kind and the payload that kind defines; the other payload
     *  fields carry no meaning and are left out. */
    void
    add(const exec::Value &value)
    {
        add(static_cast<std::uint64_t>(value.kind));
        switch (value.kind) {
          case exec::ValueKind::Scalar:
            add(static_cast<std::uint64_t>(value.num));
            break;
          case exec::ValueKind::Pointer:
            add(value.obj);
            add(value.off);
            break;
          case exec::ValueKind::FuncPtr:
          case exec::ValueKind::Thread:
            add(value.idx);
            break;
        }
    }

    void
    add(const exec::EventCounts &counts)
    {
        for (const std::uint64_t c : counts.counts)
            add(c);
    }

    void
    add(const exec::RunResult &result)
    {
        add(static_cast<std::uint64_t>(result.status));
        add(result.abortReason);
        add(result.abortMeta.kind);
        add(result.abortMeta.site);
        add(result.abortMeta.aux);
        add(result.abortMeta.observed);
        add(result.abortMeta.thread);
        add(result.outputs.size());
        for (const auto &[id, value] : result.outputs) {
            add(id);
            add(static_cast<std::uint64_t>(value));
        }
        add(result.steps);
        add(result.totalEvents);
        add(result.delivered.size());
        for (const exec::EventCounts &counts : result.delivered)
            add(counts);
        add(result.numThreads);
        add(result.schedule.size());
        for (const exec::ScheduleStep &step : result.schedule) {
            add(step.thread);
            add(step.quantum);
        }
    }

    void
    add(const prof::RunObservations &run)
    {
        add(run.blockCounts.size());
        for (const auto &[block, count] : run.blockCounts) {
            add(block);
            add(count);
        }
        add(run.calleeSets.size());
        for (const auto &[site, funcs] : run.calleeSets) {
            add(site);
            add(funcs.size());
            for (const FuncId func : funcs)
                add(func);
        }
        add(run.callContexts.size());
        for (const inv::CallContext &context : run.callContexts.chains()) {
            add(context.size());
            for (const InstrId site : context)
                add(site);
        }
        add(run.lockObjects.size());
        for (const auto &[site, objs] : run.lockObjects) {
            add(site);
            add(objs.size());
            for (const exec::ObjectId obj : objs)
                add(obj);
        }
        add(run.spawnCounts.size());
        for (const auto &[site, count] : run.spawnCounts) {
            add(site);
            add(count);
        }
        add(run.steps);
        add(static_cast<std::uint64_t>(run.status));
    }
};

/** Hashes every callback and every EventCtx field it is shown. */
class SpyTool : public exec::Tool
{
  public:
    explicit SpyTool(Hasher &hash) : hash_(hash) {}

    void
    onEvent(const exec::EventCtx &ctx) override
    {
        hash_.add(1);
        hash_.add(ctx.tid);
        hash_.add(ctx.instr->id);
        hash_.add(ctx.frameId);
        hash_.add(ctx.obj);
        hash_.add(ctx.off);
        hash_.add(ctx.value);
        hash_.add(ctx.calleeResolved);
        hash_.add(ctx.frame2);
        hash_.add(ctx.callInstr ? ctx.callInstr->id : kNoInstr);
        hash_.add(ctx.otherTid);
        deliver(ctx.tid, ctx.instr->id);
    }

    void
    onBlockEnter(ThreadId tid, BlockId block) override
    {
        hash_.add(2);
        hash_.add(tid);
        hash_.add(block);
        deliver(tid, block);
    }

    void
    onThreadStart(ThreadId tid, ThreadId parent, InstrId site) override
    {
        hash_.add(3);
        hash_.add(tid);
        hash_.add(parent);
        hash_.add(site);
    }

    void
    onThreadFinish(ThreadId tid) override
    {
        hash_.add(4);
        hash_.add(tid);
    }

    /** Abort through @p control on the @p n-th delivered event
     *  (1-based; 0 never aborts). */
    void
    abortAt(exec::ExecutionControl *control, std::uint64_t n)
    {
        control_ = control;
        abortAt_ = n;
    }

    std::uint64_t delivered() const { return delivered_; }

  private:
    void
    deliver(ThreadId tid, std::uint64_t site)
    {
        ++delivered_;
        if (control_ && delivered_ == abortAt_) {
            exec::AbortMetadata meta;
            meta.kind = 7;
            meta.site = site;
            meta.aux = delivered_;
            meta.observed = delivered_ * 3;
            meta.thread = tid;
            control_->requestAbort(
                "golden abort at event " + std::to_string(delivered_), meta);
        }
    }

    Hasher &hash_;
    exec::ExecutionControl *control_ = nullptr;
    std::uint64_t abortAt_ = 0;
    std::uint64_t delivered_ = 0;
};

exec::InstrumentationPlan
sparsePlan(const ir::Module &module)
{
    exec::InstrumentationPlan plan = exec::InstrumentationPlan::none(module);
    for (InstrId id = 0; id < module.numInstrs(); id += 3)
        plan.setInstr(id, true);
    for (BlockId id = 0; id < module.numBlocks(); id += 2)
        plan.setBlock(id, true);
    return plan;
}

std::vector<std::pair<std::string, std::uint64_t>>
computeDigests(const workloads::Workload &workload)
{
    const ir::Module &module = *workload.module;
    std::vector<exec::ExecConfig> inputs;
    for (std::size_t i = 0; i < workload.profilingSet.size() && i < 12; ++i)
        inputs.push_back(workload.profilingSet[i]);
    inputs.insert(inputs.end(), workload.testingSet.begin(),
                  workload.testingSet.end());
    for (exec::ExecConfig &config : inputs)
        config.recordSchedule = true;

    prof::ProfileOptions profileOptions;
    profileOptions.callContexts = true;
    profileOptions.threads = 1;
    const prof::ProfilingCampaign campaign(module, profileOptions);
    const exec::InstrumentationPlan all =
        exec::InstrumentationPlan::all(module);
    const exec::InstrumentationPlan sparse = sparsePlan(module);

    Hasher plain, observer, spyAll, spySparse, abort, maxSteps;
    for (const exec::ExecConfig &config : inputs) {
        {
            exec::Interpreter interp(module, config);
            plain.add(interp.run());
        }
        observer.add(campaign.observeRun(config));

        std::uint64_t events = 0;
        {
            SpyTool spy(spyAll);
            exec::Interpreter interp(module, config);
            interp.attach(&spy, &all);
            spyAll.add(interp.run());
            events = spy.delivered();
        }
        {
            SpyTool sparseSpy(spySparse);
            Hasher second;
            SpyTool allSpy(second);
            exec::Interpreter interp(module, config);
            interp.attach(&sparseSpy, &sparse);
            interp.attach(&allSpy, &all);
            spySparse.add(interp.run());
            spySparse.add(second.h);
        }

        const std::uint64_t targets[] = {
            1, std::max<std::uint64_t>(1, events / 3),
            std::max<std::uint64_t>(1, events / 2), events};
        for (const std::uint64_t target : targets) {
            SpyTool spy(abort);
            exec::Interpreter interp(module, config);
            interp.attach(&spy, &all);
            spy.abortAt(&interp, target);
            abort.add(interp.run());
        }

        for (const std::uint64_t limit : {1, 100, 777}) {
            exec::ExecConfig limited = config;
            limited.maxSteps = limit;
            exec::Interpreter interp(module, limited);
            maxSteps.add(interp.run());
        }
    }
    return {
        {"plain", plain.h},
        {"observer", observer.h},
        {"spyAll", spyAll.h},
        {"spySparse", spySparse.h},
        {"abort", abort.h},
        {"maxSteps", maxSteps.h},
    };
}

void
checkAgainstTable(const workloads::Workload &workload)
{
    for (const auto &[kind, digest] : computeDigests(workload)) {
        const GoldenEntry *entry = nullptr;
        for (const GoldenEntry &candidate : kGolden)
            if (workload.name == candidate.workload && kind == candidate.kind)
                entry = &candidate;
        char line[128];
        std::snprintf(line, sizeof line, "{\"%s\", \"%s\", 0x%016llxull},",
                      workload.name.c_str(), kind.c_str(),
                      static_cast<unsigned long long>(digest));
        if (!entry) {
            ADD_FAILURE() << "no golden entry; current: " << line;
            continue;
        }
        EXPECT_EQ(digest, entry->digest) << "current: " << line;
    }
}

class RaceGolden : public ::testing::TestWithParam<std::string>
{};

TEST_P(RaceGolden, DigestsMatchTable)
{
    checkAgainstTable(workloads::makeRaceWorkload(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    AllRaceWorkloads, RaceGolden,
    ::testing::ValuesIn(workloads::raceWorkloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

class SliceGolden : public ::testing::TestWithParam<std::string>
{};

TEST_P(SliceGolden, DigestsMatchTable)
{
    checkAgainstTable(workloads::makeSliceWorkload(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    AllSliceWorkloads, SliceGolden,
    ::testing::ValuesIn(workloads::sliceWorkloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace oha
