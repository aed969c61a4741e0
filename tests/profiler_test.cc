/**
 * @file
 * Tests for the likely-invariant profiling tool and the multi-run
 * merging campaign (Sections 4.2 / 5.2): union semantics for
 * reachable-style invariants, never-violated semantics for
 * constraint-style ones, convergence behaviour, and parity of the
 * narrow observer plan with full instrumentation.
 */

#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "profile/profiler.h"
#include "profile/profilers.h"
#include "ir/builder.h"
#include "workloads/workloads.h"

namespace oha::prof {
namespace {

using ir::BasicBlock;
using ir::Function;
using ir::IRBuilder;
using ir::Module;
using ir::Reg;

/** Program with an input-selected branch, an icall, a lock whose
 *  object depends on input, and an input-controlled spawn loop. */
struct ProfiledProgram
{
    Module module;
    BlockId coldBlock = kNoBlock;
    InstrId icall = kNoInstr;
    InstrId lockSite1 = kNoInstr;
    InstrId lockSite2 = kNoInstr;
    InstrId spawnSite = kNoInstr;
    FuncId calleeA = kNoFunc, calleeB = kNoFunc;
};

void
build(ProfiledProgram &prog)
{
    Module &module = prog.module;
    IRBuilder b(module);
    const auto m1 = module.addGlobal("m1", 1);
    const auto m2 = module.addGlobal("m2", 1);

    Function *fa = b.createFunction("callee_a", 0);
    b.ret(b.constInt(1));
    Function *fb = b.createFunction("callee_b", 0);
    b.ret(b.constInt(2));
    prog.calleeA = fa->id();
    prog.calleeB = fb->id();

    Function *worker = b.createFunction("worker", 0);
    b.ret(b.constInt(0));

    Function *main = b.createFunction("main", 0);
    BasicBlock *cold = b.createBlock(main, "cold");
    BasicBlock *merge = b.createBlock(main, "merge");
    BasicBlock *loopHead = b.createBlock(main, "spawnHead");
    BasicBlock *loopBody = b.createBlock(main, "spawnBody");
    BasicBlock *done = b.createBlock(main, "done");
    prog.coldBlock = cold->id();

    // Input 0 selects the cold branch.
    b.condBr(b.input(0), cold, merge);
    b.setInsertPoint(cold);
    b.output(b.constInt(-1));
    b.br(merge);

    b.setInsertPoint(merge);
    // Input 1 selects the icall target.
    const Reg fp = b.assign(b.funcAddr(fa));
    {
        // fp := input1 ? &b : &a, via memory to keep it simple.
        const Reg box = b.alloc(1);
        b.store(box, fp);
        ir::Function *f = main;
        BasicBlock *useB = b.createBlock(f, "useB");
        BasicBlock *afterSel = b.createBlock(f, "afterSel");
        b.condBr(b.input(1), useB, afterSel);
        b.setInsertPoint(useB);
        b.store(box, b.funcAddr(fb));
        b.br(afterSel);
        b.setInsertPoint(afterSel);
        b.icall(b.load(box), {});
    }
    // Two lock sites; input 2 selects which mutex site 2 locks.
    {
        const Reg p1 = b.globalAddr(m1);
        b.lock(p1);
        b.unlock(p1);
        const Reg box = b.alloc(1);
        b.store(box, b.globalAddr(m1));
        ir::Function *f = main;
        BasicBlock *other = b.createBlock(f, "otherLock");
        BasicBlock *afterLock = b.createBlock(f, "afterLock");
        b.condBr(b.input(2), other, afterLock);
        b.setInsertPoint(other);
        b.store(box, b.globalAddr(m2));
        b.br(afterLock);
        b.setInsertPoint(afterLock);
        const Reg p2 = b.load(box);
        b.lock(p2);
        b.unlock(p2);
    }
    // Spawn loop: input 3 = thread count.
    const Reg count = b.input(3);
    const Reg i = b.constInt(0);
    const Reg one = b.constInt(1);
    const Reg handleBox = b.alloc(1);
    b.br(loopHead);
    b.setInsertPoint(loopHead);
    b.condBr(b.lt(i, count), loopBody, done);
    b.setInsertPoint(loopBody);
    b.store(handleBox, b.spawn(worker, {}));
    b.join(b.load(handleBox));
    b.binopTo(i, ir::BinOpKind::Add, i, one);
    b.br(loopHead);
    b.setInsertPoint(done);
    b.ret();

    module.finalize();
    for (InstrId id = 0; id < module.numInstrs(); ++id) {
        const auto &ins = module.instr(id);
        if (ins.op == ir::Opcode::ICall)
            prog.icall = id;
        if (ins.op == ir::Opcode::Spawn)
            prog.spawnSite = id;
        if (ins.op == ir::Opcode::Lock) {
            if (prog.lockSite1 == kNoInstr)
                prog.lockSite1 = id;
            else
                prog.lockSite2 = id;
        }
    }
}

exec::ExecConfig
input(std::int64_t cold, std::int64_t calleeSel, std::int64_t lockSel,
      std::int64_t threads)
{
    exec::ExecConfig config;
    config.input = {cold, calleeSel, lockSel, threads};
    return config;
}

TEST(Profiler, ColdBlockStaysUnvisited)
{
    ProfiledProgram prog;
    build(prog);
    ProfilingCampaign campaign(prog.module, {});
    campaign.addRun(input(0, 0, 0, 1));
    campaign.addRun(input(0, 0, 0, 1));
    EXPECT_FALSE(campaign.invariants().blockVisited(prog.coldBlock));
    campaign.addRun(input(1, 0, 0, 1));
    EXPECT_TRUE(campaign.invariants().blockVisited(prog.coldBlock));
}

TEST(Profiler, CalleeSetsAreUnioned)
{
    ProfiledProgram prog;
    build(prog);
    ProfilingCampaign campaign(prog.module, {});
    campaign.addRun(input(0, 0, 0, 1));
    EXPECT_EQ(campaign.invariants().calleeSets.at(prog.icall),
              (std::set<FuncId>{prog.calleeA}));
    campaign.addRun(input(0, 1, 0, 1));
    EXPECT_EQ(campaign.invariants().calleeSets.at(prog.icall),
              (std::set<FuncId>{prog.calleeA, prog.calleeB}));
}

TEST(Profiler, MustAliasLockPairSurvivesConsistentRuns)
{
    ProfiledProgram prog;
    build(prog);
    ProfilingCampaign campaign(prog.module, {});
    campaign.addRun(input(0, 0, 0, 1));
    campaign.addRun(input(0, 1, 0, 1));
    const auto &inv = campaign.invariants();
    EXPECT_TRUE(inv.locksMustAlias(prog.lockSite1, prog.lockSite2));
    EXPECT_TRUE(inv.locksMustAlias(prog.lockSite1, prog.lockSite1));
}

TEST(Profiler, MustAliasLockPairDiesOnDivergence)
{
    ProfiledProgram prog;
    build(prog);
    ProfilingCampaign campaign(prog.module, {});
    campaign.addRun(input(0, 0, 0, 1));
    EXPECT_TRUE(campaign.invariants().locksMustAlias(prog.lockSite1,
                                                     prog.lockSite2));
    campaign.addRun(input(0, 0, 1, 1)); // site 2 locks m2 this run
    const auto &inv = campaign.invariants();
    EXPECT_FALSE(inv.locksMustAlias(prog.lockSite1, prog.lockSite2));
    // Site 1 alone still always locks one object.
    EXPECT_TRUE(inv.locksMustAlias(prog.lockSite1, prog.lockSite1));
    // Site 2 locked two distinct objects across runs... within each
    // run it locked exactly one, so its reflexive invariant holds
    // per-run; the cross-run merge must kill it (different objects
    // are indistinguishable across runs only via the pair check).
    EXPECT_TRUE(inv.locksMustAlias(prog.lockSite2, prog.lockSite2));
}

TEST(Profiler, SingletonSpawnRequiresExactlyOneEverywhere)
{
    ProfiledProgram prog;
    build(prog);
    ProfilingCampaign campaign(prog.module, {});
    campaign.addRun(input(0, 0, 0, 1));
    EXPECT_TRUE(campaign.invariants().singletonSpawnSites.count(
        prog.spawnSite));
    campaign.addRun(input(0, 0, 0, 3));
    EXPECT_FALSE(campaign.invariants().singletonSpawnSites.count(
        prog.spawnSite));
}

TEST(Profiler, AddRunReportsConvergence)
{
    ProfiledProgram prog;
    build(prog);
    ProfilingCampaign campaign(prog.module, {});
    EXPECT_TRUE(campaign.addRun(input(0, 0, 0, 1)));
    // An identical run adds nothing.
    EXPECT_FALSE(campaign.addRun(input(0, 0, 0, 1)));
    // A new behaviour changes the set again.
    EXPECT_TRUE(campaign.addRun(input(1, 1, 0, 2)));
}

TEST(Profiler, ProfiledStepsAccumulate)
{
    ProfiledProgram prog;
    build(prog);
    ProfilingCampaign campaign(prog.module, {});
    campaign.addRun(input(0, 0, 0, 1));
    const auto once = campaign.profiledSteps();
    EXPECT_GT(once, 0u);
    campaign.addRun(input(0, 0, 0, 1));
    EXPECT_EQ(campaign.profiledSteps(), 2 * once);
}

/** Run @p module once with a RunObserver attached under @p plan. */
RunObservations
observeUnder(const Module &module, const exec::InstrumentationPlan &plan,
             bool callContexts, const exec::ExecConfig &config = {})
{
    RunObserver observer(callContexts);
    exec::Interpreter interp(module, config);
    interp.attach(&observer, &plan);
    return observer.takeObservations(interp.run());
}

TEST(Profiler, CallContextsRecordedWithPrefixes)
{
    // a -> b -> c: the context set must contain [a], [a,b] chains.
    Module module;
    IRBuilder b(module);
    Function *c = b.createFunction("c", 0);
    b.ret(b.constInt(0));
    Function *bf = b.createFunction("b", 0);
    b.call(c, {});
    b.ret(b.constInt(0));
    Function *a = b.createFunction("a", 0);
    b.call(bf, {});
    b.ret(b.constInt(0));
    b.createFunction("main", 0);
    b.call(a, {});
    b.ret();
    module.finalize();

    const RunObservations run = observeUnder(
        module, observerPlan(module, /*callContexts=*/true), true);
    ASSERT_EQ(run.callContexts.size(), 3u); // [m], [m,a], [m,a,b]
    std::set<std::size_t> depths;
    for (const inv::CallContext &context : run.callContexts.chains())
        depths.insert(context.size());
    EXPECT_EQ(depths, (std::set<std::size_t>{1, 2, 3}));
    // Without contexts the observer keeps no stacks at all.
    EXPECT_EQ(observeUnder(module, exec::InstrumentationPlan::all(module),
                           false)
                  .callContexts.size(),
              0u);

    ProfileOptions options;
    options.callContexts = true;
    ProfilingCampaign campaign(module, options);
    campaign.addRun({});
    EXPECT_EQ(campaign.invariants().callContexts, run.callContexts);
}

TEST(Profiler, BlockCountsMatchExecution)
{
    Module module;
    IRBuilder b(module);
    Function *main = b.createFunction("main", 0);
    BasicBlock *loop = b.createBlock(main, "loop");
    BasicBlock *body = b.createBlock(main, "body");
    BasicBlock *exit = b.createBlock(main, "exit");
    const Reg i = b.constInt(0);
    const Reg n = b.constInt(5);
    const Reg one = b.constInt(1);
    b.br(loop);
    b.setInsertPoint(loop);
    b.condBr(b.lt(i, n), body, exit);
    b.setInsertPoint(body);
    b.binopTo(i, ir::BinOpKind::Add, i, one);
    b.br(loop);
    b.setInsertPoint(exit);
    b.ret();
    module.finalize();

    const RunObservations run =
        observeUnder(module, observerPlan(module, false), false);
    ASSERT_EQ(run.status, exec::RunResult::Status::Finished);
    const std::map<BlockId, std::uint64_t> counts(run.blockCounts.begin(),
                                                  run.blockCounts.end());
    EXPECT_EQ(counts.at(loop->id()), 6u);
    EXPECT_EQ(counts.at(body->id()), 5u);
    EXPECT_EQ(counts.at(exit->id()), 1u);
    EXPECT_EQ(counts.at(main->entry()->id()), 1u);
}

/** The campaign's merge rules restated from scratch over every run
 *  so far: unions, candidates minus violated lock pairs, and spawn
 *  sites whose largest per-run count is one. */
inv::InvariantSet
referenceMerge(const Module &module, const std::vector<RunObservations> &runs)
{
    inv::InvariantSet merged;
    merged.numBlocks = static_cast<std::uint32_t>(module.numBlocks());
    merged.hasCallContexts = true;
    std::set<std::pair<InstrId, InstrId>> candidates, violated;
    std::map<InstrId, std::uint64_t> maxSpawns;
    for (const RunObservations &run : runs) {
        for (const auto &[block, count] : run.blockCounts)
            merged.visitedBlocks.insert(block);
        for (const auto &[site, funcs] : run.calleeSets)
            merged.calleeSets[site].insert(funcs.begin(), funcs.end());
        for (const inv::CallContext &context : run.callContexts.chains())
            merged.callContexts.insert(context);
        const auto &locks = run.lockObjects;
        for (std::size_t a = 0; a < locks.size(); ++a)
            for (std::size_t b = a; b < locks.size(); ++b) {
                const bool same = locks[a].second.size() == 1 &&
                                  locks[a].second == locks[b].second;
                (same ? candidates : violated)
                    .insert({locks[a].first, locks[b].first});
            }
        for (const auto &[site, count] : run.spawnCounts)
            maxSpawns[site] = std::max(maxSpawns[site], count);
    }
    for (const auto &pair : candidates)
        if (!violated.count(pair))
            merged.mustAliasLocks.insert(pair);
    for (const auto &[site, count] : maxSpawns)
        if (count == 1)
            merged.singletonSpawnSites.insert(site);
    return merged;
}

TEST(Profiler, IncrementalMergeMatchesTheReferenceMerge)
{
    // mergeRun updates the merged sets in place; after every run they
    // must equal the from-scratch merge, and the change flag must say
    // exactly whether anything moved.
    ProfiledProgram prog;
    build(prog);
    const std::vector<exec::ExecConfig> inputs = {
        input(0, 0, 0, 1), input(0, 0, 0, 1), input(1, 1, 0, 1),
        input(0, 0, 1, 1), input(0, 0, 0, 3), input(1, 0, 1, 1),
        input(0, 1, 0, 0), input(0, 0, 0, 1)};
    ProfileOptions options;
    options.callContexts = true;
    ProfilingCampaign campaign(prog.module, options);
    std::vector<RunObservations> runs;
    for (const exec::ExecConfig &config : inputs) {
        const inv::InvariantSet before = campaign.invariants();
        runs.push_back(campaign.observeRun(config));
        const bool changed = campaign.mergeRun(runs.back());
        const inv::InvariantSet &merged = campaign.invariants();
        const inv::InvariantSet reference = referenceMerge(prog.module, runs);
        EXPECT_EQ(merged, reference) << "after run " << runs.size();
        EXPECT_EQ(changed, !(before == merged)) << "run " << runs.size();
    }
}

std::vector<std::string>
allWorkloadNames()
{
    std::vector<std::string> names = workloads::raceWorkloadNames();
    const auto &slice = workloads::sliceWorkloadNames();
    names.insert(names.end(), slice.begin(), slice.end());
    return names;
}

workloads::Workload
makeWorkload(const std::string &name, std::size_t profileRuns = 48,
             std::size_t testRuns = 24)
{
    const auto &race = workloads::raceWorkloadNames();
    return std::find(race.begin(), race.end(), name) != race.end()
               ? workloads::makeRaceWorkload(name, profileRuns, testRuns)
               : workloads::makeSliceWorkload(name, profileRuns, testRuns);
}

TEST(Profiler, ObserverPlanCoversOnlyTheSitesTheObserverReads)
{
    for (const bool callContexts : {false, true}) {
        for (const std::string &name : allWorkloadNames()) {
            const auto workload = makeWorkload(name, 1, 1);
            const Module &module = *workload.module;
            const auto plan = observerPlan(module, callContexts);
            EXPECT_EQ(plan.numBlockSites(), module.numBlocks()) << name;
            for (BlockId block = 0; block < module.numBlocks(); ++block)
                EXPECT_TRUE(plan.coversBlock(block));
            for (InstrId id = 0; id < module.numInstrs(); ++id) {
                // Loads, stores, arithmetic and branches — everything
                // else — stay uninstrumented.
                switch (module.instr(id).op) {
                  case ir::Opcode::ICall:
                  case ir::Opcode::Lock:
                  case ir::Opcode::Spawn:
                    EXPECT_TRUE(plan.coversInstr(id)) << name;
                    break;
                  case ir::Opcode::Call:
                  case ir::Opcode::Ret:
                    EXPECT_EQ(plan.coversInstr(id), callContexts) << name;
                    break;
                  default:
                    EXPECT_FALSE(plan.coversInstr(id)) << name;
                    break;
                }
            }
        }
    }
}

void
expectSameObservations(const RunObservations &narrow,
                       const RunObservations &full, const std::string &where)
{
    EXPECT_EQ(narrow.blockCounts, full.blockCounts) << where;
    EXPECT_EQ(narrow.calleeSets, full.calleeSets) << where;
    EXPECT_EQ(narrow.callContexts, full.callContexts) << where;
    EXPECT_EQ(narrow.lockObjects, full.lockObjects) << where;
    EXPECT_EQ(narrow.spawnCounts, full.spawnCounts) << where;
    EXPECT_EQ(narrow.steps, full.steps) << where;
    EXPECT_EQ(narrow.status, full.status) << where;
}

class ProfilerParity : public ::testing::TestWithParam<std::string>
{};

/** observeRun (the narrow observer plan) sees exactly what the same
 *  tool sees under full instrumentation, on the first ten profiling
 *  inputs and every testing input, with and without contexts. */
TEST_P(ProfilerParity, ObserverPlanMatchesAllSites)
{
    const std::string &name = GetParam();
    const auto workload = makeWorkload(name);
    const Module &module = *workload.module;
    std::vector<exec::ExecConfig> inputs(
        workload.profilingSet.begin(),
        workload.profilingSet.begin() +
            std::min<std::size_t>(10, workload.profilingSet.size()));
    inputs.insert(inputs.end(), workload.testingSet.begin(),
                  workload.testingSet.end());
    const auto all = exec::InstrumentationPlan::all(module);
    for (const bool callContexts : {false, true}) {
        ProfileOptions options;
        options.callContexts = callContexts;
        const ProfilingCampaign campaign(module, options);
        for (std::size_t i = 0; i < inputs.size(); ++i)
            expectSameObservations(
                campaign.observeRun(inputs[i]),
                observeUnder(module, all, callContexts, inputs[i]),
                name + " input " + std::to_string(i) +
                    (callContexts ? " with contexts" : ""));
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, ProfilerParity,
                         ::testing::ValuesIn(allWorkloadNames()),
                         [](const auto &info) { return info.param; });

} // namespace
} // namespace oha::prof
