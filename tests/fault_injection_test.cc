/**
 * @file
 * Tests for the deterministic fault-injection harness: every
 * injectable violation family actually trips the runtime checker on
 * the corpus it was derived from, selection is seed-deterministic,
 * an aborted run carries the checker's structured violation
 * metadata, the end-to-end pipelines stay sound under
 * injection, and OptFT's full-FastTrack figures, which it prices
 * without running that plan, equal those of standalone full runs.
 */

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "analysis/andersen_cache.h"
#include "core/optft.h"
#include "core/optslice.h"
#include "dyn/fasttrack.h"
#include "dyn/fault_injector.h"
#include "dyn/invariant_checker.h"
#include "dyn/plans.h"
#include "exec/interpreter.h"
#include "ir/builder.h"
#include "pipeline_result_eq.h"
#include "profile/observation_cache.h"
#include "profile/profiler.h"
#include "service/shared_cache.h"
#include "workloads/workloads.h"

namespace oha::dyn {
namespace {

using ir::BasicBlock;
using ir::Function;
using ir::IRBuilder;
using ir::Module;
using ir::Reg;

exec::ExecConfig
oneInput(std::int64_t v)
{
    exec::ExecConfig config;
    config.input = {v};
    return config;
}

inv::InvariantSet
profiled(const ir::Module &module,
         const std::vector<exec::ExecConfig> &inputs,
         bool contexts = false)
{
    prof::ProfileOptions options;
    options.callContexts = contexts;
    prof::ProfilingCampaign campaign(module, options);
    for (const auto &config : inputs)
        campaign.addRun(config);
    return campaign.invariants();
}

/** Run the corpus under the checker; return the first violation. */
Violation
firstViolation(const ir::Module &module,
               const inv::InvariantSet &invariants,
               const std::vector<exec::ExecConfig> &corpus,
               CheckerConfig checkerConfig = {})
{
    for (const exec::ExecConfig &input : corpus) {
        InvariantChecker checker(module, invariants, checkerConfig);
        exec::Interpreter interp(module, input);
        checker.setControl(&interp);
        interp.attach(&checker, &checker.plan());
        interp.run();
        if (checker.violated())
            return checker.violation();
    }
    return {};
}

/** A program exercising blocks, icalls, locks and spawns. */
struct RichProgram
{
    Module module;
};

void
buildRich(RichProgram &prog)
{
    IRBuilder b(prog.module);
    const auto m1 = prog.module.addGlobal("m1", 1);
    const auto m2 = prog.module.addGlobal("m2", 1);
    Function *worker = b.createFunction("worker", 0);
    b.ret(b.constInt(0));
    Function *fa = b.createFunction("fa", 0);
    b.ret(b.constInt(1));
    Function *fb = b.createFunction("fb", 0);
    b.ret(b.constInt(2));
    Function *main = b.createFunction("main", 0);
    BasicBlock *odd = b.createBlock(main, "odd");
    BasicBlock *join = b.createBlock(main, "join");
    const Reg table = b.alloc(2);
    b.store(b.gep(table, 0), b.funcAddr(fa));
    b.store(b.gep(table, 1), b.funcAddr(fb));
    b.condBr(b.input(0), odd, join);
    b.setInsertPoint(odd);
    b.output(b.constInt(99));
    b.br(join);
    b.setInsertPoint(join);
    const Reg fp = b.load(b.gepDyn(table, b.input(0)));
    b.output(b.icall(fp, {}));
    // Two lock sites: the first always locks m1, the second locks m1
    // or m2 depending on the input (so the sites observably diverge).
    const Reg p1 = b.globalAddr(m1);
    b.lock(p1);
    b.unlock(p1);
    const Reg box = b.alloc(1);
    b.store(box, b.globalAddr(m1));
    BasicBlock *other = b.createBlock(main, "other");
    BasicBlock *after = b.createBlock(main, "after");
    b.condBr(b.input(0), other, after);
    b.setInsertPoint(other);
    b.store(box, b.globalAddr(m2));
    b.br(after);
    b.setInsertPoint(after);
    const Reg p2 = b.load(box);
    b.lock(p2);
    b.unlock(p2);
    // Spawn 1 + input workers from one site.
    BasicBlock *loop = b.createBlock(main, "loop");
    BasicBlock *body = b.createBlock(main, "body");
    BasicBlock *done = b.createBlock(main, "done");
    const Reg i = b.constInt(0);
    const Reg n = b.binop(ir::BinOpKind::Add, b.input(0), b.constInt(1));
    const Reg one = b.constInt(1);
    const Reg tbox = b.alloc(1);
    b.br(loop);
    b.setInsertPoint(loop);
    b.condBr(b.lt(i, n), body, done);
    b.setInsertPoint(body);
    b.store(tbox, b.spawn(worker, {}));
    b.join(b.load(tbox));
    b.binopTo(i, ir::BinOpKind::Add, i, one);
    b.br(loop);
    b.setInsertPoint(done);
    b.ret();
    prog.module.finalize();
}

/** Corpus covering both behaviours of the rich program. */
std::vector<exec::ExecConfig>
richCorpus()
{
    return {oneInput(0), oneInput(1)};
}

TEST(FaultInjector, EachInjectableFamilyTripsTheChecker)
{
    RichProgram prog;
    buildRich(prog);
    const auto corpus = richCorpus();

    for (ViolationFamily family :
         {ViolationFamily::UnreachableBlock, ViolationFamily::CalleeSet,
          ViolationFamily::MustAliasLock,
          ViolationFamily::SingletonSpawn}) {
        // Profile the whole corpus: with nothing unseen, the clean
        // invariant set never violates...
        inv::InvariantSet invariants = profiled(prog.module, corpus);
        ASSERT_EQ(firstViolation(prog.module, invariants, corpus).family,
                  ViolationFamily::None)
            << violationFamilyName(family);

        // ...and one injected fault of the requested family must trip
        // exactly that family on the same corpus.
        FaultInjectorOptions options;
        options.seed = 7;
        options.families = {family};
        const FaultInjector injector(prog.module, options);
        const auto applied = injector.inject(invariants, corpus);
        ASSERT_EQ(applied.size(), 1u) << violationFamilyName(family);
        EXPECT_EQ(applied[0].family, family);

        // Isolate the family under test: an injected callee-set or
        // lock fault must be caught by its own check, not masked by an
        // earlier family's checker hook.
        CheckerConfig checkerConfig;
        checkerConfig.unreachableCode =
            family == ViolationFamily::UnreachableBlock;
        const Violation tripped = firstViolation(
            prog.module, invariants, corpus, checkerConfig);
        EXPECT_EQ(tripped.family, family)
            << "injected " << applied[0].describe() << " but tripped "
            << tripped.describe();
    }
}

TEST(FaultInjector, SelectionIsSeedDeterministic)
{
    RichProgram prog;
    buildRich(prog);
    const auto corpus = richCorpus();

    auto applyWithSeed = [&](std::uint64_t seed) {
        inv::InvariantSet invariants = profiled(prog.module, corpus);
        FaultInjectorOptions options;
        options.seed = seed;
        const FaultInjector injector(prog.module, options);
        std::vector<std::string> described;
        for (const FaultInjection &f :
             injector.inject(invariants, corpus))
            described.push_back(f.describe());
        return described;
    };
    EXPECT_EQ(applyWithSeed(3), applyWithSeed(3));
    EXPECT_FALSE(applyWithSeed(3).empty());
}

TEST(FaultInjector, EnvSeedParsing)
{
    // Preserve any CI sweep seed for the other tests in this binary.
    const char *outer = std::getenv("OHA_FAULT_SEED");
    const std::string saved = outer ? outer : "";

    unsetenv("OHA_FAULT_SEED");
    EXPECT_EQ(faultSeedFromEnv(), 0u);
    setenv("OHA_FAULT_SEED", "42", 1);
    EXPECT_EQ(faultSeedFromEnv(), 42u);
    setenv("OHA_FAULT_SEED", "banana", 1);
    EXPECT_EQ(faultSeedFromEnv(), 0u);
    setenv("OHA_FAULT_SEED", "", 1);
    EXPECT_EQ(faultSeedFromEnv(), 0u);

    if (outer)
        setenv("OHA_FAULT_SEED", saved.c_str(), 1);
    else
        unsetenv("OHA_FAULT_SEED");
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
smallWorkload(const std::string &name)
{
    const auto &race = workloads::raceWorkloadNames();
    return std::find(race.begin(), race.end(), name) != race.end()
               ? workloads::makeRaceWorkload(name, 10, 6)
               : workloads::makeSliceWorkload(name, 10, 6);
}

/** The injector configuration runOptFt / runOptSlice use. */
FaultInjectorOptions
pipelineInjectorOptions(const workloads::Workload &workload,
                        std::uint64_t seed)
{
    FaultInjectorOptions options;
    options.seed = seed;
    if (!workload.race)
        options.families = {ViolationFamily::UnreachableBlock,
                            ViolationFamily::CalleeSet,
                            ViolationFamily::CallContext};
    return options;
}

/** The pipelines' observer with cached profile observations. */
prof::Observer
memoObserver(const workloads::Workload &workload, bool callContexts)
{
    prof::ProfileOptions options;
    options.callContexts = callContexts;
    return [module = workload.module, options](const exec::ExecConfig &in) {
        return prof::observeRunMemo(module, options, in);
    };
}

/** Empties the process-wide cache on entry and exit. */
struct CacheReset
{
    CacheReset() { analysis::resetAndersenCache(); }
    ~CacheReset() { analysis::resetAndersenCache(); }
};

TEST(FaultInjector, MemoBackedInjectionMatchesLive)
{
    const CacheReset reset;
    std::size_t injected = 0;
    for (const std::string &name : allWorkloadNames()) {
        const auto workload = smallWorkload(name);
        const inv::InvariantSet profiledSet = profiled(
            *workload.module, workload.profilingSet, !workload.race);
        for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
            const FaultInjector injector(
                *workload.module, pipelineInjectorOptions(workload, seed));
            inv::InvariantSet live = profiledSet;
            inv::InvariantSet memo = profiledSet;
            const auto liveFaults = injector.inject(live, workload.testingSet);
            const auto memoFaults = injector.inject(
                memo, workload.testingSet,
                memoObserver(workload, injector.wantsCallContexts()));
            const std::string where = name + " seed " + std::to_string(seed);
            EXPECT_EQ(liveFaults, memoFaults) << where;
            EXPECT_EQ(live, memo) << where;
            EXPECT_EQ(live.contextHashes, memo.contextHashes) << where;
            injected += liveFaults.size();
        }
    }
    EXPECT_GT(injected, 0u);
}

TEST(FaultInjector, RepeatOnFreshModulesIsServedFromTheObservationCache)
{
    for (const std::string &name : allWorkloadNames()) {
        const CacheReset reset;
        const auto first = smallWorkload(name);
        const FaultInjector injector(*first.module,
                                     pipelineInjectorOptions(first, 1));
        const bool contexts = injector.wantsCallContexts();
        inv::InvariantSet invariants =
            profiled(*first.module, first.profilingSet, contexts);
        const inv::InvariantSet profiledSet = invariants;
        const auto firstFaults = injector.inject(
            invariants, first.testingSet, memoObserver(first, contexts));

        // Same program and corpus, freshly built module objects.
        const auto again = smallWorkload(name);
        const FaultInjector repeat(*again.module,
                                   pipelineInjectorOptions(again, 1));
        inv::InvariantSet repeated = profiledSet;
        const auto before = service::SharedCache::instance().stats();
        const auto againFaults = repeat.inject(repeated, again.testingSet,
                                               memoObserver(again, contexts));
        const auto after = service::SharedCache::instance().stats();
        EXPECT_EQ(after.hits - before.hits, again.testingSet.size()) << name;
        EXPECT_EQ(after.misses, before.misses) << name;
        EXPECT_EQ(againFaults, firstFaults) << name;
        EXPECT_EQ(repeated, invariants) << name;
    }
}

/** The CI fault sweep (ci/run.sh faults) varies OHA_FAULT_SEED; the
 *  end-to-end soundness tests pick it up so every sweep point injects
 *  a different fault mix.  Seed 1 keeps plain runs deterministic. */
std::uint64_t
sweepSeed()
{
    const std::uint64_t env = faultSeedFromEnv();
    return env ? env : 1;
}

TEST(Violation, AbortMetadataMatchesTheCheckersViolation)
{
    RichProgram prog;
    buildRich(prog);
    // Profile input 0 only: input 1 trips likely-unreachable code.
    const auto invariants = profiled(prog.module, {oneInput(0)});

    InvariantChecker checker(prog.module, invariants, {});
    exec::Interpreter interp(prog.module, oneInput(1));
    checker.setControl(&interp);
    interp.attach(&checker, &checker.plan());
    const exec::RunResult result = interp.run();
    ASSERT_TRUE(checker.violated());

    // The run's abort reason and metadata and the checker's
    // structured record agree field by field.
    EXPECT_EQ(result.status, exec::RunResult::Status::Aborted);
    EXPECT_EQ(result.abortReason,
              "invariant violation: " + checker.violationReason());
    const exec::AbortMetadata meta = checker.violation().toAbortMetadata();
    EXPECT_EQ(meta, result.abortMeta);
    EXPECT_EQ(meta.kind,
              static_cast<std::uint32_t>(checker.violation().family));
}

TEST(FaultInjection, OptFtStaysSoundUnderInjection)
{
    const auto workload = workloads::makeRaceWorkload("raytracer", 10, 6);
    core::OptFtConfig config;
    config.faultSeed = sweepSeed();
    const auto result = core::runOptFt(workload, config);
    EXPECT_FALSE(result.injectedFaults.empty());
    EXPECT_GT(result.misSpeculations, 0u)
        << "every injected fault is corpus-reachable by construction";
    EXPECT_TRUE(result.raceReportsMatch)
        << "recovery must restore the sound reports";
}

TEST(FaultInjection, OptFtInjectionParityAcrossThreadsAndSeeds)
{
    const auto workload = workloads::makeRaceWorkload("pmd", 8, 6);
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        core::OptFtConfig serial, parallel;
        serial.faultSeed = parallel.faultSeed = seed;
        serial.threads = 1;
        parallel.threads = 4;
        const auto a = core::runOptFt(workload, serial);
        const auto b = core::runOptFt(workload, parallel);
        EXPECT_TRUE(a.raceReportsMatch) << "seed " << seed;
        EXPECT_EQ(a.injectedFaults.size(), b.injectedFaults.size())
            << "seed " << seed;
        EXPECT_EQ(a.misSpeculations, b.misSpeculations)
            << "seed " << seed;
        EXPECT_EQ(a.demotions, b.demotions) << "seed " << seed;
        EXPECT_EQ(a.raceReportsMatch, b.raceReportsMatch)
            << "seed " << seed;
    }
}

TEST(FaultInjection, OptFtFullFastTrackFiguresEqualStandaloneFullRuns)
{
    // runOptFt prices full FastTrack from the hybrid run's totalEvents
    // and counts racesObserved from the hybrid races.  Both must equal
    // the figures of standalone full-plan runs, clean and at seed 7,
    // whose rollbacks drive the golden table's recovery rows.
    const core::CostModel cost;
    for (const std::string &name : workloads::raceWorkloadNames()) {
        const auto workload = workloads::makeRaceWorkload(name, 8, 4);
        const ir::Module &module = *workload.module;
        const auto fullPlan = fullFastTrackPlan(module);
        core::RunCost expected;
        std::set<std::pair<InstrId, InstrId>> races;
        for (const exec::ExecConfig &input : workload.testingSet) {
            FastTrack tool;
            exec::Interpreter run(module, input);
            run.attach(&tool, &fullPlan);
            const exec::RunResult result = run.run();
            expected.add(
                core::priceFastTrackRun(cost, result, result.delivered[0]));
            const auto pairs = tool.racePairs();
            races.insert(pairs.begin(), pairs.end());
        }
        for (const std::uint64_t seed :
             {std::uint64_t{0}, std::uint64_t{7}, sweepSeed()}) {
            core::OptFtConfig config;
            config.faultSeed = seed;
            const auto result = core::runOptFt(workload, config);
            const std::string label = name + " seed " + std::to_string(seed);
            core::expectEqual(result.fastTrack, expected, label);
            EXPECT_EQ(result.racesObserved, races.size()) << label;
            EXPECT_TRUE(result.raceReportsMatch) << label;
        }
    }
}

TEST(FaultInjection, OptSliceStaysSoundUnderInjection)
{
    const auto workload = workloads::makeSliceWorkload("perl", 10, 5);
    core::OptSliceConfig config;
    config.faultSeed = sweepSeed();
    const auto result = core::runOptSlice(workload, config);
    EXPECT_FALSE(result.injectedFaults.empty());
    EXPECT_GT(result.misSpeculations, 0u);
    EXPECT_TRUE(result.sliceResultsMatch)
        << "recovery must restore the hybrid slices";
}

} // namespace
} // namespace oha::dyn
