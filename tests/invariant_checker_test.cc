/**
 * @file
 * Tests for the runtime invariant checker: every invariant family's
 * violation path, the exact call-context probe and its confirmed
 * bits, and the zero-false-negative property of the checks
 * (Section 2.3).
 */

#include <gtest/gtest.h>

#include <map>

#include "dyn/invariant_checker.h"
#include "ir/builder.h"
#include "profile/profiler.h"

namespace oha::dyn {
namespace {

using ir::BasicBlock;
using ir::Function;
using ir::IRBuilder;
using ir::Module;
using ir::Reg;

struct CheckOutcome
{
    bool violated;
    std::string reason;
    exec::RunResult::Status status;
};

CheckOutcome
runChecked(const ir::Module &module, const inv::InvariantSet &invariants,
           const exec::ExecConfig &config, CheckerConfig checkerConfig = {})
{
    InvariantChecker checker(module, invariants, checkerConfig);
    exec::Interpreter interp(module, config);
    checker.setControl(&interp);
    interp.attach(&checker, &checker.plan());
    const auto result = interp.run();
    return {checker.violated(), checker.violationReason(), result.status};
}

/** Profile a module over inputs and return the merged invariants. */
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

exec::ExecConfig
oneInput(std::int64_t v)
{
    exec::ExecConfig config;
    config.input = {v};
    return config;
}

TEST(InvariantChecker, LucViolationAbortsBeforeTheColdCode)
{
    Module module;
    IRBuilder b(module);
    Function *main = b.createFunction("main", 0);
    BasicBlock *cold = b.createBlock(main, "cold");
    BasicBlock *done = b.createBlock(main, "done");
    b.condBr(b.input(0), cold, done);
    b.setInsertPoint(cold);
    b.output(b.constInt(13)); // must never be reached optimistically
    b.br(done);
    b.setInsertPoint(done);
    b.ret();
    module.finalize();

    const auto inv = profiled(module, {oneInput(0)});
    const auto ok = runChecked(module, inv, oneInput(0));
    EXPECT_FALSE(ok.violated);
    EXPECT_EQ(ok.status, exec::RunResult::Status::Finished);

    const auto bad = runChecked(module, inv, oneInput(1));
    EXPECT_TRUE(bad.violated);
    EXPECT_EQ(bad.status, exec::RunResult::Status::Aborted);
    EXPECT_NE(bad.reason.find("unreachable"), std::string::npos);
}

struct IcallProgram
{
    Module module;
};

void
buildIcall(IcallProgram &prog)
{
    IRBuilder b(prog.module);
    Function *fa = b.createFunction("fa", 0);
    b.ret(b.constInt(1));
    Function *fb = b.createFunction("fb", 0);
    b.ret(b.constInt(2));
    b.createFunction("main", 0);
    const Reg table = b.alloc(2);
    b.store(b.gep(table, 0), b.funcAddr(fa));
    b.store(b.gep(table, 1), b.funcAddr(fb));
    const Reg fp = b.load(b.gepDyn(table, b.input(0)));
    b.output(b.icall(fp, {}));
    b.ret();
    prog.module.finalize();
}

TEST(InvariantChecker, CalleeSetViolationOnNewTarget)
{
    IcallProgram prog;
    buildIcall(prog);
    const auto inv = profiled(prog.module, {oneInput(0)});

    EXPECT_FALSE(runChecked(prog.module, inv, oneInput(0)).violated);
    // Disable the LUC check: the unprofiled callee's entry block
    // would otherwise trip first (a correct, earlier detection of the
    // same mis-speculation).
    CheckerConfig config;
    config.unreachableCode = false;
    const auto bad = runChecked(prog.module, inv, oneInput(1), config);
    EXPECT_TRUE(bad.violated);
    EXPECT_NE(bad.reason.find("indirect-call"), std::string::npos);

    // With LUC enabled, the block check catches it even earlier.
    const auto lucFirst = runChecked(prog.module, inv, oneInput(1));
    EXPECT_TRUE(lucFirst.violated);
    EXPECT_NE(lucFirst.reason.find("unreachable"), std::string::npos);
}

TEST(InvariantChecker, CalleeSetCheckIgnoredWhenDisabled)
{
    IcallProgram prog;
    buildIcall(prog);
    const auto inv = profiled(prog.module, {oneInput(0)});
    CheckerConfig config;
    config.calleeSets = false;
    config.unreachableCode = false;
    EXPECT_FALSE(runChecked(prog.module, inv, oneInput(1), config)
                     .violated);
}

TEST(InvariantChecker, ContextViolationOnNovelCallChain)
{
    // Recursion depth controlled by input: deeper-than-profiled
    // recursion creates unobserved contexts.
    Module module;
    IRBuilder b(module);
    Function *rec = b.createFunction("rec", 1);
    {
        Function *f = rec;
        BasicBlock *more = b.createBlock(f, "more");
        BasicBlock *leaf = b.createBlock(f, "leaf");
        b.condBr(b.binop(ir::BinOpKind::Gt, 0, b.constInt(0)), more,
                 leaf);
        b.setInsertPoint(more);
        b.ret(b.call(rec, {b.sub(0, b.constInt(1))}));
        b.setInsertPoint(leaf);
        b.ret(b.constInt(0));
    }
    b.createFunction("main", 0);
    b.call(rec, {b.input(0)});
    b.ret();
    module.finalize();

    const auto inv =
        profiled(module, {oneInput(2), oneInput(3)}, /*contexts=*/true);
    CheckerConfig config;
    config.callContexts = true;
    config.unreachableCode = false; // isolate the context check

    EXPECT_FALSE(runChecked(module, inv, oneInput(3), config).violated);
    const auto bad = runChecked(module, inv, oneInput(5), config);
    EXPECT_TRUE(bad.violated);
    EXPECT_NE(bad.reason.find("call context"), std::string::npos);
}

TEST(InvariantChecker, ForgottenChainViolatesAtItsOwnDepth)
{
    // main -> a -> b -> c.  Forgetting [main>a, a>b] while its
    // extension [main>a, a>b, b>c] stays present (as the fault
    // injector does) must trip at the forgotten depth, with that
    // chain, not at the call below it.
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
    Function *main = b.createFunction("main", 0);
    b.call(a, {});
    b.ret();
    module.finalize();
    std::map<FuncId, InstrId> callIn;
    for (InstrId id = 0; id < module.numInstrs(); ++id)
        if (module.instr(id).op == ir::Opcode::Call)
            callIn[module.instr(id).func] = id;
    const inv::CallContext forgotten = {callIn.at(main->id()),
                                        callIn.at(a->id())};
    inv::CallContext deepest = forgotten;
    deepest.push_back(callIn.at(bf->id()));

    inv::InvariantSet inv = profiled(module, {{}}, /*contexts=*/true);
    ASSERT_EQ(inv.callContexts.size(), 3u);
    CheckerConfig config;
    config.callContexts = true;
    EXPECT_FALSE(runChecked(module, inv, {}, config).violated);

    ASSERT_TRUE(inv.callContexts.erase(forgotten));
    ASSERT_TRUE(inv.callContexts.contains(deepest));
    {
        InvariantChecker checker(module, inv, config);
        exec::Interpreter interp(module, {});
        checker.setControl(&interp);
        interp.attach(&checker, &checker.plan());
        EXPECT_FALSE(interp.run().finished());
        ASSERT_TRUE(checker.violated());
        const Violation &v = checker.violation();
        EXPECT_EQ(v.family, ViolationFamily::CallContext);
        EXPECT_EQ(v.site, forgotten.back());
        EXPECT_EQ(v.contextChain, forgotten);
        EXPECT_EQ(v.observed, inv::contextHash(forgotten));
    }
    {
        // Without a control the run goes on: the present extension is
        // still confirmed below the forgotten frame.
        InvariantChecker checker(module, inv, config);
        exec::Interpreter interp(module, {});
        interp.attach(&checker, &checker.plan());
        EXPECT_TRUE(interp.run().finished());
        EXPECT_EQ(checker.violation().contextChain, forgotten);
        EXPECT_EQ(checker.slowContextChecks(), 2u)
            << "[main>a] and the extension";
    }
}

TEST(InvariantChecker, DeepRecursionBeyondCapNeverMisspeculates)
{
    // Recursion far past inv::kMaxContextDepth: the profiler stops
    // recording contexts at the cap and the checker must exempt them
    // at the same cap.  If the two depth limits ever diverged, the
    // replayed (or deeper) run would trip "unobserved call context"
    // on stacks the profiler never had a chance to record.
    Module module;
    IRBuilder b(module);
    Function *rec = b.createFunction("rec", 1);
    {
        Function *f = rec;
        BasicBlock *more = b.createBlock(f, "more");
        BasicBlock *leaf = b.createBlock(f, "leaf");
        b.condBr(b.binop(ir::BinOpKind::Gt, 0, b.constInt(0)), more,
                 leaf);
        b.setInsertPoint(more);
        b.ret(b.call(rec, {b.sub(0, b.constInt(1))}));
        b.setInsertPoint(leaf);
        b.ret(b.constInt(0));
    }
    b.createFunction("main", 0);
    b.call(rec, {b.input(0)});
    b.ret();
    module.finalize();

    const std::int64_t depth =
        static_cast<std::int64_t>(inv::kMaxContextDepth) + 6;
    const auto inv = profiled(module, {oneInput(depth)}, /*contexts=*/true);
    CheckerConfig config;
    config.callContexts = true;
    config.unreachableCode = false; // isolate the context check

    // Replaying the profiled input is clean...
    EXPECT_FALSE(runChecked(module, inv, oneInput(depth), config).violated);
    // ...and so is recursing even deeper: every frame past the cap is
    // exempt, and the frames within the cap match the profiled ones.
    EXPECT_FALSE(
        runChecked(module, inv, oneInput(depth + 20), config).violated);
}

TEST(InvariantChecker, ContextFastPathElidesExactChecks)
{
    // Repeated identical contexts must hit the confirmed cache: the
    // number of slow (exact-set) probes is bounded by the number of
    // distinct contexts, not by the number of calls.
    Module module;
    IRBuilder b(module);
    Function *leaf = b.createFunction("leaf", 0);
    b.ret(b.constInt(1));
    Function *main = b.createFunction("main", 0);
    BasicBlock *loop = b.createBlock(main, "loop");
    BasicBlock *body = b.createBlock(main, "body");
    BasicBlock *done = b.createBlock(main, "done");
    const Reg i = b.constInt(0);
    const Reg n = b.constInt(50);
    const Reg one = b.constInt(1);
    b.br(loop);
    b.setInsertPoint(loop);
    b.condBr(b.lt(i, n), body, done);
    b.setInsertPoint(body);
    b.call(leaf, {});
    b.binopTo(i, ir::BinOpKind::Add, i, one);
    b.br(loop);
    b.setInsertPoint(done);
    b.ret();
    module.finalize();

    const auto inv = profiled(module, {{}}, /*contexts=*/true);
    CheckerConfig config;
    config.callContexts = true;
    InvariantChecker checker(module, inv, config);
    exec::Interpreter interp(module, {});
    checker.setControl(&interp);
    interp.attach(&checker, &checker.plan());
    ASSERT_TRUE(interp.run().finished());
    EXPECT_FALSE(checker.violated());
    EXPECT_LE(checker.slowContextChecks(), 2u)
        << "50 identical call contexts must not take 50 slow probes";
}

struct LockProgram
{
    Module module;
    InstrId site1 = kNoInstr, site2 = kNoInstr;
};

void
buildLocks(LockProgram &prog)
{
    IRBuilder b(prog.module);
    const auto m1 = prog.module.addGlobal("m1", 1);
    const auto m2 = prog.module.addGlobal("m2", 1);
    b.createFunction("main", 0);
    const Reg p1 = b.globalAddr(m1);
    b.lock(p1);
    b.unlock(p1);
    const Reg box = b.alloc(1);
    b.store(box, b.globalAddr(m1));
    Function *main = b.currentFunction();
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
    b.ret();
    prog.module.finalize();
    for (InstrId id = 0; id < prog.module.numInstrs(); ++id) {
        if (prog.module.instr(id).op == ir::Opcode::Lock) {
            if (prog.site1 == kNoInstr)
                prog.site1 = id;
            else
                prog.site2 = id;
        }
    }
}

TEST(InvariantChecker, LockAliasViolationWhenPairDiverges)
{
    LockProgram prog;
    buildLocks(prog);
    const auto inv = profiled(prog.module, {oneInput(0)});
    ASSERT_TRUE(inv.locksMustAlias(prog.site1, prog.site2));

    EXPECT_FALSE(runChecked(prog.module, inv, oneInput(0)).violated);
    CheckerConfig config;
    config.unreachableCode = false; // the branch also trips LUC
    const auto bad = runChecked(prog.module, inv, oneInput(1), config);
    EXPECT_TRUE(bad.violated);
    EXPECT_NE(bad.reason.find("lock"), std::string::npos);
}

TEST(InvariantChecker, SingletonSpawnViolationOnSecondThread)
{
    Module module;
    IRBuilder b(module);
    Function *worker = b.createFunction("worker", 0);
    b.ret(b.constInt(0));
    Function *main = b.createFunction("main", 0);
    BasicBlock *loop = b.createBlock(main, "loop");
    BasicBlock *body = b.createBlock(main, "body");
    BasicBlock *done = b.createBlock(main, "done");
    const Reg i = b.constInt(0);
    const Reg one = b.constInt(1);
    const Reg n = b.input(0);
    const Reg box = b.alloc(1);
    b.br(loop);
    b.setInsertPoint(loop);
    b.condBr(b.lt(i, n), body, done);
    b.setInsertPoint(body);
    b.store(box, b.spawn(worker, {}));
    b.join(b.load(box));
    b.binopTo(i, ir::BinOpKind::Add, i, one);
    b.br(loop);
    b.setInsertPoint(done);
    b.ret();
    module.finalize();

    const auto inv = profiled(module, {oneInput(1)});
    ASSERT_EQ(inv.singletonSpawnSites.size(), 1u);

    EXPECT_FALSE(runChecked(module, inv, oneInput(1)).violated);
    const auto bad = runChecked(module, inv, oneInput(2));
    EXPECT_TRUE(bad.violated);
    EXPECT_NE(bad.reason.find("singleton"), std::string::npos);
}

TEST(InvariantChecker, PlanCoversOnlyCheckSites)
{
    IcallProgram prog;
    buildIcall(prog);
    const auto inv = profiled(prog.module, {oneInput(0)});
    InvariantChecker checker(prog.module, inv, {});
    // Exactly the icall site is instruction-instrumented; only
    // unvisited blocks are block-instrumented.
    std::uint64_t instrSites = checker.plan().numInstrSites();
    EXPECT_EQ(instrSites, 1u);
    for (BlockId blk = 0; blk < prog.module.numBlocks(); ++blk) {
        EXPECT_EQ(checker.plan().coversBlock(blk),
                  !inv.blockVisited(blk));
    }
}

TEST(InvariantChecker, NoViolationMeansNoAbortEver)
{
    // Property: replaying any profiled input can never violate.
    IcallProgram prog;
    buildIcall(prog);
    const auto inv =
        profiled(prog.module, {oneInput(0), oneInput(1)});
    for (std::int64_t v : {0, 1}) {
        const auto outcome = runChecked(prog.module, inv, oneInput(v));
        EXPECT_FALSE(outcome.violated) << "input " << v;
    }
}

} // namespace
} // namespace oha::dyn
