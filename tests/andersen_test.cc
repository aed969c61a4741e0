/**
 * @file
 * Tests for the Andersen points-to analysis: basic inclusion
 * constraints, field sensitivity, indirect calls, context-sensitive
 * heap cloning (Figure 3), and the predicated (invariant-assuming)
 * variants.
 */

#include <gtest/gtest.h>

#include "analysis/andersen.h"
#include "ir/builder.h"

namespace oha::analysis {
namespace {

using ir::BasicBlock;
using ir::Function;
using ir::IRBuilder;
using ir::Module;
using ir::Opcode;
using ir::Reg;

/** Find the i-th instruction with opcode @p op. */
InstrId
nthInstr(const Module &module, Opcode op, int index = 0)
{
    for (InstrId id = 0; id < module.numInstrs(); ++id) {
        if (module.instr(id).op == op && index-- == 0)
            return id;
    }
    OHA_PANIC("instruction not found");
}

TEST(Andersen, DistinctAllocSitesDoNotAlias)
{
    Module module;
    IRBuilder b(module);
    Function *main = b.createFunction("main", 0);
    const Reg p = b.alloc(1);
    const Reg q = b.alloc(1);
    const Reg r = b.assign(p);
    b.ret();
    module.finalize();

    const AndersenResult result = runAndersen(module, {});
    ASSERT_TRUE(result.completed);
    const FuncId f = main->id();
    EXPECT_EQ(result.pts(f, p).size(), 1u);
    EXPECT_EQ(result.pts(f, q).size(), 1u);
    EXPECT_FALSE(result.pts(f, p).intersects(result.pts(f, q)));
    EXPECT_TRUE(result.pts(f, r) == result.pts(f, p));
}

TEST(Andersen, LoadStoreFlowsThroughMemory)
{
    Module module;
    IRBuilder b(module);
    Function *main = b.createFunction("main", 0);
    const Reg box = b.alloc(1);   // box holding a pointer
    const Reg target = b.alloc(1);
    b.store(box, target);          // *box = target
    const Reg loaded = b.load(box);
    b.ret();
    module.finalize();

    const AndersenResult result = runAndersen(module, {});
    ASSERT_TRUE(result.completed);
    const FuncId f = main->id();
    EXPECT_TRUE(result.pts(f, loaded) == result.pts(f, target));
}

TEST(Andersen, FieldSensitivityDistinguishesCells)
{
    Module module;
    IRBuilder b(module);
    Function *main = b.createFunction("main", 0);
    const Reg obj = b.alloc(3);
    const Reg a = b.alloc(1);
    const Reg c = b.alloc(1);
    b.store(b.gep(obj, 0), a); // obj[0] = a
    b.store(b.gep(obj, 2), c); // obj[2] = c
    const Reg la = b.load(b.gep(obj, 0));
    const Reg lc = b.load(b.gep(obj, 2));
    b.ret();
    module.finalize();

    const AndersenResult result = runAndersen(module, {});
    const FuncId f = main->id();
    EXPECT_TRUE(result.pts(f, la) == result.pts(f, a));
    EXPECT_TRUE(result.pts(f, lc) == result.pts(f, c));
    EXPECT_FALSE(result.pts(f, la).intersects(result.pts(f, lc)));
}

TEST(Andersen, VariableGepCollapsesFields)
{
    Module module;
    IRBuilder b(module);
    Function *main = b.createFunction("main", 0);
    const Reg obj = b.alloc(2);
    const Reg a = b.alloc(1);
    b.store(b.gep(obj, 1), a);
    const Reg idx = b.input(0);
    const Reg any = b.load(b.gepDyn(obj, idx)); // may read either field
    b.ret();
    module.finalize();

    const AndersenResult result = runAndersen(module, {});
    const FuncId f = main->id();
    // The variable-index load may observe the pointer stored at
    // field 1.
    EXPECT_TRUE(result.pts(f, any).intersects(result.pts(f, a)));
}

TEST(Andersen, GlobalsFlowBetweenFunctions)
{
    Module module;
    const auto g = module.addGlobal("g", 1);
    IRBuilder b(module);

    Function *setter = b.createFunction("setter", 0);
    const Reg obj = b.alloc(1);
    b.store(b.globalAddr(g), obj);
    b.ret();

    Function *main = b.createFunction("main", 0);
    b.call(setter, {});
    const Reg got = b.load(b.globalAddr(g));
    b.ret();
    module.finalize();

    const AndersenResult result = runAndersen(module, {});
    EXPECT_TRUE(result.pts(main->id(), got) ==
                result.pts(setter->id(), obj));
    EXPECT_EQ(result.pts(main->id(), got).size(), 1u);
}

TEST(Andersen, CallParamAndReturnFlow)
{
    Module module;
    IRBuilder b(module);
    Function *identity = b.createFunction("identity", 1);
    b.ret(0);
    Function *main = b.createFunction("main", 0);
    const Reg p = b.alloc(1);
    const Reg r = b.call(identity, {p});
    b.ret();
    module.finalize();

    const AndersenResult result = runAndersen(module, {});
    EXPECT_TRUE(result.pts(main->id(), r) == result.pts(main->id(), p));
    EXPECT_TRUE(result.pts(identity->id(), 0) ==
                result.pts(main->id(), p));
}

TEST(Andersen, SoundIcallResolvedOnTheFly)
{
    Module module;
    IRBuilder b(module);
    Function *callee = b.createFunction("callee", 1);
    const Reg param = 0;
    b.ret(param);
    Function *main = b.createFunction("main", 0);
    const Reg fp = b.funcAddr(callee);
    const Reg arg = b.alloc(1);
    const Reg r = b.icall(fp, {arg});
    b.ret();
    module.finalize();

    const AndersenResult result = runAndersen(module, {});
    const InstrId icall = nthInstr(module, Opcode::ICall);
    const auto targets = result.icallTargets(icall);
    ASSERT_EQ(targets.size(), 1u);
    EXPECT_EQ(*targets.begin(), callee->id());
    EXPECT_TRUE(result.pts(callee->id(), param) ==
                result.pts(main->id(), arg));
    EXPECT_TRUE(result.pts(main->id(), r) == result.pts(main->id(), arg));
}

/** The Figure 3 program: main calls a malloc wrapper twice. */
struct WrapperProgram
{
    Module module;
    Reg a = 0, b = 0;
    FuncId mainId = 0;
};

void
buildWrapperProgram(WrapperProgram &prog)
{
    IRBuilder b(prog.module);
    Function *myMalloc = b.createFunction("my_malloc", 0);
    b.ret(b.alloc(1));
    Function *main = b.createFunction("main", 0);
    prog.a = b.call(myMalloc, {});
    prog.b = b.call(myMalloc, {});
    b.ret();
    prog.mainId = main->id();
    prog.module.finalize();
}

TEST(Andersen, ContextInsensitiveMergesWrapperResults)
{
    WrapperProgram prog;
    buildWrapperProgram(prog);
    const AndersenResult result = runAndersen(prog.module, {});
    // One abstract heap object for the single alloc site: both
    // results alias.
    EXPECT_TRUE(result.pts(prog.mainId, prog.a)
                    .intersects(result.pts(prog.mainId, prog.b)));
}

TEST(Andersen, ContextSensitiveHeapCloningSeparatesWrapperResults)
{
    WrapperProgram prog;
    buildWrapperProgram(prog);
    AndersenOptions options;
    options.contextSensitive = true;
    const AndersenResult result = runAndersen(prog.module, options);
    ASSERT_TRUE(result.completed);
    // Heap cloning gives each call chain its own abstract object.
    const std::uint32_t mainCtx =
        result.instancesOf(prog.mainId).front();
    EXPECT_FALSE(result.pts(mainCtx, prog.a)
                     .intersects(result.pts(mainCtx, prog.b)));
}

TEST(Andersen, RecursionDoesNotExplodeContexts)
{
    Module module;
    IRBuilder b(module);
    Function *rec = b.createFunction("rec", 1);
    {
        BasicBlock *again = b.createBlock(rec, "again");
        BasicBlock *done = b.createBlock(rec, "done");
        b.condBr(0, again, done);
        b.setInsertPoint(again);
        b.call(rec, {0});
        b.br(done);
        b.setInsertPoint(done);
        b.ret();
    }
    b.createFunction("main", 0);
    b.call(rec, {b.constInt(3)});
    b.ret();
    module.finalize();

    AndersenOptions options;
    options.contextSensitive = true;
    const AndersenResult result = runAndersen(module, options);
    ASSERT_TRUE(result.completed);
    // main + one rec instance (self-call folds back) at most a couple
    // of instances; certainly no blowup.
    EXPECT_LE(result.contexts.size(), 4u);
}

TEST(Andersen, ContextBudgetAbortsCleanly)
{
    // A call tree with fan-out 4 and depth 8 = ~87k contexts.
    Module module;
    IRBuilder b(module);
    std::vector<Function *> layers;
    Function *leaf = b.createFunction("leaf", 0);
    b.ret(b.alloc(1));
    Function *prev = leaf;
    for (int depth = 0; depth < 8; ++depth) {
        Function *f =
            b.createFunction("layer" + std::to_string(depth), 0);
        for (int i = 0; i < 4; ++i)
            b.call(prev, {});
        b.ret();
        prev = f;
    }
    b.createFunction("main", 0);
    b.call(prev, {});
    b.ret();
    module.finalize();

    AndersenOptions options;
    options.contextSensitive = true;
    options.maxContexts = 1000;
    const AndersenResult result = runAndersen(module, options);
    EXPECT_FALSE(result.completed);
}

TEST(Andersen, PredicatedLucPrunesDeadStore)
{
    Module module;
    IRBuilder b(module);
    Function *main = b.createFunction("main", 0);
    BasicBlock *cold = b.createBlock(main, "cold");
    BasicBlock *done = b.createBlock(main, "done");

    const Reg box = b.alloc(1);
    const Reg secret = b.alloc(1);
    const Reg cond = b.input(0);
    b.condBr(cond, cold, done);
    b.setInsertPoint(cold);
    b.store(box, secret); // only reached on unusual inputs
    b.br(done);
    b.setInsertPoint(done);
    const Reg loaded = b.load(box);
    b.ret();
    module.finalize();

    // Sound analysis: loaded may be secret.
    const AndersenResult sound = runAndersen(module, {});
    EXPECT_TRUE(sound.pts(main->id(), loaded)
                    .intersects(sound.pts(main->id(), secret)));

    // Invariants that never saw the cold block.
    inv::InvariantSet invariants;
    invariants.numBlocks = static_cast<std::uint32_t>(module.numBlocks());
    for (const auto &block : main->blocks())
        invariants.visitedBlocks.insert(block->id());
    invariants.visitedBlocks.erase(cold->id());

    AndersenOptions options;
    options.invariants = &invariants;
    const AndersenResult optimistic = runAndersen(module, options);
    EXPECT_FALSE(optimistic.pts(main->id(), loaded)
                     .intersects(optimistic.pts(main->id(), secret)));
}

TEST(Andersen, PredicatedCalleeSetsNarrowIcall)
{
    Module module;
    IRBuilder b(module);
    Function *red = b.createFunction("red", 0);
    b.ret(b.alloc(1));
    Function *blue = b.createFunction("blue", 0);
    b.ret(b.alloc(1));
    Function *main = b.createFunction("main", 0);
    const Reg table = b.alloc(2);
    b.store(b.gep(table, 0), b.funcAddr(red));
    b.store(b.gep(table, 1), b.funcAddr(blue));
    const Reg idx = b.input(0);
    const Reg fp = b.load(b.gepDyn(table, idx));
    const Reg r = b.icall(fp, {});
    b.ret();
    module.finalize();

    const InstrId icall = nthInstr(module, Opcode::ICall);

    const AndersenResult sound = runAndersen(module, {});
    EXPECT_EQ(sound.icallTargets(icall).size(), 2u);
    EXPECT_EQ(sound.pts(main->id(), r).size(), 2u);

    inv::InvariantSet invariants;
    invariants.numBlocks = static_cast<std::uint32_t>(module.numBlocks());
    for (BlockId blk = 0; blk < module.numBlocks(); ++blk)
        invariants.visitedBlocks.insert(blk);
    invariants.calleeSets[icall] = {red->id()};

    AndersenOptions options;
    options.invariants = &invariants;
    const AndersenResult optimistic = runAndersen(module, options);
    EXPECT_EQ(optimistic.pts(main->id(), r).size(), 1u);
}

TEST(Andersen, PredicatedContextPruningShrinksCsAnalysis)
{
    WrapperProgram prog;
    buildWrapperProgram(prog);

    // Only the first call to my_malloc was ever observed.
    const InstrId firstCall = nthInstr(prog.module, Opcode::Call, 0);
    inv::InvariantSet invariants;
    invariants.numBlocks =
        static_cast<std::uint32_t>(prog.module.numBlocks());
    for (BlockId blk = 0; blk < prog.module.numBlocks(); ++blk)
        invariants.visitedBlocks.insert(blk);
    invariants.hasCallContexts = true;
    invariants.callContexts.insert({firstCall});

    AndersenOptions options;
    options.contextSensitive = true;
    options.invariants = &invariants;
    const AndersenResult result = runAndersen(prog.module, options);
    ASSERT_TRUE(result.completed);

    // Only main + my_malloc@[firstCall] exist (Figure 3, right).
    EXPECT_EQ(result.contexts.size(), 2u);
    const std::uint32_t mainCtx =
        result.instancesOf(prog.mainId).front();
    EXPECT_EQ(result.pts(mainCtx, prog.a).size(), 1u);
    // The pruned second call contributes nothing.
    EXPECT_TRUE(result.pts(mainCtx, prog.b).empty());
}

TEST(Andersen, AliasRateDropsWithInvariants)
{
    Module module;
    IRBuilder b(module);
    Function *main = b.createFunction("main", 0);
    BasicBlock *cold = b.createBlock(main, "cold");
    BasicBlock *done = b.createBlock(main, "done");
    const Reg x = b.alloc(1);
    const Reg y = b.alloc(1);
    const Reg v = b.constInt(1);
    b.store(x, v);
    b.load(x);
    b.load(y);
    const Reg cond = b.input(0);
    b.condBr(cond, cold, done);
    b.setInsertPoint(cold);
    b.store(y, v);
    b.load(y);
    b.br(done);
    b.setInsertPoint(done);
    b.ret();
    module.finalize();

    const AndersenResult sound = runAndersen(module, {});
    inv::InvariantSet invariants;
    invariants.numBlocks = static_cast<std::uint32_t>(module.numBlocks());
    invariants.visitedBlocks.insert(main->entry()->id());
    invariants.visitedBlocks.insert(done->id());

    AndersenOptions options;
    options.invariants = &invariants;
    const AndersenResult optimistic = runAndersen(module, options);

    const double baseRate = sound.aliasRate(module, &invariants);
    const double optRate = optimistic.aliasRate(module, &invariants);
    EXPECT_LE(optRate, baseRate);
    EXPECT_GT(baseRate, 0.0);
}

TEST(Andersen, HvnAndCyclesPreserveResults)
{
    // A copy cycle through three registers plus a load/store web;
    // results must be identical with and without HVN/cycle collapse.
    Module module;
    IRBuilder b(module);
    Function *main = b.createFunction("main", 0);
    BasicBlock *loop = b.createBlock(main, "loop");
    BasicBlock *out = b.createBlock(main, "out");
    const Reg p = b.alloc(1);
    const Reg q = b.assign(p);
    const Reg r = b.assign(q);
    b.br(loop);
    b.setInsertPoint(loop);
    b.assignTo(p, r); // closes the copy cycle p -> q -> r -> p
    const Reg cond = b.input(0);
    b.condBr(cond, loop, out);
    b.setInsertPoint(out);
    const Reg box = b.alloc(1);
    b.store(box, r);
    const Reg got = b.load(box);
    b.ret();
    module.finalize();

    AndersenOptions plain;
    plain.useHvn = false;
    plain.cycleCollapse = false;
    AndersenOptions optimized;
    optimized.useHvn = true;
    optimized.cycleCollapse = true;

    const AndersenResult a = runAndersen(module, plain);
    const AndersenResult c = runAndersen(module, optimized);
    const FuncId f = main->id();
    for (Reg reg : {p, q, r, got}) {
        EXPECT_TRUE(a.pts(f, reg) == c.pts(f, reg))
            << "mismatch for r" << reg;
    }
    EXPECT_EQ(a.pts(f, got).size(), 1u);
}

TEST(Andersen, SpawnAndJoinFlow)
{
    Module module;
    IRBuilder b(module);
    Function *worker = b.createFunction("worker", 1);
    b.ret(0); // returns its pointer argument
    Function *main = b.createFunction("main", 0);
    const Reg p = b.alloc(1);
    const Reg h = b.spawn(worker, {p});
    const Reg j = b.join(h);
    b.ret();
    module.finalize();

    const AndersenResult result = runAndersen(module, {});
    EXPECT_TRUE(result.pts(worker->id(), 0) == result.pts(main->id(), p));
    EXPECT_TRUE(result.pts(main->id(), j) == result.pts(main->id(), p));
}

} // namespace
} // namespace oha::analysis
