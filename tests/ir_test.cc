/**
 * @file
 * Unit tests for the IR: builder, module finalization, printer,
 * verifier helpers and CFG reachability.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "ir/builder.h"
#include "ir/cfg.h"
#include "ir/printer.h"
#include "support/rng.h"
#include "workloads/workloads.h"

namespace oha::ir {
namespace {

TEST(IrBuilder, BuildsStraightLineFunction)
{
    Module module;
    IRBuilder builder(module);
    Function *main = builder.createFunction("main", 0);
    const Reg a = builder.constInt(2);
    const Reg b = builder.constInt(3);
    const Reg c = builder.add(a, b);
    builder.output(c);
    builder.ret();
    module.finalize();

    EXPECT_EQ(module.numFunctions(), 1u);
    EXPECT_EQ(module.entryFunction(), main);
    EXPECT_EQ(module.numInstrs(), 5u);
    EXPECT_EQ(module.numBlocks(), 1u);

    const Instruction &add = module.instr(2);
    EXPECT_EQ(add.op, Opcode::BinOp);
    EXPECT_EQ(add.func, main->id());
}

TEST(IrBuilder, RegistersAreFreshPerDef)
{
    Module module;
    IRBuilder builder(module);
    builder.createFunction("main", 0);
    const Reg a = builder.constInt(1);
    const Reg b = builder.constInt(2);
    EXPECT_NE(a, b);
    builder.ret();
    module.finalize();
}

TEST(IrModule, InstrIdsAreDenseAndResolvable)
{
    Module module;
    IRBuilder builder(module);
    Function *helper = builder.createFunction("helper", 1);
    builder.ret(0);
    builder.createFunction("main", 0);
    const Reg x = builder.constInt(10);
    builder.call(helper, {x});
    builder.ret();
    module.finalize();

    for (InstrId id = 0; id < module.numInstrs(); ++id)
        EXPECT_EQ(module.instr(id).id, id);
}

TEST(IrModule, FunctionLookupByName)
{
    Module module;
    IRBuilder builder(module);
    builder.createFunction("foo", 0);
    builder.ret();
    builder.createFunction("main", 0);
    builder.ret();
    module.finalize();

    EXPECT_NE(module.functionByName("foo"), nullptr);
    EXPECT_EQ(module.functionByName("bar"), nullptr);
}

TEST(IrModule, GlobalsGetSequentialIds)
{
    Module module;
    const std::uint32_t g0 = module.addGlobal("a", 4);
    const std::uint32_t g1 = module.addGlobal("b");
    EXPECT_EQ(g0, 0u);
    EXPECT_EQ(g1, 1u);
    IRBuilder builder(module);
    builder.createFunction("main", 0);
    builder.ret();
    module.finalize();
    EXPECT_EQ(module.globals()[0].size, 4u);
    EXPECT_EQ(module.globals()[1].size, 1u);
}

TEST(IrInstruction, UsedRegs)
{
    Instruction store;
    store.op = Opcode::Store;
    store.a = 3;
    store.b = 7;
    std::vector<Reg> uses;
    store.usedRegs(uses);
    EXPECT_EQ(uses, (std::vector<Reg>{3, 7}));

    Instruction icall;
    icall.op = Opcode::ICall;
    icall.a = 1;
    icall.args = {4, 5};
    icall.usedRegs(uses);
    EXPECT_EQ(uses, (std::vector<Reg>{1, 4, 5}));
}

TEST(IrInstruction, EvalBinOp)
{
    EXPECT_EQ(evalBinOp(BinOpKind::Add, 2, 3), 5);
    EXPECT_EQ(evalBinOp(BinOpKind::Div, 7, 0), 0);
    EXPECT_EQ(evalBinOp(BinOpKind::Mod, 7, 0), 0);
    EXPECT_EQ(evalBinOp(BinOpKind::Lt, 1, 2), 1);
    EXPECT_EQ(evalBinOp(BinOpKind::Ge, 1, 2), 0);
    EXPECT_EQ(evalBinOp(BinOpKind::Xor, 6, 3), 5);
}

TEST(IrInstruction, EvalBinOpWrapsAndNeverTraps)
{
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    // Add/Sub/Mul/Shl wrap modulo 2^64 like the unsigned machine ops.
    EXPECT_EQ(evalBinOp(BinOpKind::Add, kMax, 1), kMin);
    EXPECT_EQ(evalBinOp(BinOpKind::Sub, kMin, 1), kMax);
    EXPECT_EQ(evalBinOp(BinOpKind::Mul, kMax, kMax), 1);
    EXPECT_EQ(evalBinOp(BinOpKind::Mul, kMin, -1), kMin);
    EXPECT_EQ(evalBinOp(BinOpKind::Shl, -1, 63), kMin);
    EXPECT_EQ(evalBinOp(BinOpKind::Shl, 1, 64), 1); // amount is mod 64
    // The one signed quotient that does not fit: defined, not SIGFPE.
    EXPECT_EQ(evalBinOp(BinOpKind::Div, kMin, -1), kMin);
    EXPECT_EQ(evalBinOp(BinOpKind::Mod, kMin, -1), 0);
    EXPECT_EQ(evalBinOp(BinOpKind::Div, 7, -1), -7);
    EXPECT_EQ(evalBinOp(BinOpKind::Mod, 7, -1), 0);
    EXPECT_EQ(evalBinOp(BinOpKind::Div, -7, 2), -3);
    EXPECT_EQ(evalBinOp(BinOpKind::Mod, -7, 2), -1);
}

Module *
buildDiamond(Module &module, BasicBlock *&thenB, BasicBlock *&elseB,
             BasicBlock *&exitB)
{
    IRBuilder builder(module);
    Function *main = builder.createFunction("main", 0);
    thenB = builder.createBlock(main, "then");
    elseB = builder.createBlock(main, "else");
    exitB = builder.createBlock(main, "exit");

    const Reg cond = builder.input(0);
    builder.condBr(cond, thenB, elseB);
    builder.setInsertPoint(thenB);
    builder.br(exitB);
    builder.setInsertPoint(elseB);
    builder.br(exitB);
    builder.setInsertPoint(exitB);
    builder.ret();
    module.finalize();
    return &module;
}

TEST(Cfg, DiamondReachability)
{
    Module module;
    BasicBlock *thenB, *elseB, *exitB;
    buildDiamond(module, thenB, elseB, exitB);
    const Function &main = *module.entryFunction();
    Cfg cfg(main);

    const BlockId entry = main.entry()->id();
    EXPECT_TRUE(cfg.reaches(entry, exitB->id()));
    EXPECT_TRUE(cfg.reaches(thenB->id(), exitB->id()));
    EXPECT_FALSE(cfg.reaches(thenB->id(), elseB->id()));
    EXPECT_FALSE(cfg.reaches(exitB->id(), entry));
    EXPECT_FALSE(cfg.reaches(entry, entry)); // acyclic: not reflexive

    EXPECT_EQ(cfg.successors(entry).size(), 2u);
    EXPECT_EQ(cfg.predecessors(exitB->id()).size(), 2u);
    EXPECT_EQ(cfg.reachableFromEntry().size(), 4u);
}

TEST(Cfg, LoopIsSelfReaching)
{
    Module module;
    IRBuilder builder(module);
    Function *main = builder.createFunction("main", 0);
    BasicBlock *loop = builder.createBlock(main, "loop");
    BasicBlock *exit = builder.createBlock(main, "exit");

    builder.br(loop);
    builder.setInsertPoint(loop);
    const Reg cond = builder.input(0);
    builder.condBr(cond, loop, exit);
    builder.setInsertPoint(exit);
    builder.ret();
    module.finalize();

    Cfg cfg(*main);
    EXPECT_TRUE(cfg.reaches(loop->id(), loop->id()));
    const auto &body = loop->instructions();
    EXPECT_TRUE(cfg.mayPrecede(body[1], body[0]));
    EXPECT_FALSE(cfg.reaches(exit->id(), exit->id()));
}

TEST(Cfg, MayPrecedeWithinBlockRespectsOrder)
{
    Module module;
    IRBuilder builder(module);
    Function *main = builder.createFunction("main", 0);
    builder.constInt(1);
    builder.constInt(2);
    builder.ret();
    module.finalize();

    Cfg cfg(*main);
    const auto &entry = main->entry()->instructions();
    EXPECT_TRUE(cfg.mayPrecede(entry[0], entry[1]));
    EXPECT_FALSE(cfg.mayPrecede(entry[1], entry[0]));
}

TEST(Cfg, MatchesSearchOnRandomGraphs)
{
    // Random functions of up to 150 blocks (bit-matrix rows of several
    // words, loops, unreachable blocks) against plain graph searches:
    // reaches(a, b) is a search from a's successors, and for a block
    // b reachable from the entry, a dominates b when b is a, or when
    // the entry no longer reaches b once a is removed.  An unreachable
    // predecessor must not shrink b's dominator set.
    Rng rng(11);
    for (int trial = 0; trial < 40; ++trial) {
        Module module;
        IRBuilder builder(module);
        Function *main = builder.createFunction("main", 0);
        const std::size_t n = 1 + rng.below(150);
        std::vector<BasicBlock *> blocks{main->entry()};
        while (blocks.size() < n)
            blocks.push_back(builder.createBlock(main, "b"));
        for (BasicBlock *block : blocks) {
            builder.setInsertPoint(block);
            switch (rng.below(4)) {
              case 0:
                builder.ret();
                break;
              case 1:
                builder.br(blocks[rng.below(n)]);
                break;
              default:
                builder.condBr(builder.input(0), blocks[rng.below(n)],
                               blocks[rng.below(n)]);
            }
        }
        module.finalize();
        const Cfg &cfg = module.cfg(main->id());

        // Blocks (by position) reachable in one or more steps from the
        // successors of @p from, never entering @p removed.
        auto search = [&](std::size_t from, std::size_t removed) {
            std::vector<bool> seen(n);
            std::vector<std::size_t> work{from};
            while (!work.empty()) {
                const std::size_t cur = work.back();
                work.pop_back();
                for (BlockId succ : blocks[cur]->successors()) {
                    const std::size_t s = succ - blocks[0]->id();
                    if (s != removed && !seen[s]) {
                        seen[s] = true;
                        work.push_back(s);
                    }
                }
            }
            return seen;
        };
        std::vector<bool> live = search(0, n);
        live[0] = true;
        for (std::size_t a = 0; a < n; ++a) {
            const std::vector<bool> fromA = search(a, n);
            const std::vector<bool> withoutA = search(0, a);
            for (std::size_t b = 0; b < n; ++b) {
                const BlockId ia = blocks[a]->id(), ib = blocks[b]->id();
                ASSERT_EQ(cfg.reaches(ia, ib), fromA[b]) << a << "->" << b;
                if (live[b]) {
                    const bool avoidsA = b == 0 || withoutA[b];
                    ASSERT_EQ(cfg.dominates(ia, ib),
                              a == b || a == 0 || !avoidsA)
                        << a << " dom " << b;
                }
            }
        }
        EXPECT_EQ(cfg.reachableFromEntry().size(),
                  static_cast<std::size_t>(
                      std::count(live.begin(), live.end(), true)));
    }
}

TEST(Cfg, ModuleTableMatchesFreshCfgs)
{
    // Module::cfg() is built once at finalize(); every analysis reads
    // it in place of a CFG of its own, so it must answer exactly as a
    // freshly built Cfg over every block pair of every workload.
    std::vector<workloads::Workload> all;
    for (const std::string &name : workloads::raceWorkloadNames())
        all.push_back(workloads::makeRaceWorkload(name, 1, 1));
    for (const std::string &name : workloads::sliceWorkloadNames())
        all.push_back(workloads::makeSliceWorkload(name, 1, 1));
    ASSERT_EQ(all.size(), 21u);
    for (const workloads::Workload &workload : all) {
        const Module &module = *workload.module;
        for (const auto &func : module.functions()) {
            const Cfg &shared = module.cfg(func->id());
            const Cfg fresh(*func);
            EXPECT_TRUE(shared.reachableFromEntry() ==
                        fresh.reachableFromEntry());
            for (const auto &from : func->blocks()) {
                EXPECT_EQ(shared.successors(from->id()),
                          fresh.successors(from->id()));
                EXPECT_EQ(shared.predecessors(from->id()),
                          fresh.predecessors(from->id()));
                for (const auto &to : func->blocks()) {
                    ASSERT_EQ(shared.reaches(from->id(), to->id()),
                              fresh.reaches(from->id(), to->id()))
                        << workload.name << " " << func->name();
                    ASSERT_EQ(shared.dominates(from->id(), to->id()),
                              fresh.dominates(from->id(), to->id()))
                        << workload.name << " " << func->name();
                }
            }
        }
    }
}

TEST(IrPrinter, PrintsRecognizableText)
{
    Module module;
    module.addGlobal("counter", 2);
    IRBuilder builder(module);
    Function *main = builder.createFunction("main", 0);
    const Reg g = builder.globalAddr(0);
    const Reg v = builder.constInt(41);
    builder.store(g, v);
    const Reg loaded = builder.load(g);
    builder.output(loaded);
    builder.ret();
    module.finalize();

    const std::string text = printModule(module);
    EXPECT_NE(text.find("global counter[2]"), std::string::npos);
    EXPECT_NE(text.find("func main()"), std::string::npos);
    EXPECT_NE(text.find("&counter"), std::string::npos);
    EXPECT_NE(text.find("output"), std::string::npos);
    (void)main;
}

TEST(IrBuilder, RedefinitionHelpers)
{
    Module module;
    IRBuilder builder(module);
    builder.createFunction("main", 0);
    const Reg i = builder.constInt(0);
    const Reg one = builder.constInt(1);
    builder.binopTo(i, BinOpKind::Add, i, one);
    builder.assignTo(i, one);
    builder.constTo(i, 9);
    builder.ret();
    module.finalize();

    // Three redefinitions of the same register, no fresh registers.
    int defs = 0;
    for (InstrId id = 0; id < module.numInstrs(); ++id)
        if (module.instr(id).dest == i)
            ++defs;
    EXPECT_EQ(defs, 4); // original + 3 redefinitions
}

} // namespace
} // namespace oha::ir
