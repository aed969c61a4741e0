/**
 * @file
 * Tests for the static backward slicer: data-flow closure, flow
 * sensitivity, interprocedural edges, context sensitivity and
 * predicated pruning, plus a golden table (slicer_golden.inc) that
 * pins every slice of the seven slice workloads.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/slicer.h"
#include "core/optslice.h"
#include "ir/builder.h"
#include "profile/profiler.h"
#include "workloads/workloads.h"

namespace oha::analysis {
namespace {

using ir::BasicBlock;
using ir::Function;
using ir::IRBuilder;
using ir::Module;
using ir::Opcode;
using ir::Reg;

InstrId
firstOutput(const Module &module)
{
    for (InstrId id = 0; id < module.numInstrs(); ++id)
        if (module.instr(id).op == Opcode::Output)
            return id;
    OHA_PANIC("no output instruction");
}

/** Instruction defining register @p reg in @p func (first one). */
InstrId
defOf(const Module &module, FuncId func, Reg reg)
{
    for (InstrId id = 0; id < module.numInstrs(); ++id) {
        const auto &ins = module.instr(id);
        if (ins.func == func && ins.dest == reg)
            return id;
    }
    OHA_PANIC("no def found");
}

StaticSliceResult
sliceOf(const Module &module, InstrId endpoint, bool cs = false,
        const inv::InvariantSet *invariants = nullptr)
{
    AndersenOptions aopts;
    aopts.contextSensitive = cs;
    aopts.invariants = invariants;
    const AndersenResult andersen = runAndersen(module, aopts);
    SlicerOptions sopts;
    sopts.invariants = invariants;
    StaticSlicer slicer(module, andersen, sopts);
    return slicer.slice(endpoint);
}

TEST(StaticSlicer, StraightLineDataFlow)
{
    Module module;
    IRBuilder b(module);
    Function *main = b.createFunction("main", 0);
    const Reg a = b.constInt(1);
    const Reg z = b.constInt(99); // irrelevant
    const Reg c = b.add(a, a);
    b.output(c);
    b.output(z); // second output keeps z live in the program
    b.ret();
    module.finalize();

    const InstrId endpoint = firstOutput(module);
    const auto result = sliceOf(module, endpoint);
    ASSERT_TRUE(result.completed);
    EXPECT_TRUE(result.instructions.count(endpoint));
    EXPECT_TRUE(result.instructions.count(defOf(module, main->id(), a)));
    EXPECT_TRUE(result.instructions.count(defOf(module, main->id(), c)));
    EXPECT_FALSE(result.instructions.count(defOf(module, main->id(), z)));
}

TEST(StaticSlicer, MemoryDependenceRespectsFields)
{
    Module module;
    IRBuilder b(module);
    Function *main = b.createFunction("main", 0);
    const Reg buf = b.alloc(2);
    const Reg v0 = b.constInt(10);
    const Reg v1 = b.constInt(20);
    b.store(b.gep(buf, 0), v0);
    b.store(b.gep(buf, 1), v1);
    b.output(b.load(b.gep(buf, 0)));
    b.ret();
    module.finalize();

    const auto result = sliceOf(module, firstOutput(module));
    EXPECT_TRUE(result.instructions.count(defOf(module, main->id(), v0)));
    EXPECT_FALSE(result.instructions.count(defOf(module, main->id(), v1)));
}

TEST(StaticSlicer, FlowSensitivityExcludesLaterStores)
{
    Module module;
    IRBuilder b(module);
    Function *main = b.createFunction("main", 0);
    const Reg buf = b.alloc(1);
    const Reg early = b.constInt(1);
    const Reg late = b.constInt(2);
    b.store(buf, early);
    const Reg got = b.load(buf);
    b.store(buf, late); // after the load: cannot feed it
    b.output(got);
    b.ret();
    module.finalize();

    const auto result = sliceOf(module, firstOutput(module));
    EXPECT_TRUE(result.instructions.count(defOf(module, main->id(), early)));
    EXPECT_FALSE(result.instructions.count(defOf(module, main->id(), late)));
}

TEST(StaticSlicer, LoopKeepsBackEdgeStores)
{
    Module module;
    IRBuilder b(module);
    Function *main = b.createFunction("main", 0);
    BasicBlock *loop = b.createBlock(main, "loop");
    BasicBlock *out = b.createBlock(main, "out");
    const Reg buf = b.alloc(1);
    b.br(loop);
    b.setInsertPoint(loop);
    const Reg got = b.load(buf);
    const Reg next = b.add(got, got);
    b.store(buf, next); // textually after the load, but loops back
    b.condBr(b.input(0), loop, out);
    b.setInsertPoint(out);
    b.output(got);
    b.ret();
    module.finalize();

    const auto result = sliceOf(module, firstOutput(module));
    EXPECT_TRUE(result.instructions.count(defOf(module, main->id(), next)));
}

TEST(StaticSlicer, InterproceduralThroughCall)
{
    Module module;
    IRBuilder b(module);
    Function *twice = b.createFunction("twice", 1);
    const Reg doubled = b.add(0, 0);
    b.ret(doubled);
    Function *main = b.createFunction("main", 0);
    const Reg seed = b.input(0);
    const Reg unused = b.constInt(5);
    const Reg r = b.call(twice, {seed});
    b.output(r);
    b.ret();
    module.finalize();

    const auto result = sliceOf(module, firstOutput(module));
    EXPECT_TRUE(
        result.instructions.count(defOf(module, twice->id(), doubled)));
    EXPECT_TRUE(result.instructions.count(defOf(module, main->id(), seed)));
    EXPECT_FALSE(
        result.instructions.count(defOf(module, main->id(), unused)));
}

TEST(StaticSlicer, JoinPullsThreadComputation)
{
    Module module;
    IRBuilder b(module);
    Function *worker = b.createFunction("worker", 1);
    const Reg sq = b.mul(0, 0);
    b.ret(sq);
    Function *main = b.createFunction("main", 0);
    const Reg x = b.input(0);
    const Reg h = b.spawn(worker, {x});
    b.output(b.join(h));
    b.ret();
    module.finalize();

    const auto result = sliceOf(module, firstOutput(module));
    EXPECT_TRUE(result.instructions.count(defOf(module, worker->id(), sq)));
    EXPECT_TRUE(result.instructions.count(defOf(module, main->id(), x)));
}

/** Two independent chains through a shared helper: CI conflates them,
 *  CS separates them (the Figure 3 scenario for slicing). */
struct TwoChainProgram
{
    Module module;
    Function *main = nullptr;
    Reg relevantSeed = 0;
    Reg irrelevantSeed = 0;
    InstrId endpoint = kNoInstr;
};

void
buildTwoChains(TwoChainProgram &prog)
{
    IRBuilder b(prog.module);
    Function *box = b.createFunction("box", 1);
    {
        const Reg cell = b.alloc(1);
        b.store(cell, 0);
        b.ret(cell);
    }
    prog.main = b.createFunction("main", 0);
    prog.relevantSeed = b.input(0);
    prog.irrelevantSeed = b.input(1);
    const Reg boxA = b.call(box, {prog.relevantSeed});
    const Reg boxB = b.call(box, {prog.irrelevantSeed});
    (void)boxB;
    b.output(b.load(boxA));
    b.ret();
    prog.module.finalize();
    prog.endpoint = firstOutput(prog.module);
}

TEST(StaticSlicer, ContextInsensitiveConflatesChains)
{
    TwoChainProgram prog;
    buildTwoChains(prog);
    const auto ci = sliceOf(prog.module, prog.endpoint, false);
    // CI merges the two boxes: the irrelevant seed leaks into the
    // slice.
    EXPECT_TRUE(ci.instructions.count(
        defOf(prog.module, prog.main->id(), prog.irrelevantSeed)));
}

TEST(StaticSlicer, ContextSensitiveSeparatesChains)
{
    TwoChainProgram prog;
    buildTwoChains(prog);
    const auto cs = sliceOf(prog.module, prog.endpoint, true);
    ASSERT_TRUE(cs.completed);
    EXPECT_TRUE(cs.instructions.count(
        defOf(prog.module, prog.main->id(), prog.relevantSeed)));
    EXPECT_FALSE(cs.instructions.count(
        defOf(prog.module, prog.main->id(), prog.irrelevantSeed)));

    const auto ci = sliceOf(prog.module, prog.endpoint, false);
    EXPECT_LT(cs.instructions.size(), ci.instructions.size());
}

TEST(StaticSlicer, LucShrinksSlice)
{
    Module module;
    IRBuilder b(module);
    Function *main = b.createFunction("main", 0);
    BasicBlock *cold = b.createBlock(main, "cold");
    BasicBlock *done = b.createBlock(main, "done");
    const Reg buf = b.alloc(1);
    const Reg hot = b.constInt(7);
    b.store(buf, hot);
    b.condBr(b.input(0), cold, done);
    b.setInsertPoint(cold);
    const Reg coldV = b.constInt(13);
    b.store(buf, coldV);
    b.br(done);
    b.setInsertPoint(done);
    b.output(b.load(buf));
    b.ret();
    module.finalize();

    const auto sound = sliceOf(module, firstOutput(module));
    EXPECT_TRUE(
        sound.instructions.count(defOf(module, main->id(), coldV)));

    inv::InvariantSet inv;
    inv.numBlocks = static_cast<std::uint32_t>(module.numBlocks());
    for (BlockId blk = 0; blk < module.numBlocks(); ++blk)
        inv.visitedBlocks.insert(blk);
    inv.visitedBlocks.erase(cold->id());

    AndersenOptions aopts;
    aopts.invariants = &inv;
    const AndersenResult andersen = runAndersen(module, aopts);
    SlicerOptions sopts;
    sopts.invariants = &inv;
    StaticSlicer slicer(module, andersen, sopts);
    const auto optimistic = slicer.slice(firstOutput(module));

    EXPECT_FALSE(
        optimistic.instructions.count(defOf(module, main->id(), coldV)));
    EXPECT_LT(optimistic.instructions.size(), sound.instructions.size());
}

TEST(StaticSlicer, CalleeSetsShrinkIcallSlice)
{
    Module module;
    IRBuilder b(module);
    Function *cheap = b.createFunction("cheap", 0);
    const Reg one = b.constInt(1);
    b.ret(one);
    Function *pricey = b.createFunction("pricey", 0);
    const Reg big = b.mul(b.constInt(1000), b.constInt(1000));
    b.ret(big);
    b.createFunction("main", 0);
    const Reg table = b.alloc(2);
    b.store(b.gep(table, 0), b.funcAddr(cheap));
    b.store(b.gep(table, 1), b.funcAddr(pricey));
    const Reg fp = b.load(b.gepDyn(table, b.input(0)));
    b.output(b.icall(fp, {}));
    b.ret();
    module.finalize();

    const auto sound = sliceOf(module, firstOutput(module));
    EXPECT_TRUE(sound.instructions.count(defOf(module, pricey->id(), big)));

    inv::InvariantSet inv;
    inv.numBlocks = static_cast<std::uint32_t>(module.numBlocks());
    for (BlockId blk = 0; blk < module.numBlocks(); ++blk)
        inv.visitedBlocks.insert(blk);
    InstrId icall = kNoInstr;
    for (InstrId id = 0; id < module.numInstrs(); ++id)
        if (module.instr(id).op == Opcode::ICall)
            icall = id;
    inv.calleeSets[icall] = {cheap->id()};

    const auto optimistic =
        sliceOf(module, firstOutput(module), false, &inv);
    EXPECT_TRUE(
        optimistic.instructions.count(defOf(module, cheap->id(), one)));
    EXPECT_FALSE(
        optimistic.instructions.count(defOf(module, pricey->id(), big)));
}

TEST(StaticSlicer, SliceIsClosedUnderItsOwnDependencies)
{
    // Property: re-slicing from any instruction inside a slice stays
    // inside the slice (backward closure).
    TwoChainProgram prog;
    buildTwoChains(prog);

    AndersenOptions aopts;
    const AndersenResult andersen = runAndersen(prog.module, aopts);
    StaticSlicer slicer(prog.module, andersen, {});
    const auto full = slicer.slice(prog.endpoint);
    for (InstrId inner : full.instructions) {
        const auto sub = slicer.slice(inner);
        for (InstrId id : sub.instructions) {
            EXPECT_TRUE(full.instructions.count(id))
                << "instruction " << id << " escapes the closure via "
                << inner;
        }
    }
}

/** One pinned slice (slicer_golden.inc). */
struct SliceGoldenRow
{
    const char *label;
    bool completed;
    std::uint64_t workUnits;
    std::uint64_t size;
    std::uint64_t digest;
};

const SliceGoldenRow kSliceGolden[] = {
#include "slicer_golden.inc"
};

std::uint64_t
digestOf(const std::set<InstrId> &instructions)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const InstrId id : instructions) {
        h ^= id;
        h *= 0x100000001b3ull;
        h ^= h >> 29;
    }
    return h;
}

/** Checks @p slice against the row named @p label; a mismatch or a
 *  missing row prints the current row in the table's format. */
void
checkRow(const std::string &label, const StaticSliceResult &slice)
{
    const SliceGoldenRow current{label.c_str(), slice.completed,
                                 slice.workUnits,
                                 slice.instructions.size(),
                                 digestOf(slice.instructions)};
    char line[160];
    std::snprintf(line, sizeof line,
                  "{\"%s\", %d, %llu, %llu, 0x%016llxull},",
                  current.label, current.completed ? 1 : 0,
                  static_cast<unsigned long long>(current.workUnits),
                  static_cast<unsigned long long>(current.size),
                  static_cast<unsigned long long>(current.digest));
    for (const SliceGoldenRow &row : kSliceGolden) {
        if (label != row.label)
            continue;
        EXPECT_TRUE(row.completed == current.completed &&
                    row.workUnits == current.workUnits &&
                    row.size == current.size &&
                    row.digest == current.digest)
            << "current row:\n" << line;
        return;
    }
    ADD_FAILURE() << "no golden row; current row:\n" << line;
}

/**
 * Every Output of a slice workload, sliced under sound CI, sound CS
 * and predicated CS points-to at the pipeline's work budget, plus one
 * sound CI slice cut off halfway through its walk, so the traversal
 * order at an abort is pinned too.
 */
class SlicerGolden : public ::testing::TestWithParam<std::string>
{};

TEST_P(SlicerGolden, SlicesMatchTable)
{
    const workloads::Workload workload =
        workloads::makeSliceWorkload(GetParam(), 48, 0);
    const Module &module = *workload.module;
    const core::OptSliceConfig defaults;

    prof::ProfileOptions profOptions;
    profOptions.callContexts = true;
    prof::ProfilingCampaign campaign(module, profOptions);
    campaign.addRunsUntilConverged(workload.profilingSet,
                                   defaults.maxProfileRuns,
                                   defaults.convergenceWindow);
    const inv::InvariantSet invariants = campaign.invariants();

    std::vector<InstrId> outputs;
    for (InstrId id = 0; id < module.numInstrs(); ++id)
        if (module.instr(id).op == Opcode::Output)
            outputs.push_back(id);
    ASSERT_FALSE(outputs.empty());

    struct Variant
    {
        const char *name;
        bool contextSensitive;
        const inv::InvariantSet *invariants;
    };
    const Variant variants[] = {{"ci", false, nullptr},
                                {"cs", true, nullptr},
                                {"cs-pred", true, &invariants}};
    for (const Variant &variant : variants) {
        AndersenOptions aopts;
        aopts.contextSensitive = variant.contextSensitive;
        aopts.invariants = variant.invariants;
        const AndersenResult andersen = runAndersen(module, aopts);
        const std::string prefix = workload.name + "/" + variant.name;
        if (!andersen.completed) {
            StaticSliceResult none;
            none.completed = false;
            checkRow(prefix + "/pts-incomplete", none);
            continue;
        }
        SlicerOptions sopts;
        sopts.invariants = variant.invariants;
        sopts.maxWork = defaults.sliceWorkBudget;
        const StaticSlicer slicer(module, andersen, sopts);
        StaticSliceResult largest;
        InstrId largestAt = kNoInstr;
        for (const InstrId endpoint : outputs) {
            StaticSliceResult slice = slicer.slice(endpoint);
            checkRow(prefix + "/" + std::to_string(endpoint), slice);
            if (largestAt == kNoInstr ||
                slice.workUnits > largest.workUnits) {
                largest = std::move(slice);
                largestAt = endpoint;
            }
        }
        if (variant.contextSensitive)
            continue;
        sopts.maxWork = largest.workUnits / 2;
        const StaticSlicer cut(module, andersen, sopts);
        const StaticSliceResult aborted = cut.slice(largestAt);
        EXPECT_FALSE(aborted.completed);
        checkRow(prefix + "/" + std::to_string(largestAt) + "/maxWork=" +
                     std::to_string(sopts.maxWork),
                 aborted);
    }
}

INSTANTIATE_TEST_SUITE_P(
    SliceWorkloads, SlicerGolden,
    ::testing::ValuesIn(workloads::sliceWorkloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace oha::analysis
