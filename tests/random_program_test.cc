/**
 * @file
 * Randomized differential testing: generate random well-formed IR
 * programs from a seed, then check system-wide properties that must
 * hold for *any* program:
 *  - printer/parser round-trip preserves text and behaviour;
 *  - execution is deterministic;
 *  - every dynamically-touched address lies in the static points-to
 *    set of its access;
 *  - every dynamic slice is contained in the sound static slice;
 *  - hybrid (static-slice-planned) Giri equals pure Giri.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "analysis/race_detector.h"
#include "analysis/slicer.h"
#include "dyn/fasttrack.h"
#include "dyn/giri.h"
#include "dyn/plans.h"
#include "exec/interpreter.h"
#include "ir/builder.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "support/rng.h"

namespace oha {
namespace {

using ir::BasicBlock;
using ir::BinOpKind;
using ir::Function;
using ir::IRBuilder;
using ir::Module;
using ir::Reg;

/** A pointer register and how many cells remain valid beyond it. */
struct PtrVal
{
    Reg reg;
    std::uint32_t remaining;
};

/** Random straight-line-plus-loops program generator. */
class ProgramGen
{
  public:
    explicit ProgramGen(std::uint64_t seed) : rng_(seed) {}

    std::unique_ptr<Module>
    generate(bool multithreaded = false)
    {
        auto module = std::make_unique<Module>();
        IRBuilder b(*module);

        // A couple of globals for cross-function flow.
        const int numGlobals = 1 + int(rng_.below(3));
        for (int g = 0; g < numGlobals; ++g) {
            globals_.push_back(module->addGlobal(
                "g" + std::to_string(g),
                1 + std::uint32_t(rng_.below(4))));
            globalSizes_.push_back(
                module->globals().back().size);
        }

        // Callees first (an acyclic call DAG by construction).
        const int numFuncs = 2 + int(rng_.below(4));
        for (int f = 0; f < numFuncs; ++f) {
            const unsigned params = unsigned(rng_.below(3));
            Function *func = b.createFunction(
                "f" + std::to_string(f), params);
            emitBody(b, func, params, /*isMain=*/false);
            callees_.push_back(func);
        }
        Function *main = b.createFunction("main", 0);
        if (multithreaded) {
            emitMtMain(b);
        } else {
            emitBody(b, main, 0, /*isMain=*/true);
        }

        module->finalize();
        return module;
    }

  private:
    void
    emitBody(IRBuilder &b, Function *func, unsigned params, bool isMain)
    {
        scalars_.clear();
        ptrs_.clear();
        for (unsigned p = 0; p < params; ++p)
            scalars_.push_back(p);
        if (scalars_.empty())
            scalars_.push_back(b.constInt(std::int64_t(rng_.below(64))));

        const int instrs = 8 + int(rng_.below(24));
        for (int i = 0; i < instrs; ++i)
            emitRandomInstr(b);

        // Maybe a bounded loop with more work inside.
        if (rng_.chance(0.6)) {
            BasicBlock *head = b.createBlock(func, "head");
            BasicBlock *body = b.createBlock(func, "body");
            BasicBlock *exit = b.createBlock(func, "exit");
            const Reg i = b.constInt(0);
            const Reg n = b.constInt(2 + std::int64_t(rng_.below(6)));
            const Reg one = b.constInt(1);
            b.br(head);
            b.setInsertPoint(head);
            b.condBr(b.lt(i, n), body, exit);
            b.setInsertPoint(body);
            const int inner = 2 + int(rng_.below(6));
            for (int k = 0; k < inner; ++k)
                emitRandomInstr(b);
            b.binopTo(i, BinOpKind::Add, i, one);
            b.br(head);
            b.setInsertPoint(exit);
        }

        if (isMain) {
            // Several observable endpoints.
            const int outputs = 1 + int(rng_.below(3));
            for (int o = 0; o < outputs; ++o)
                b.output(pickScalar());
            b.ret();
        } else {
            b.ret(pickScalar());
        }
    }

    Reg
    pickScalar()
    {
        return scalars_[rng_.below(scalars_.size())];
    }

    void
    emitRandomInstr(IRBuilder &b)
    {
        switch (rng_.below(11)) {
          case 0:
            scalars_.push_back(
                b.constInt(std::int64_t(rng_.below(1000))));
            break;
          case 1: {
            static const BinOpKind kinds[] = {
                BinOpKind::Add, BinOpKind::Sub, BinOpKind::Mul,
                BinOpKind::Xor, BinOpKind::And, BinOpKind::Lt,
            };
            scalars_.push_back(b.binop(kinds[rng_.below(6)],
                                       pickScalar(), pickScalar()));
            break;
          }
          case 2: {
            const std::uint32_t size = 1 + std::uint32_t(rng_.below(4));
            ptrs_.push_back({b.alloc(size), size});
            break;
          }
          case 3: { // global address
            const std::size_t g = rng_.below(globals_.size());
            ptrs_.push_back(
                {b.globalAddr(globals_[g]), globalSizes_[g]});
            break;
          }
          case 4: { // gep within bounds
            if (ptrs_.empty())
                break;
            const PtrVal base = ptrs_[rng_.below(ptrs_.size())];
            if (base.remaining <= 1)
                break;
            const std::uint32_t field =
                std::uint32_t(rng_.below(base.remaining));
            ptrs_.push_back(
                {b.gep(base.reg, field), base.remaining - field});
            break;
          }
          case 5: // store a scalar
            if (!ptrs_.empty()) {
                b.store(ptrs_[rng_.below(ptrs_.size())].reg,
                        pickScalar());
            }
            break;
          case 6: // load
            if (!ptrs_.empty()) {
                scalars_.push_back(
                    b.load(ptrs_[rng_.below(ptrs_.size())].reg));
            }
            break;
          case 7: { // call an earlier function
            if (callees_.empty())
                break;
            Function *callee =
                callees_[rng_.below(callees_.size())];
            std::vector<Reg> args;
            for (unsigned p = 0; p < callee->numParams(); ++p)
                args.push_back(pickScalar());
            // Save/restore value pools around the callee's body
            // emission?  Not needed: callees are fully built before
            // main, so this is a plain call.
            scalars_.push_back(b.call(callee, std::move(args)));
            break;
          }
          case 8: // input
            scalars_.push_back(
                b.input(std::int64_t(rng_.below(8))));
            break;
          case 9: { // a small critical section on a global mutex
            const std::size_t g = rng_.below(globals_.size());
            const Reg mutex = b.globalAddr(globals_[g]);
            b.lock(mutex);
            if (!ptrs_.empty() && rng_.chance(0.8)) {
                const Reg p = ptrs_[rng_.below(ptrs_.size())].reg;
                b.store(p, pickScalar());
                scalars_.push_back(b.load(p));
            }
            b.unlock(mutex);
            break;
          }
          default: // register shuffling
            scalars_.push_back(b.assign(pickScalar()));
            break;
        }
    }

    /** main that spawns random workers: the race-fuzzing variant. */
    void
    emitMtMain(IRBuilder &b)
    {
        scalars_.clear();
        ptrs_.clear();
        scalars_.push_back(b.constInt(std::int64_t(rng_.below(64))));
        const int pre = 2 + int(rng_.below(8));
        for (int i = 0; i < pre; ++i)
            emitRandomInstr(b);

        std::vector<Reg> handles;
        const int threads = 2 + int(rng_.below(3));
        for (int t = 0; t < threads; ++t) {
            Function *worker = callees_[rng_.below(callees_.size())];
            std::vector<Reg> args;
            for (unsigned p = 0; p < worker->numParams(); ++p)
                args.push_back(pickScalar());
            handles.push_back(b.spawn(worker, std::move(args)));
            // Interleave a little main-thread work with live threads.
            for (int i = 0; i < int(rng_.below(4)); ++i)
                emitRandomInstr(b);
        }
        for (Reg h : handles)
            scalars_.push_back(b.join(h));
        for (int i = 0; i < int(rng_.below(5)); ++i)
            emitRandomInstr(b);
        b.output(pickScalar());
        b.ret();
    }

    Rng rng_;
    std::vector<std::uint32_t> globals_;
    std::vector<std::uint32_t> globalSizes_;
    std::vector<Function *> callees_;
    std::vector<Reg> scalars_;
    std::vector<PtrVal> ptrs_;
};

class RandomProgram : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    void
    SetUp() override
    {
        // Callees built before main can only call *previously built*
        // functions, so the call graph is acyclic and terminating.
        ProgramGen gen(GetParam());
        module_ = gen.generate();
        config_.input = {3, 1, 4, 1, 5, 9, 2, 6};
        config_.scheduleSeed = GetParam();
    }

    std::unique_ptr<Module> module_;
    exec::ExecConfig config_;
};

TEST_P(RandomProgram, ExecutesCleanlyAndDeterministically)
{
    exec::Interpreter a(*module_, config_);
    const auto ra = a.run();
    ASSERT_TRUE(ra.finished()) << ra.abortReason;
    exec::Interpreter b(*module_, config_);
    EXPECT_EQ(b.run().outputs, ra.outputs);
}

TEST_P(RandomProgram, PrintParseRoundTrip)
{
    const std::string once = ir::printModule(*module_);
    const auto reparsed = ir::parseModule(once);
    EXPECT_EQ(ir::printModule(*reparsed), once);
    exec::Interpreter a(*module_, config_);
    exec::Interpreter b(*reparsed, config_);
    EXPECT_EQ(a.run().outputs, b.run().outputs);
}

TEST(RandomProgramFingerprint, EqualExactlyWhenPrintedTextsAreEqual)
{
    // Forty seeded modules, each built twice (even seeds multithreaded):
    // two fingerprints are equal exactly when the printed texts are,
    // and a module parsed back from its text has the original's.
    std::vector<std::string> texts;
    std::vector<support::Fingerprint> fingerprints;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        for (int build = 0; build < 2; ++build) {
            ProgramGen gen(seed);
            const auto module = gen.generate(seed % 2 == 0);
            texts.push_back(ir::printModule(*module));
            fingerprints.push_back(module->fingerprint());
            EXPECT_EQ(ir::parseModule(texts.back())->fingerprint(),
                      fingerprints.back())
                << "seed " << seed;
        }
    }
    EXPECT_EQ(std::set<std::string>(texts.begin(), texts.end()).size(), 40u);
    for (std::size_t i = 0; i < texts.size(); ++i)
        for (std::size_t j = 0; j < texts.size(); ++j) {
            ASSERT_EQ(fingerprints[i].primary == fingerprints[j].primary,
                      texts[i] == texts[j])
                << i << " vs " << j;
            ASSERT_EQ(fingerprints[i].secondary == fingerprints[j].secondary,
                      texts[i] == texts[j])
                << i << " vs " << j;
        }
}

TEST_P(RandomProgram, DynamicAccessesWithinPointsTo)
{
    const auto pts = analysis::runAndersen(*module_, {});

    class Recorder : public exec::Tool
    {
      public:
        explicit Recorder(exec::Interpreter &interp) : interp_(interp) {}
        void
        onEvent(const exec::EventCtx &ctx) override
        {
            if (ctx.instr->isMemAccess())
                seen_[ctx.instr->id].insert(
                    {interp_.objectAllocSite(ctx.obj), ctx.obj,
                     ctx.off});
        }
        std::map<InstrId,
                 std::set<std::tuple<InstrId, exec::ObjectId,
                                     std::uint32_t>>>
            seen_;

      private:
        exec::Interpreter &interp_;
    };

    const auto plan = exec::InstrumentationPlan::all(*module_);
    exec::Interpreter interp(*module_, config_);
    Recorder recorder(interp);
    interp.attach(&recorder, &plan);
    ASSERT_TRUE(interp.run().finished());

    for (const auto &[instr, touched] : recorder.seen_) {
        const SparseBitSet targets = pts.pointerTargets(instr);
        for (const auto &[site, obj, off] : touched) {
            bool found = false;
            targets.forEach([&](analysis::CellId cell) {
                const auto &object =
                    pts.memory.object(pts.memory.objectOfCell(cell));
                if (pts.memory.fieldOfCell(cell) != off)
                    return;
                if (site == kNoInstr) {
                    found = found ||
                            (object.kind ==
                                 analysis::AbsObjectKind::Global &&
                             object.srcId == obj);
                } else {
                    found = found ||
                            (object.kind ==
                                 analysis::AbsObjectKind::AllocSite &&
                             object.srcId == site);
                }
            });
            EXPECT_TRUE(found) << "seed " << GetParam() << " access i"
                               << instr;
        }
    }
}

TEST_P(RandomProgram, DynamicSliceWithinStaticSliceAndHybridMatchesPure)
{
    const auto pts = analysis::runAndersen(*module_, {});
    const analysis::StaticSlicer slicer(*module_, pts, {});
    const auto fullPlan = dyn::fullGiriPlan(*module_);

    dyn::GiriSlicer pure(*module_);
    {
        exec::Interpreter interp(*module_, config_);
        interp.attach(&pure, &fullPlan);
        ASSERT_TRUE(interp.run().finished());
    }

    for (InstrId id = 0; id < module_->numInstrs(); ++id) {
        if (module_->instr(id).op != ir::Opcode::Output)
            continue;
        const auto staticSlice = slicer.slice(id);
        ASSERT_TRUE(staticSlice.completed);
        const auto dynamicSlice = pure.slice(id);
        for (InstrId instr : dynamicSlice) {
            const bool inStatic = staticSlice.instructions.count(instr) > 0;
            EXPECT_TRUE(inStatic)
                << "seed " << GetParam() << " endpoint " << id;
            if (!inStatic && ::getenv("OHA_DUMP")) {
                std::fprintf(stderr, "MISSING i%u: %s\n", instr,
                    ir::printInstruction(*module_, module_->instr(instr)).c_str());
                std::fprintf(stderr, "%s\n", ir::printModule(*module_).c_str());
            }
        }

        dyn::GiriSlicer hybrid(*module_);
        const auto plan =
            dyn::sliceGiriPlan(*module_, staticSlice.instructions);
        exec::Interpreter interp(*module_, config_);
        interp.attach(&hybrid, &plan);
        ASSERT_TRUE(interp.run().finished());
        EXPECT_EQ(hybrid.slice(id), dynamicSlice);
        EXPECT_EQ(hybrid.missingDependencies(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, RandomProgram,
                         ::testing::Range<std::uint64_t>(1, 25));

class RandomMtProgram : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomMtProgram, ObservedRacesAreStaticallyReported)
{
    ProgramGen gen(GetParam() * 7919 + 3);
    const auto module = gen.generate(/*multithreaded=*/true);

    const auto staticResult =
        analysis::runStaticRaceDetector(*module, nullptr);
    const auto plan = dyn::fullFastTrackPlan(*module);

    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        exec::ExecConfig config;
        config.input = {3, 1, 4, 1, 5, 9, 2, 6};
        config.scheduleSeed = seed;
        dyn::FastTrack tool;
        exec::Interpreter interp(*module, config);
        interp.attach(&tool, &plan);
        const auto result = interp.run();
        ASSERT_TRUE(result.finished()) << result.abortReason;
        for (const auto &pair : tool.racePairs()) {
            EXPECT_TRUE(staticResult.racyPairs.count(pair))
                << "seed " << GetParam() << "/" << seed
                << ": dynamic race (" << pair.first << "," << pair.second
                << ") missed by the sound static detector";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, RandomMtProgram,
                         ::testing::Range<std::uint64_t>(1, 25));

} // namespace
} // namespace oha
