/**
 * @file
 * Value fingerprints (support/fingerprint.h) and the module
 * fingerprint finalize() takes: the cache keys that must track value
 * identity exactly.  Equal values built independently get equal
 * fingerprints; a change to any field the module is made of changes
 * both hashes.  (Random modules: random_program_test.cc.)
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "ir/builder.h"
#include "ir/module.h"
#include "support/fingerprint.h"
#include "workloads/workloads.h"

namespace oha {
namespace {

using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::IRBuilder;
using ir::Module;
using support::Fingerprint;
using support::FingerprintHasher;

TEST(FingerprintHasher, PrimaryIsFnv1aOfTheLittleEndianFields)
{
    FingerprintHasher hasher;
    hasher.add(0x0102030405060708ULL).add(std::string("ab"));
    const unsigned char bytes[] = {8, 7, 6, 5, 4, 3, 2, 1, 2, 0,
                                   0, 0, 0, 0, 0, 0, 'a', 'b'};
    EXPECT_EQ(hasher.finish().primary,
              support::fnv1a64(bytes, sizeof bytes));
    EXPECT_EQ(FingerprintHasher().finish().primary,
              support::fnv1a64(nullptr, 0));
}

TEST(FingerprintHasher, StringsAreDelimitedByTheirLength)
{
    FingerprintHasher abThenC, aThenBc;
    abThenC.add(std::string("ab")).add(std::string("c"));
    aThenBc.add(std::string("a")).add(std::string("bc"));
    EXPECT_NE(abThenC.finish().primary, aThenBc.finish().primary);
    EXPECT_NE(abThenC.finish().secondary, aThenBc.finish().secondary);
}

workloads::Workload
buildWorkload(const std::string &name, bool race)
{
    return race ? workloads::makeRaceWorkload(name, 1, 0)
                : workloads::makeSliceWorkload(name, 1, 0);
}

TEST(ModuleFingerprint, IndependentBuildsOfEveryWorkloadAgree)
{
    std::set<std::uint64_t> primaries, secondaries;
    std::size_t count = 0;
    for (const bool race : {true, false}) {
        for (const std::string &name :
             race ? workloads::raceWorkloadNames()
                  : workloads::sliceWorkloadNames()) {
            const Fingerprint first =
                buildWorkload(name, race).module->fingerprint();
            const Fingerprint second =
                buildWorkload(name, race).module->fingerprint();
            EXPECT_EQ(first, second) << name;
            primaries.insert(first.primary);
            secondaries.insert(first.secondary);
            ++count;
        }
    }
    EXPECT_EQ(count, 21u);
    EXPECT_EQ(primaries.size(), count) << "two workloads share a primary";
    EXPECT_EQ(secondaries.size(), count)
        << "two workloads share a secondary";
}

/** Both hashes of @p module differ from @p base. */
::testing::AssertionResult
bothChanged(const Module &module, const Fingerprint &base)
{
    const Fingerprint now = ir::computeFingerprint(module);
    if (now.primary != base.primary && now.secondary != base.secondary)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << "a hash did not change";
}

TEST(ModuleFingerprint, EveryInstructionFieldChangesIt)
{
    // Fields are changed in place after finalize() (the module does
    // not have to stay well-formed for this), then restored.
    const workloads::Workload workload = buildWorkload("sphinx", false);
    Module &module = *workload.module;
    const Fingerprint base = module.fingerprint();
    ASSERT_EQ(ir::computeFingerprint(module), base);

    std::vector<Instruction *> instrs;
    for (const auto &func : module.functions())
        for (const auto &block : func->blocks())
            for (Instruction &instr : block->instructions())
                instrs.push_back(&instr);
    ASSERT_EQ(instrs.size(), module.numInstrs());

    for (Instruction *each : instrs) {
        Instruction &instr = *each;
        const InstrId id = instr.id;
        auto bump = [&](auto &field, const char *what) {
            const auto saved = field;
            field = static_cast<std::remove_reference_t<decltype(field)>>(
                static_cast<std::uint64_t>(field) + 1);
            EXPECT_TRUE(bothChanged(module, base))
                << what << " of instruction " << id;
            field = saved;
        };
        bump(instr.op, "op");
        bump(instr.binop, "binop");
        bump(instr.dest, "dest");
        bump(instr.a, "a");
        bump(instr.b, "b");
        bump(instr.imm, "imm");
        bump(instr.callee, "callee");
        bump(instr.globalId, "globalId");
        bump(instr.target, "target");
        bump(instr.target2, "target2");
        bump(instr.id, "id");
        instr.args.push_back(0);
        EXPECT_TRUE(bothChanged(module, base)) << "args of " << id;
        instr.args.pop_back();
        if (!instr.args.empty())
            bump(instr.args.front(), "args[0]");
    }
    EXPECT_EQ(ir::computeFingerprint(module), base);
}

/** The names and sizes one small module is built from. */
struct SmallModuleSpec
{
    std::string global = "table";
    std::uint32_t globalSize = 4;
    std::string helper = "helper";
    std::string label = "loop";
};

std::unique_ptr<Module>
buildSmall(const SmallModuleSpec &spec)
{
    auto module = std::make_unique<Module>();
    IRBuilder b(*module);
    const std::uint32_t global = module->addGlobal(spec.global,
                                                   spec.globalSize);
    Function *helper = b.createFunction(spec.helper, 1);
    b.ret(0);
    Function *main = b.createFunction("main", 0);
    const ir::Reg table = b.globalAddr(global);
    BasicBlock *loop = b.createBlock(main, spec.label);
    BasicBlock *exit = b.createBlock(main, "exit");
    b.br(loop);
    b.setInsertPoint(loop);
    b.output(b.call(helper, {table}));
    b.condBr(b.input(0), loop, exit);
    b.setInsertPoint(exit);
    b.ret();
    module->finalize();
    return module;
}

TEST(ModuleFingerprint, NamesAndGlobalSizesChangeIt)
{
    const SmallModuleSpec spec;
    const Fingerprint base = buildSmall(spec)->fingerprint();
    EXPECT_EQ(buildSmall(spec)->fingerprint(), base);

    std::vector<std::pair<const char *, SmallModuleSpec>> variants;
    variants.emplace_back("global name", spec);
    variants.back().second.global = "tablE";
    variants.emplace_back("global size", spec);
    variants.back().second.globalSize = 5;
    variants.emplace_back("function name", spec);
    variants.back().second.helper = "helpeR";
    variants.emplace_back("block label", spec);
    variants.back().second.label = "looP";
    for (const auto &[what, variant] : variants) {
        const Fingerprint changed = buildSmall(variant)->fingerprint();
        EXPECT_NE(changed.primary, base.primary) << what;
        EXPECT_NE(changed.secondary, base.secondary) << what;
    }
}

} // namespace
} // namespace oha
