/**
 * @file
 * Death tests for the IR verifier and parser diagnostics: malformed
 * modules must be rejected at finalize()/parse time with a clear
 * message, never limp into the interpreter.
 */

#include <gtest/gtest.h>

#include <string>

#include "ir/builder.h"
#include "ir/parser.h"
#include "ir/verifier.h"

namespace oha::ir {
namespace {

TEST(Verifier, RejectsBlockWithoutTerminator)
{
    auto build = [] {
        Module module;
        IRBuilder b(module);
        b.createFunction("main", 0);
        b.constInt(1); // no terminator
        module.finalize();
    };
    EXPECT_EXIT(build(), ::testing::ExitedWithCode(1),
                "lacks a terminator");
}

TEST(Verifier, RejectsTerminatorMidBlock)
{
    auto build = [] {
        Module module;
        IRBuilder b(module);
        b.createFunction("main", 0);
        b.ret();
        b.output(b.constInt(1)); // unreachable tail in the same block
        b.ret();
        module.finalize();
    };
    EXPECT_EXIT(build(), ::testing::ExitedWithCode(1), "mid-block");
}

TEST(Verifier, RejectsCrossFunctionBranch)
{
    auto build = [] {
        Module module;
        IRBuilder b(module);
        Function *other = b.createFunction("other", 0);
        BasicBlock *foreign = b.createBlock(other, "foreign");
        b.setInsertPoint(foreign);
        b.ret();
        // "other"'s entry block needs a terminator too.
        b.setInsertPoint(other->entry());
        b.ret();
        b.createFunction("main", 0);
        b.br(foreign); // branch into another function
        module.finalize();
    };
    EXPECT_EXIT(build(), ::testing::ExitedWithCode(1), "cross-function");
}

TEST(Verifier, RejectsArityMismatch)
{
    auto build = [] {
        Module module;
        IRBuilder b(module);
        Function *callee = b.createFunction("callee", 2);
        b.ret();
        b.createFunction("main", 0);
        Instruction call;
        call.op = Opcode::Call;
        call.callee = callee->id();
        call.args = {}; // needs 2
        call.dest = b.currentFunction()->allocReg();
        b.insertBlock()->instructions().push_back(call);
        b.ret();
        module.finalize();
    };
    EXPECT_EXIT(build(), ::testing::ExitedWithCode(1), "arity mismatch");
}

TEST(Verifier, RejectsDuplicateFunctionNames)
{
    auto build = [] {
        Module module;
        module.addFunction("dup", 0);
        module.addFunction("dup", 0);
    };
    EXPECT_EXIT(build(), ::testing::ExitedWithCode(1),
                "duplicate function name");
}

TEST(Verifier, RejectsOutOfRangeRegister)
{
    auto build = [] {
        Module module;
        IRBuilder b(module);
        b.createFunction("main", 0);
        Instruction bad;
        bad.op = Opcode::Output;
        bad.a = 999; // never allocated
        b.insertBlock()->instructions().push_back(bad);
        b.ret();
        module.finalize();
    };
    EXPECT_EXIT(build(), ::testing::ExitedWithCode(1), "out of range");
}

TEST(Verifier, RejectsAllocSizeOutOfRange)
{
    // Checked at parse time only: running such a module would ask for
    // gigabytes of cells.
    EXPECT_EXIT(parseModule("func main() {\n  entry:\n    r0 = alloc -1\n"
                            "    ret\n}\n"),
                ::testing::ExitedWithCode(1), "alloc size out of range");
    EXPECT_EXIT(parseModule("func main() {\n  entry:\n"
                            "    r0 = alloc 4294967297\n    ret\n}\n"),
                ::testing::ExitedWithCode(1), "alloc size out of range");
    EXPECT_EXIT(parseModule("func main() {\n  entry:\n"
                            "    r0 = alloc 99999999999999999999\n"
                            "    ret\n}\n"),
                ::testing::ExitedWithCode(1), "line 3: bad integer literal");
    auto build = [] {
        Module module;
        IRBuilder b(module);
        b.createFunction("main", 0);
        Instruction alloc;
        alloc.op = Opcode::Alloc;
        alloc.imm = std::int64_t{1} << 32;
        alloc.dest = b.currentFunction()->allocReg();
        b.insertBlock()->instructions().push_back(alloc);
        b.ret();
        module.finalize();
    };
    EXPECT_EXIT(build(), ::testing::ExitedWithCode(1),
                "alloc size out of range");
}

TEST(Verifier, RejectsTooManyRegisters)
{
    // Checked at parse time only: each frame of such a function would
    // get a window of 16 bytes a register, 1.6 GB for r99999999.
    auto assigning = [](unsigned reg) {
        return "func main() {\n  entry:\n    r" + std::to_string(reg) +
               " = 7\n    ret\n}\n";
    };
    EXPECT_EXIT(parseModule(assigning(99999999)),
                ::testing::ExitedWithCode(1), "too many registers");
    EXPECT_EXIT(parseModule(assigning(kMaxRegisters)),
                ::testing::ExitedWithCode(1), "too many registers");
    EXPECT_EQ(parseModule(assigning(kMaxRegisters - 1))
                  ->entryFunction()
                  ->numRegs(),
              kMaxRegisters);
}

TEST(Verifier, RejectsModuleWithoutMain)
{
    // A run starts at main(): a module without one must stop at parse
    // time, not abort in the interpreter.
    EXPECT_EXIT(parseModule("func foo() {\n  entry:\n    ret\n}\n"),
                ::testing::ExitedWithCode(1), "module has no main");
}

TEST(ParserDiagnostics, RejectsGlobalSizeOutOfRange)
{
    EXPECT_EXIT(parseModule("global g[-1]\nfunc main() {\n  entry:\n"
                            "    ret\n}\n"),
                ::testing::ExitedWithCode(1), "bad global size");
    EXPECT_EXIT(parseModule("global g[4294967296]\nfunc main() {\n"
                            "  entry:\n    ret\n}\n"),
                ::testing::ExitedWithCode(1), "bad global size");
    EXPECT_EXIT(parseModule("global g[99999999999999999999]\n"
                            "func main() {\n  entry:\n    ret\n}\n"),
                ::testing::ExitedWithCode(1), "line 1: bad integer literal");
}

TEST(ParserDiagnostics, ReportsLineNumbers)
{
    EXPECT_EXIT(parseModule("func main() {\n  entry:\n    r0 = @\n}\n"),
                ::testing::ExitedWithCode(1), "line 3");
    EXPECT_EXIT(parseModule("func main() {\n  entry:\n"
                            "    r0 = -99999999999999999999\n"
                            "    ret\n}\n"),
                ::testing::ExitedWithCode(1), "line 3: bad integer literal");
}

TEST(ParserDiagnostics, RejectsRegisterPastRange)
{
    // r4294967295 is kNoReg, and r4294967296 would truncate to r0.
    EXPECT_EXIT(parseModule("func main() {\n  entry:\n"
                            "    output r4294967295\n    ret\n}\n"),
                ::testing::ExitedWithCode(1), "bad register number");
    EXPECT_EXIT(parseModule("func main() {\n  entry:\n    r0 = 7\n"
                            "    output r4294967296\n    ret\n}\n"),
                ::testing::ExitedWithCode(1), "bad register number");
}

TEST(ParserDiagnostics, RejectsUnknownBlockLabel)
{
    EXPECT_EXIT(
        parseModule("func main() {\n  entry:\n    br nowhere\n}\n"),
        ::testing::ExitedWithCode(1), "unknown block label");
}

TEST(ParserDiagnostics, RejectsUnknownFunction)
{
    EXPECT_EXIT(
        parseModule(
            "func main() {\n  entry:\n    r0 = call ghost()\n    ret\n}\n"),
        ::testing::ExitedWithCode(1), "unknown function");
}

TEST(ParserDiagnostics, RejectsDuplicateLabels)
{
    EXPECT_EXIT(parseModule("func main() {\n  a:\n    ret\n  a:\n    "
                            "ret\n}\n"),
                ::testing::ExitedWithCode(1), "duplicate block label");
}

TEST(ParserDiagnostics, RejectsMissingCloseBrace)
{
    EXPECT_EXIT(parseModule("func main() {\n  entry:\n    ret\n"),
                ::testing::ExitedWithCode(1), "missing '}'");
}

} // namespace
} // namespace oha::ir
