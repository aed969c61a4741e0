/**
 * @file
 * Deeper interpreter semantics: pointer/handle comparisons, deep
 * call stacks, value tagging, event-class mapping, guest-fault
 * taxonomy and scheduler edge cases.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "exec/interpreter.h"
#include "guest_fault.h"
#include "ir/builder.h"

namespace oha::exec {
namespace {

using ir::BasicBlock;
using ir::BinOpKind;
using ir::Function;
using ir::IRBuilder;
using ir::Module;
using ir::Opcode;
using ir::Reg;

RunResult
run(const Module &module, ExecConfig config = {})
{
    Interpreter interp(module, std::move(config));
    return interp.run();
}

TEST(ExecSemantics, PointerEqualityComparesObjectAndOffset)
{
    Module module;
    IRBuilder b(module);
    b.createFunction("main", 0);
    const Reg buf = b.alloc(4);
    const Reg p1 = b.gep(buf, 2);
    const Reg p2 = b.gep(b.gep(buf, 1), 1); // same address, two hops
    const Reg p3 = b.gep(buf, 3);
    const Reg other = b.alloc(4);
    b.output(b.eq(p1, p2)); // 1
    b.output(b.eq(p1, p3)); // 0
    b.output(b.ne(buf, other)); // 1
    b.output(b.eq(buf, b.gep(other, 0))); // 0: distinct objects
    b.ret();
    module.finalize();

    const auto result = run(module);
    ASSERT_TRUE(result.finished());
    EXPECT_EQ(result.outputs[0].second, 1);
    EXPECT_EQ(result.outputs[1].second, 0);
    EXPECT_EQ(result.outputs[2].second, 1);
    EXPECT_EQ(result.outputs[3].second, 0);
}

TEST(ExecSemantics, FunctionPointerEquality)
{
    Module module;
    IRBuilder b(module);
    Function *f = b.createFunction("f", 0);
    b.ret(b.constInt(0));
    Function *g = b.createFunction("g", 0);
    b.ret(b.constInt(0));
    b.createFunction("main", 0);
    const Reg pf1 = b.funcAddr(f);
    const Reg pf2 = b.funcAddr(f);
    const Reg pg = b.funcAddr(g);
    b.output(b.eq(pf1, pf2));
    b.output(b.eq(pf1, pg));
    b.ret();
    module.finalize();

    const auto result = run(module);
    EXPECT_EQ(result.outputs[0].second, 1);
    EXPECT_EQ(result.outputs[1].second, 0);
}

TEST(ExecSemantics, ArithmeticOnPointerFaults)
{
    Module module;
    IRBuilder b(module);
    b.createFunction("main", 0);
    const Reg buf = b.alloc(1);
    b.output(b.add(buf, b.constInt(1))); // pointer + int: fault
    b.ret();
    module.finalize();
    expectGuestFault(module, "arithmetic on non-scalar values", 2);
}

TEST(ExecSemantics, DeepRecursionWorks)
{
    Module module;
    IRBuilder b(module);
    Function *rec = b.createFunction("rec", 1);
    {
        BasicBlock *more = b.createBlock(rec, "more");
        BasicBlock *leaf = b.createBlock(rec, "leaf");
        b.condBr(b.binop(BinOpKind::Gt, 0, b.constInt(0)), more, leaf);
        b.setInsertPoint(more);
        const Reg sub = b.call(rec, {b.sub(0, b.constInt(1))});
        b.ret(b.add(sub, b.constInt(1)));
        b.setInsertPoint(leaf);
        b.ret(b.constInt(0));
    }
    b.createFunction("main", 0);
    b.output(b.call(rec, {b.constInt(500)}));
    b.ret();
    module.finalize();

    const auto result = run(module);
    ASSERT_TRUE(result.finished());
    EXPECT_EQ(result.outputs[0].second, 500);
}

TEST(ExecSemantics, IcallArityMismatchFaults)
{
    Module module;
    IRBuilder b(module);
    Function *unary = b.createFunction("unary", 1);
    b.ret(0);
    b.createFunction("main", 0);
    b.icall(b.funcAddr(unary), {}); // zero args to a unary function
    b.ret();
    module.finalize();
    expectGuestFault(module, "indirect call arity mismatch", 1);
}

TEST(ExecSemantics, IcallThroughNonFunctionFaults)
{
    Module module;
    IRBuilder b(module);
    b.createFunction("main", 0);
    b.icall(b.constInt(7), {});
    b.ret();
    module.finalize();
    expectGuestFault(module, "indirect call through non-function value", 1);
}

TEST(ExecSemantics, UnlockWithoutHoldFaults)
{
    Module module;
    const auto m = module.addGlobal("m", 1);
    IRBuilder b(module);
    b.createFunction("main", 0);
    b.unlock(b.globalAddr(m));
    b.ret();
    module.finalize();
    expectGuestFault(module, "unlock of lock not held", 1);
}

TEST(ExecSemantics, RecursiveLockFaults)
{
    Module module;
    const auto m = module.addGlobal("m", 1);
    IRBuilder b(module);
    b.createFunction("main", 0);
    b.lock(b.globalAddr(m));
    b.lock(b.globalAddr(m));
    b.ret();
    module.finalize();
    expectGuestFault(module, "recursive lock acquisition", 3);
}

TEST(ExecSemantics, JoinOfNonThreadFaults)
{
    Module module;
    IRBuilder b(module);
    b.createFunction("main", 0);
    b.join(b.constInt(0));
    b.ret();
    module.finalize();
    expectGuestFault(module, "join of non-thread value", 1);
}

TEST(ExecSemantics, NegativeGepFaults)
{
    Module module;
    IRBuilder b(module);
    b.createFunction("main", 0);
    const Reg buf = b.alloc(2);
    b.gep(buf, -1);
    b.ret();
    module.finalize();
    expectGuestFault(module, "negative pointer offset", 1);
}

TEST(ExecSemantics, GepOverflowFaults)
{
    // off + field overflows int64: rejected before the sign check.
    Module module;
    IRBuilder b(module);
    b.createFunction("main", 0);
    const Reg buf = b.alloc(2);
    b.gep(b.gep(buf, 1), INT64_MAX);
    b.ret();
    module.finalize();
    expectGuestFault(module, "pointer offset out of range", 2);
}

TEST(ExecSemantics, DynamicGepOverflowFaults)
{
    Module module;
    IRBuilder b(module);
    b.createFunction("main", 0);
    const Reg buf = b.gep(b.alloc(2), 1);
    b.gepDyn(buf, b.constInt(INT64_MAX));
    b.ret();
    module.finalize();
    expectGuestFault(module, "pointer offset out of range", 3);
}

TEST(ExecSemantics, GepPastOffsetWidthFaults)
{
    // An offset that fits int64 but not a pointer's 32-bit offset.
    {
        Module module;
        IRBuilder b(module);
        b.createFunction("main", 0);
        b.gep(b.alloc(2), std::int64_t{1} << 32);
        b.ret();
        module.finalize();
        expectGuestFault(module, "pointer offset out of range", 1);
    }
    {
        Module module;
        IRBuilder b(module);
        b.createFunction("main", 0);
        const Reg buf = b.alloc(2);
        b.gepDyn(buf, b.constInt(std::int64_t{1} << 32));
        b.ret();
        module.finalize();
        expectGuestFault(module, "pointer offset out of range", 2);
    }
}

TEST(ExecSemantics, HeapPastLimitFaultsWithoutAllocating)
{
    // The largest alloc the verifier admits: 2^32 - 1 cells, 64 GiB.
    {
        Module module;
        IRBuilder b(module);
        b.createFunction("main", 0);
        b.alloc(UINT32_MAX);
        b.ret();
        module.finalize();
        expectGuestFault(module, "heap limit", 0);
    }
    // Globals count: beside one global cell, the whole limit does not
    // fit.
    {
        Module module;
        module.addGlobal("g", 1);
        IRBuilder b(module);
        b.createFunction("main", 0);
        b.alloc(Interpreter::kHeapLimitCells);
        b.ret();
        module.finalize();
        expectGuestFault(module, "heap limit", 0);
    }
    // A global past the limit faults before main starts.
    {
        Module module;
        module.addGlobal("g", UINT32_MAX);
        IRBuilder b(module);
        b.createFunction("main", 0);
        b.ret();
        module.finalize();
        expectGuestFault(module, "heap limit", 0);
    }
}

TEST(ExecSemantics, DynamicInputIndexWraps)
{
    // INT64_MAX + 1 wraps to INT64_MIN, which is 1 modulo 3.
    Module module;
    IRBuilder b(module);
    b.createFunction("main", 0);
    b.output(b.inputDyn(b.constInt(INT64_MAX), 1));
    b.ret();
    module.finalize();

    ExecConfig config;
    config.input = {5, 6, 7};
    const auto result = run(module, config);
    ASSERT_TRUE(result.finished());
    ASSERT_EQ(result.outputs.size(), 1u);
    EXPECT_EQ(result.outputs[0].second, 6);
}

TEST(ExecSemantics, NonScalarIndexReadsZero)
{
    // A GEP or Input index register that holds a pointer, a function
    // pointer or a thread handle reads as index 0.  The pointer is
    // (object 1, offset 3), so reading its payload as a scalar would
    // not give 0.
    Module module;
    IRBuilder b(module);
    Function *worker = b.createFunction("worker", 0);
    b.ret();
    b.createFunction("main", 0);
    const Reg buf = b.alloc(4);
    b.store(b.gep(buf, 0), b.constInt(11));
    b.store(b.gep(buf, 1), b.constInt(22));
    const Reg ptr = b.gep(b.alloc(4), 3);
    const Reg func = b.funcAddr(worker);
    const Reg handle = b.spawn(worker);
    for (const Reg index : {ptr, func, handle}) {
        b.output(b.load(b.gepDyn(buf, index)));
        b.output(b.inputDyn(index, 1));
    }
    b.join(handle);
    b.ret();
    module.finalize();

    ExecConfig config;
    config.input = {5, 6, 7};
    const auto result = run(module, config);
    ASSERT_TRUE(result.finished());
    ASSERT_EQ(result.outputs.size(), 6u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(result.outputs[2 * i].second, 11);
        EXPECT_EQ(result.outputs[2 * i + 1].second, 6);
    }
}

TEST(ExecSemantics, EventClassMapping)
{
    EXPECT_EQ(eventClassOf(Opcode::Load), EventClass::Load);
    EXPECT_EQ(eventClassOf(Opcode::Store), EventClass::Store);
    EXPECT_EQ(eventClassOf(Opcode::Lock), EventClass::Lock);
    EXPECT_EQ(eventClassOf(Opcode::Unlock), EventClass::Unlock);
    EXPECT_EQ(eventClassOf(Opcode::Spawn), EventClass::Spawn);
    EXPECT_EQ(eventClassOf(Opcode::Join), EventClass::Join);
    EXPECT_EQ(eventClassOf(Opcode::Call), EventClass::Call);
    EXPECT_EQ(eventClassOf(Opcode::ICall), EventClass::Call);
    EXPECT_EQ(eventClassOf(Opcode::Ret), EventClass::Ret);
    EXPECT_EQ(eventClassOf(Opcode::Output), EventClass::Output);
    EXPECT_EQ(eventClassOf(Opcode::BinOp), EventClass::Other);
    EXPECT_EQ(eventClassOf(Opcode::Alloc), EventClass::Other);
}

TEST(ExecSemantics, ValueTagsAndTruthiness)
{
    EXPECT_TRUE(Value::scalar(5).truthy());
    EXPECT_FALSE(Value::scalar(0).truthy());
    EXPECT_TRUE(Value::pointer(0, 0).truthy());
    EXPECT_TRUE(Value::funcPtr(0).truthy());
    EXPECT_TRUE(Value::thread(0).truthy());
    EXPECT_TRUE(Value::scalar(3) == Value::scalar(3));
    EXPECT_FALSE(Value::scalar(3) == Value::pointer(3, 0));
    EXPECT_TRUE(Value::pointer(1, 2) == Value::pointer(1, 2));
    EXPECT_FALSE(Value::pointer(1, 2) == Value::pointer(1, 3));
}

TEST(ExecSemantics, EncodedValuesAreDistinctAcrossKinds)
{
    const auto scalar = Interpreter::encodeValue(Value::scalar(5));
    const auto pointer = Interpreter::encodeValue(Value::pointer(0, 5));
    const auto func = Interpreter::encodeValue(Value::funcPtr(5));
    const auto thread = Interpreter::encodeValue(Value::thread(5));
    EXPECT_NE(scalar, pointer);
    EXPECT_NE(pointer, func);
    EXPECT_NE(func, thread);
    EXPECT_NE(scalar, thread);
}

TEST(ExecSemantics, ManyThreadsAllRetire)
{
    Module module;
    IRBuilder b(module);
    Function *worker = b.createFunction("worker", 1);
    b.ret(b.mul(0, b.constInt(2)));
    Function *main = b.createFunction("main", 0);
    BasicBlock *spawnLoop = b.createBlock(main, "spawnLoop");
    BasicBlock *spawnBody = b.createBlock(main, "spawnBody");
    BasicBlock *joinLoop = b.createBlock(main, "joinLoop");
    BasicBlock *joinBody = b.createBlock(main, "joinBody");
    BasicBlock *done = b.createBlock(main, "done");
    const int kThreads = 24;
    const Reg handles = b.alloc(kThreads);
    const Reg i = b.constInt(0);
    const Reg n = b.constInt(kThreads);
    const Reg one = b.constInt(1);
    const Reg total = b.constInt(0);
    b.br(spawnLoop);
    b.setInsertPoint(spawnLoop);
    b.condBr(b.lt(i, n), spawnBody, joinLoop);
    b.setInsertPoint(spawnBody);
    b.store(b.gepDyn(handles, i), b.spawn(worker, {i}));
    b.binopTo(i, BinOpKind::Add, i, one);
    b.br(spawnLoop);
    b.setInsertPoint(joinLoop);
    b.constTo(i, 0);
    b.br(joinBody);
    b.setInsertPoint(joinBody);
    const Reg v = b.join(b.load(b.gepDyn(handles, i)));
    b.binopTo(total, BinOpKind::Add, total, v);
    b.binopTo(i, BinOpKind::Add, i, one);
    const Reg more = b.lt(i, n);
    BasicBlock *after = b.createBlock(main, "after");
    b.condBr(more, joinBody, after);
    b.setInsertPoint(after);
    b.br(done);
    b.setInsertPoint(done);
    b.output(total);
    b.ret();
    module.finalize();

    const auto result = run(module);
    ASSERT_TRUE(result.finished()) << result.abortReason;
    EXPECT_EQ(result.numThreads, kThreads + 1u);
    EXPECT_EQ(result.outputs[0].second, kThreads * (kThreads - 1));
}

} // namespace
} // namespace oha::exec
