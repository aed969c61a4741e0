/**
 * @file
 * The interpreter's view of a finalized module: one dense op per
 * instruction, indexed by InstrId.
 *
 * Instruction ids are contiguous within a block, so the op after
 * `pc` in program order is `pc + 1` and a block is entered by jumping
 * to the id of its first instruction.  Each op carries only what the
 * interpreter reads: BinOp is split into one op per operator and Gep
 * into its immediate and register forms, so one switch dispatches
 * straight to the arithmetic.  Module::finalize() builds the table
 * once; like the module it is immutable afterwards and shared
 * read-only across threads.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "ir/instruction.h"

namespace oha::ir {

/** Interpreter operation: an Opcode, with BinOp and Gep refined. */
enum class Op : std::uint8_t
{
    // One op per BinOpKind, in BinOpKind order.
    Add, Sub, Mul, Div, Mod, And, Or, Xor, Shl, Shr,
    Lt, Le, Gt, Ge, Eq, Ne,
    Alloc, ConstInt, Assign, GlobalAddr, FuncAddr,
    GepImm, ///< dest = &a[imm]
    GepReg, ///< dest = &a[value(b)]
    Load, Store, Call, ICall, Ret, Br, CondBr,
    Lock, Unlock, Spawn, Join, Output, Input,
};

/** A control-flow target: the block and its first instruction. */
struct DecodedTarget
{
    InstrId pc;
    BlockId block;
};

/** Call, ICall or Spawn operands. */
struct DecodedCall
{
    FuncId callee;           ///< Call/Spawn; unused for ICall
    std::uint32_t argBegin;  ///< first argument in DecodedModule::args
    std::uint32_t argCount;
};

/** One decoded instruction (32 bytes). */
struct DecodedOp
{
    Op op = Op::ConstInt;
    Reg dest = kNoReg;
    Reg a = kNoReg;
    Reg b = kNoReg;
    union
    {
        /** Alloc cells, ConstInt value, GepImm field, Input index. */
        std::int64_t imm = 0;
        /** GlobalAddr global id, FuncAddr function id. */
        std::uint32_t index;
        /** Br: targets[0]; CondBr: taken, not taken. */
        DecodedTarget targets[2];
        DecodedCall call;
    };
};

/** Per-function facts a call needs. */
struct DecodedFunction
{
    DecodedTarget entry;
    std::uint32_t numRegs = 0;
    std::uint32_t numParams = 0;
};

class Module;

/** The decoded op table of one module. */
struct DecodedModule
{
    std::vector<DecodedOp> ops;            ///< indexed by InstrId
    std::vector<Reg> args;                 ///< call argument registers
    std::vector<DecodedFunction> functions; ///< indexed by FuncId
};

/** Decode @p module (ids assigned, verified). */
DecodedModule decodeModule(const Module &module);

} // namespace oha::ir
