/**
 * @file
 * Instruction set of the OHA intermediate representation.
 *
 * The IR is a compact register machine chosen so that every analysis
 * in the paper is expressible over it: loads/stores for points-to,
 * race detection and slicing; direct and indirect calls for callee-set
 * and call-context invariants; lock/unlock and spawn/join for the
 * lockset and may-happen-in-parallel analyses; Output instructions as
 * observable slice endpoints.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/common.h"

namespace oha::ir {

/** Per-function virtual register index. */
using Reg = std::uint32_t;

/** Sentinel for "no register operand". */
constexpr Reg kNoReg = static_cast<Reg>(-1);

/** Opcode of an IR instruction. */
enum class Opcode : std::uint8_t
{
    Alloc,      ///< dest = new object with `imm` cells (allocation site)
    ConstInt,   ///< dest = imm
    Assign,     ///< dest = a
    BinOp,      ///< dest = a <binop> b
    GlobalAddr, ///< dest = address of global `globalId`
    FuncAddr,   ///< dest = function pointer to `callee`
    Gep,        ///< dest = &a[field]; field = imm, or dynamic via reg b
    Load,       ///< dest = *a
    Store,      ///< *a = b
    Call,       ///< dest = callee(args...)
    ICall,      ///< dest = (*a)(args...)
    Ret,        ///< return a (or void when a == kNoReg)
    Br,         ///< goto target
    CondBr,     ///< if (a != 0) goto target else goto target2
    Lock,       ///< acquire mutex object *a points to
    Unlock,     ///< release mutex object *a points to
    Spawn,      ///< dest = spawn thread running callee(args...)
    Join,       ///< dest = join thread handle a (yields its return value)
    Output,     ///< emit value a to the observable output stream
    Input,      ///< dest = input word at index (imm + value(b) if b set)
};

/** Arithmetic / relational operator for Opcode::BinOp. */
enum class BinOpKind : std::uint8_t
{
    Add, Sub, Mul, Div, Mod,
    And, Or, Xor, Shl, Shr,
    Lt, Le, Gt, Ge, Eq, Ne,
};

/**
 * One IR instruction.  A plain struct: instructions are stored by
 * value inside their basic block and identified module-wide by `id`
 * (assigned by Module::finalize()).
 */
struct Instruction
{
    Opcode op = Opcode::ConstInt;
    /** Module-unique id; valid after Module::finalize(). */
    InstrId id = kNoInstr;
    /** Enclosing block id; valid after Module::finalize(). */
    BlockId block = kNoBlock;
    /** Enclosing function id; valid after Module::finalize(). */
    FuncId func = kNoFunc;

    Reg dest = kNoReg;
    Reg a = kNoReg;
    Reg b = kNoReg;
    std::vector<Reg> args;

    std::int64_t imm = 0;
    BinOpKind binop = BinOpKind::Add;
    FuncId callee = kNoFunc;
    std::uint32_t globalId = static_cast<std::uint32_t>(-1);
    BlockId target = kNoBlock;
    BlockId target2 = kNoBlock;

    /** True for instructions that must terminate a basic block. */
    bool
    isTerminator() const
    {
        return op == Opcode::Br || op == Opcode::CondBr ||
               op == Opcode::Ret;
    }

    /** True for Load/Store — the events a race detector instruments. */
    bool
    isMemAccess() const
    {
        return op == Opcode::Load || op == Opcode::Store;
    }

    /** True for any direct or indirect call (not Spawn). */
    bool
    isCall() const
    {
        return op == Opcode::Call || op == Opcode::ICall;
    }

    /** Collect the registers this instruction reads. */
    void
    usedRegs(std::vector<Reg> &out) const
    {
        out.clear();
        auto add = [&](Reg r) {
            if (r != kNoReg)
                out.push_back(r);
        };
        switch (op) {
          case Opcode::Alloc:
          case Opcode::ConstInt:
          case Opcode::GlobalAddr:
          case Opcode::FuncAddr:
          case Opcode::Br:
            break;
          case Opcode::Input:
            add(b);
            break;
          case Opcode::Assign:
          case Opcode::Load:
          case Opcode::Lock:
          case Opcode::Unlock:
          case Opcode::CondBr:
          case Opcode::Ret:
          case Opcode::Output:
          case Opcode::Join:
            add(a);
            break;
          case Opcode::BinOp:
          case Opcode::Store:
            add(a);
            add(b);
            break;
          case Opcode::Gep:
            add(a);
            add(b);
            break;
          case Opcode::Call:
          case Opcode::Spawn:
            for (Reg r : args)
                add(r);
            break;
          case Opcode::ICall:
            add(a);
            for (Reg r : args)
                add(r);
            break;
        }
    }

    /** Register this instruction defines, or kNoReg. */
    Reg definedReg() const { return dest; }
};

/** Printable mnemonic for @p op. */
const char *opcodeName(Opcode op);

/** Printable symbol for @p kind ("+", "<=", ...). */
const char *binopName(BinOpKind kind);

/** Evaluate a binary operator on two 64-bit values.  Guest arithmetic
 *  is total: Add/Sub/Mul/Shl wrap modulo 2^64, div/mod by 0 give 0,
 *  and INT64_MIN / -1 gives INT64_MIN (mod: 0) instead of trapping.
 *  Inline: this sits under the interpreter's most common opcode. */
inline std::int64_t
evalBinOp(BinOpKind kind, std::int64_t lhs, std::int64_t rhs)
{
    const auto ulhs = static_cast<std::uint64_t>(lhs);
    const auto urhs = static_cast<std::uint64_t>(rhs);
    switch (kind) {
      case BinOpKind::Add: return static_cast<std::int64_t>(ulhs + urhs);
      case BinOpKind::Sub: return static_cast<std::int64_t>(ulhs - urhs);
      case BinOpKind::Mul: return static_cast<std::int64_t>(ulhs * urhs);
      case BinOpKind::Div:
        if (rhs == 0)
            return 0;
        if (rhs == -1)
            return static_cast<std::int64_t>(0 - ulhs);
        return lhs / rhs;
      case BinOpKind::Mod: return rhs == 0 || rhs == -1 ? 0 : lhs % rhs;
      case BinOpKind::And: return lhs & rhs;
      case BinOpKind::Or: return lhs | rhs;
      case BinOpKind::Xor: return lhs ^ rhs;
      case BinOpKind::Shl:
        return static_cast<std::int64_t>(ulhs << (rhs & 63));
      case BinOpKind::Shr:
        return static_cast<std::int64_t>(
            static_cast<std::uint64_t>(lhs) >> (rhs & 63));
      case BinOpKind::Lt: return lhs < rhs;
      case BinOpKind::Le: return lhs <= rhs;
      case BinOpKind::Gt: return lhs > rhs;
      case BinOpKind::Ge: return lhs >= rhs;
      case BinOpKind::Eq: return lhs == rhs;
      case BinOpKind::Ne: return lhs != rhs;
    }
    return 0;
}

} // namespace oha::ir
