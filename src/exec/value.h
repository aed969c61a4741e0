/**
 * @file
 * Runtime values of the OHA interpreter.
 *
 * A Value is a tagged union: scalar integer, pointer (object id +
 * cell offset), function pointer, or thread handle.  Tagging keeps
 * the interpreter memory-safe: dereferencing a non-pointer is a
 * detected runtime error rather than undefined behaviour.
 *
 * A Value is 16 bytes: the kind and the FuncPtr/Thread index, then a
 * union of the scalar with the pointer's (object, offset) pair.  Only
 * the payload a kind defines may be read; the interpreter reads a
 * register's scalar as `isScalar() ? num : 0` where the kind is not
 * checked first.
 */

#pragma once

#include <cstdint>

#include "support/common.h"

namespace oha::exec {

/** Discriminator of a runtime Value. */
enum class ValueKind : std::uint8_t
{
    Scalar,  ///< 64-bit signed integer
    Pointer, ///< (object, offset) reference into the object heap
    FuncPtr, ///< function pointer
    Thread,  ///< thread handle produced by Spawn
};

/** Dynamic object id in the interpreter heap. */
using ObjectId = std::uint32_t;

/** A tagged runtime value. */
struct Value
{
    ValueKind kind = ValueKind::Scalar;
    std::uint32_t idx = 0;     ///< FuncPtr: FuncId; Thread: ThreadId
    union
    {
        std::int64_t num = 0;  ///< Scalar payload
        struct
        {
            ObjectId obj;      ///< Pointer payload: object id
            std::uint32_t off; ///< Pointer payload: cell offset
        };
    };

    static Value
    scalar(std::int64_t v)
    {
        Value value;
        value.kind = ValueKind::Scalar;
        value.num = v;
        return value;
    }

    static Value
    pointer(ObjectId obj, std::uint32_t off)
    {
        Value value;
        value.kind = ValueKind::Pointer;
        value.obj = obj;
        value.off = off;
        return value;
    }

    static Value
    funcPtr(FuncId func)
    {
        Value value;
        value.kind = ValueKind::FuncPtr;
        value.idx = func;
        return value;
    }

    static Value
    thread(ThreadId tid)
    {
        Value value;
        value.kind = ValueKind::Thread;
        value.idx = tid;
        return value;
    }

    bool isScalar() const { return kind == ValueKind::Scalar; }
    bool isPointer() const { return kind == ValueKind::Pointer; }
    bool isFuncPtr() const { return kind == ValueKind::FuncPtr; }
    bool isThread() const { return kind == ValueKind::Thread; }

    /** Truthiness for CondBr: non-zero scalar, or any non-scalar. */
    bool
    truthy() const
    {
        return kind != ValueKind::Scalar || num != 0;
    }

    /** Structural equality (used by pointer comparisons). */
    bool
    operator==(const Value &other) const
    {
        if (kind != other.kind)
            return false;
        switch (kind) {
          case ValueKind::Scalar: return num == other.num;
          case ValueKind::Pointer:
            return obj == other.obj && off == other.off;
          case ValueKind::FuncPtr:
          case ValueKind::Thread: return idx == other.idx;
        }
        return false;
    }
};

static_assert(sizeof(Value) == 16);

} // namespace oha::exec
