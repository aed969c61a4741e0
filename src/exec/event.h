/**
 * @file
 * The instrumentation interface between the interpreter and dynamic
 * analysis tools.
 *
 * Dynamic analysis in the paper is "instrumenting a binary with
 * additional checks" (Section 2.3); here a Tool subscribes to runtime
 * events, and an InstrumentationPlan says which instruction / block
 * sites are instrumented at all.  Eliding a check — the core
 * optimization of hybrid analysis — is simply clearing its bit in the
 * plan, after which the tool never sees the event (and, exactly as in
 * Figure 2 of the paper, loses any metadata it would have recorded).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exec/value.h"
#include "ir/module.h"
#include "support/common.h"

namespace oha::exec {

class Interpreter;

/**
 * Structured metadata attached to an abort request.  A plain-data
 * mirror of the aborting tool's diagnosis (for the invariant checker,
 * a dyn::Violation): the field meanings are owned by the tool that
 * raised the abort, the execution layer only carries them through to
 * RunResult::abortMeta so drivers can act on *why* a speculative run
 * died without parsing the reason string.  Kept POD so recorded and
 * replayed runs can compare it field-for-field.
 */
struct AbortMetadata
{
    std::uint32_t kind = 0;     ///< tool-defined discriminator (0 = none)
    std::uint64_t site = 0;     ///< primary site (instruction/block id)
    std::uint64_t aux = 0;      ///< secondary site (e.g. partner lock)
    std::uint64_t observed = 0; ///< offending observed value
    std::uint32_t thread = 0;   ///< thread that tripped the check

    bool operator==(const AbortMetadata &other) const = default;
};

/**
 * The control surface an execution offers to its tools: the live
 * Interpreter and each of its attachment groups (interpreter.h)
 * implement it, so a tool that needs to stop the execution — the
 * invariant checker on a violated speculation — stops its own group.
 */
class ExecutionControl
{
  public:
    virtual ~ExecutionControl() = default;

    /** Stop the execution/replay from inside a tool callback.  The
     *  current instruction's remaining deliveries still happen; the
     *  run ends at the next instruction boundary. */
    virtual void requestAbort(std::string reason) = 0;

    /** As above, with structured metadata surfaced through
     *  RunResult::abortMeta.  The default drops the metadata, so
     *  ExecutionControl implementations that predate it (and test
     *  doubles) keep working unchanged. */
    virtual void
    requestAbort(std::string reason, const AbortMetadata &meta)
    {
        (void)meta;
        requestAbort(std::move(reason));
    }
};

/** Classes of runtime events, used for cost accounting. */
enum class EventClass : std::uint8_t
{
    Load, Store, Lock, Unlock, Spawn, Join, Call, Ret, BlockEnter,
    Output, Other,
};

constexpr std::size_t kNumEventClasses = 11;

/** Per-class event counters for one execution / one tool attachment. */
struct EventCounts
{
    std::uint64_t counts[kNumEventClasses] = {};

    std::uint64_t &
    operator[](EventClass cls)
    {
        return counts[static_cast<std::size_t>(cls)];
    }

    std::uint64_t
    operator[](EventClass cls) const
    {
        return counts[static_cast<std::size_t>(cls)];
    }

    std::uint64_t
    total() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t c : counts)
            sum += c;
        return sum;
    }

    void
    add(const EventCounts &other)
    {
        for (std::size_t i = 0; i < kNumEventClasses; ++i)
            counts[i] += other.counts[i];
    }
};

/** EventClass an instruction belongs to when it fires. */
EventClass eventClassOf(ir::Opcode op);

/**
 * Context passed to Tool::onEvent.  Which fields are meaningful
 * depends on the opcode:
 *  - Load/Store/Lock/Unlock: obj/off are the resolved address; for
 *    Store, value is the stored value; for Load, the loaded value.
 *  - Call/ICall: calleeResolved is the target, frame2 the new callee
 *    frame id (for argument def-use linking).
 *  - Ret: frame2 is the caller frame id and callInstr the call site
 *    whose destination receives the value.
 *  - Spawn/Join: otherTid is the child / joined thread.
 *  - Output: value is the emitted value.
 */
struct EventCtx
{
    ThreadId tid = 0;
    const ir::Instruction *instr = nullptr;
    std::uint64_t frameId = 0;

    ObjectId obj = 0;
    std::uint32_t off = 0;
    Value value;

    FuncId calleeResolved = kNoFunc;
    std::uint64_t frame2 = 0;
    const ir::Instruction *callInstr = nullptr;
    ThreadId otherTid = 0;
};

/**
 * A dynamic analysis tool.  All hooks default to no-ops; tools
 * override what they need.  Tools may call Interpreter::requestAbort
 * from a hook to stop the execution (used for invariant violations).
 */
class Tool
{
  public:
    virtual ~Tool() = default;

    /** An instrumented instruction executed. */
    virtual void onEvent(const EventCtx &ctx) { (void)ctx; }

    /** Control entered an instrumented basic block. */
    virtual void
    onBlockEnter(ThreadId tid, BlockId block)
    {
        (void)tid;
        (void)block;
    }

    /** A thread began running (including the main thread). */
    virtual void
    onThreadStart(ThreadId tid, ThreadId parent, InstrId spawnSite)
    {
        (void)tid;
        (void)parent;
        (void)spawnSite;
    }

    /** A thread ran to completion. */
    virtual void onThreadFinish(ThreadId tid) { (void)tid; }
};

/**
 * Which sites are instrumented.  Per-instruction and per-block byte
 * maps over module-unique ids — bytes, not vector<bool>, because
 * coversInstr() sits on the per-event dispatch path and a bit-proxy
 * read (shift + mask through a proxy object) is measurably slower
 * than one byte load.  Site counts are maintained incrementally so
 * numInstrSites()/numBlockSites() are O(1).
 */
class InstrumentationPlan
{
  public:
    InstrumentationPlan() = default;

    /** Plan instrumenting every instruction and block. */
    static InstrumentationPlan
    all(const ir::Module &module)
    {
        InstrumentationPlan plan;
        plan.instrs_.assign(module.numInstrs(), 1);
        plan.blocks_.assign(module.numBlocks(), 1);
        plan.instrSites_ = module.numInstrs();
        plan.blockSites_ = module.numBlocks();
        return plan;
    }

    /** Plan instrumenting nothing. */
    static InstrumentationPlan
    none(const ir::Module &module)
    {
        InstrumentationPlan plan;
        plan.instrs_.assign(module.numInstrs(), 0);
        plan.blocks_.assign(module.numBlocks(), 0);
        return plan;
    }

    bool
    coversInstr(InstrId id) const
    {
        return id < instrs_.size() && instrs_[id];
    }

    bool
    coversBlock(BlockId id) const
    {
        return id < blocks_.size() && blocks_[id];
    }

    void
    setInstr(InstrId id, bool on)
    {
        OHA_ASSERT(id < instrs_.size());
        instrSites_ -= instrs_[id];
        instrs_[id] = on;
        instrSites_ += instrs_[id];
    }

    void
    setBlock(BlockId id, bool on)
    {
        OHA_ASSERT(id < blocks_.size());
        blockSites_ -= blocks_[id];
        blocks_[id] = on;
        blockSites_ += blocks_[id];
    }

    /** Number of instrumented instruction sites. */
    std::uint64_t numInstrSites() const { return instrSites_; }

    /** Number of instrumented block sites. */
    std::uint64_t numBlockSites() const { return blockSites_; }

  private:
    std::vector<std::uint8_t> instrs_;
    std::vector<std::uint8_t> blocks_;
    std::uint64_t instrSites_ = 0;
    std::uint64_t blockSites_ = 0;
};

} // namespace oha::exec
