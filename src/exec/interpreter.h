/**
 * @file
 * The OHA execution engine: a deterministic multi-threaded
 * interpreter for OHA IR with pluggable instrumentation.
 *
 * Determinism is the foundation of the paper's speculation story:
 * an execution is a pure function of (module, input, schedule seed),
 * so "roll back and re-execute with traditional hybrid analysis"
 * (Section 2.3) is exact — the sound re-analysis sees the very same
 * interleaving the optimistic run mis-speculated on.  This plays the
 * role of the record/replay system the paper assumes.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exec/event.h"
#include "exec/value.h"
#include "ir/module.h"
#include "support/rng.h"

namespace oha::exec {

/** One scheduler decision: which thread ran, for how many steps. */
struct ScheduleStep
{
    ThreadId thread;
    std::uint32_t quantum;

    bool
    operator==(const ScheduleStep &other) const
    {
        return thread == other.thread && quantum == other.quantum;
    }
};

/** Inputs that fully determine an execution. */
struct ExecConfig
{
    /** Input word vector read by Input instructions. */
    std::vector<std::int64_t> input;
    /** Seed of the deterministic thread scheduler. */
    std::uint64_t scheduleSeed = 0;
    /** Hard cap on executed instructions (runaway protection). */
    std::uint64_t maxSteps = 200'000'000;
    /** Scheduler quantum bounds (instructions per slice). */
    std::uint32_t minQuantum = 16;
    std::uint32_t maxQuantum = 64;

    /** Capture the scheduler's decisions in RunResult::schedule.
     *  The seed already makes runs replayable; an explicit trace
     *  additionally allows replay under a *different* seed (classic
     *  record/replay, as rollback systems assume — Section 2.3). */
    bool recordSchedule = false;
    /** When non-empty, scheduling decisions are taken from this trace
     *  instead of the seeded RNG (the trace must come from a recorded
     *  run of the same module + input). */
    std::vector<ScheduleStep> replaySchedule;
};

/** Outcome and accounting of one execution. */
struct RunResult
{
    enum class Status
    {
        Finished,     ///< program ran to completion
        Aborted,      ///< a tool requested abort (invariant violation)
        RuntimeError, ///< the guest program faulted
        Deadlock,     ///< all live threads blocked
        StepLimit,    ///< maxSteps exceeded
    };

    Status status = Status::Finished;
    std::string abortReason;
    /** Structured metadata from the aborting tool (all-zero unless the
     *  abort came through the metadata-carrying requestAbort). */
    AbortMetadata abortMeta;

    /** (instruction, value) pairs emitted by Output, in order. */
    std::vector<std::pair<InstrId, std::int64_t>> outputs;

    /** Total guest instructions executed. */
    std::uint64_t steps = 0;
    /** All events that occurred, by class, instrumented or not. */
    EventCounts totalEvents;
    /** Events actually delivered, per attached tool. */
    std::vector<EventCounts> delivered;
    /** Number of threads ever created (main included). */
    std::uint32_t numThreads = 0;

    /** Scheduler trace (only when ExecConfig::recordSchedule). */
    std::vector<ScheduleStep> schedule;

    bool finished() const { return status == Status::Finished; }
};

class TraceRecorder;

/** Deterministic IR interpreter with instrumentation attachments. */
class Interpreter : public ExecutionControl
{
  public:
    Interpreter(const ir::Module &module, ExecConfig config);

    /**
     * Attach a tool filtered by @p plan.  Both must outlive run().
     * Tools are notified in attachment order.
     */
    void attach(Tool *tool, const InstrumentationPlan *plan);

    /** Attach a trace-capture sink (trace.h).  Unlike a Tool, the
     *  recorder sees every event unconditionally — before plan
     *  filtering — plus instruction-boundary markers, so the recorded
     *  stream can later be replayed under any plan.  Must outlive
     *  run(). */
    void setRecorder(TraceRecorder *recorder) { recorder_ = recorder; }

    /** Execute the program to completion (or abort). */
    RunResult run();

    /** Stop the execution from inside a tool callback. */
    void requestAbort(std::string reason) override;
    void requestAbort(std::string reason,
                      const AbortMetadata &meta) override;

    const ir::Module &module() const { return module_; }

    /** Allocation site of a heap object, or kNoInstr for globals. */
    InstrId objectAllocSite(ObjectId obj) const;

    /** Encode a value as a 64-bit observable (for Output records). */
    static std::int64_t encodeValue(const Value &value);

  private:
    /** One activation.  Its registers are the window
     *  [regBase, regEnd) of the thread's register stack. */
    struct Frame
    {
        std::uint64_t frameId = 0;
        std::uint32_t regBase = 0;
        std::uint32_t regEnd = 0;
        /** Next op to run; current only while the frame is not the
         *  one executing (the loop keeps the live pc in a local). */
        InstrId pc = kNoInstr;
        /** The Call/ICall that pushed the frame; kNoInstr for a
         *  thread's root frame. */
        InstrId callSite = kNoInstr;
    };

    enum class ThreadState : std::uint8_t
    {
        Runnable, BlockedOnLock, BlockedOnJoin, Finished,
    };

    struct ThreadCtx
    {
        ThreadId tid = 0;
        ThreadState state = ThreadState::Runnable;
        std::vector<Frame> frames;
        /** Register stack shared by all frames; grows, never shrinks,
         *  so calls and returns allocate nothing once warm. */
        std::vector<Value> regs;
        ObjectId waitObj = 0;
        ThreadId waitTid = 0;
        Value retVal;
        InstrId spawnSite = kNoInstr;
    };

    struct HeapObject
    {
        InstrId allocSite = kNoInstr;
        std::vector<Value> cells;
    };

    struct Attachment
    {
        Tool *tool;
        const InstrumentationPlan *plan;
    };

    /** Execute up to @p quantum instructions of thread @p tid,
     *  stopping early when it blocks, finishes, faults, aborts, or
     *  hits the step limit.  Specialized on whether a recorder and
     *  tools are attached, so a plain run carries no instrumentation
     *  test at all.  Returns the guest-fault message, or null. */
    template <bool kRecord, bool kTools>
    const char *runQuantum(ThreadId tid, std::uint64_t quantum);

    /** Push a frame for @p func on @p thread with a zeroed register
     *  window, except for the first @p numArgs slots, which the
     *  caller fills.  May grow the thread's register stack. */
    Frame &pushFrame(ThreadCtx &thread, const ir::DecodedFunction &func,
                     std::uint32_t numArgs, InstrId callSite);

    /** Create a thread running @p func with the arguments @p argRegs
     *  of @p parent's current frame; records and announces it and its
     *  entry block.  Its ThreadStart is the first record of the
     *  spawning step, so it takes the step flag @p step. */
    ThreadId spawnThread(FuncId func, const ir::Reg *argRegs,
                         std::uint32_t numArgs, InstrId spawnSite,
                         ThreadId parent, bool step);

    /** Merge the attachments' plans into per-site masks (bit i =
     *  attachment i).  Built only when tools are attached. */
    void buildDispatchTables();

    void fireEvent(const EventCtx &ctx, std::uint8_t mask, EventClass cls);
    void fireBlockEnter(ThreadId tid, BlockId block);

    ObjectId allocObject(InstrId site, std::uint32_t cells);

    const ir::Module &module_;
    const ir::DecodedModule &decoded_;
    ExecConfig config_;
    Rng rng_;

    std::vector<Attachment> attachments_;
    TraceRecorder *recorder_ = nullptr;
    /** Per-instruction and per-block OR of attachment cover bits;
     *  0 = no tool listens and the event path is skipped wholesale. */
    std::vector<std::uint8_t> instrMask_;
    std::vector<std::uint8_t> blockMask_;
    std::vector<ThreadCtx> threads_;
    std::vector<HeapObject> heap_;
    /** obj -> owning thread + 1, or 0 when free. */
    std::vector<std::uint32_t> lockOwner_;

    std::uint64_t nextFrameId_ = 1;
    std::uint64_t steps_ = 0;
    std::size_t scheduleCursor_ = 0;
    std::vector<ScheduleStep> schedule_;
    EventCounts totalEvents_;
    std::vector<EventCounts> delivered_;
    std::vector<std::pair<InstrId, std::int64_t>> outputs_;

    bool abortRequested_ = false;
    std::string abortReason_;
    AbortMetadata abortMeta_;
};

} // namespace oha::exec
