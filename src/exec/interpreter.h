/**
 * @file
 * The OHA execution engine: a deterministic multi-threaded
 * interpreter for OHA IR with pluggable instrumentation.
 *
 * Determinism is the foundation of the paper's speculation story:
 * an execution is a pure function of (module, input, schedule seed),
 * so "roll back and re-execute with traditional hybrid analysis"
 * (Section 2.3) is exact — the sound re-analysis sees the very same
 * interleaving the optimistic run mis-speculated on.  Seeded
 * re-execution plays the role of the record/replay system the paper
 * assumes: nothing is captured, and a replay (trace.h) is a re-run of
 * the recorded input.
 *
 * The interpreter is also the one engine that runs attachment groups.
 * An attachment group is a set of tools that stop together.  One run
 * can drive several independent analysis configurations, each its own
 * group with its own ExecutionControl (control(group)) and its own
 * RunResult, so an abort requested through one group's control stops
 * only that group: at the next instruction boundary the group's
 * result is frozen — status, steps, totalEvents, outputs, schedule,
 * numThreads and its tools' `delivered` counts — and its tools are
 * dropped from the dispatch masks and the thread lifecycle callbacks.
 * Every group's result is field-identical to a standalone run of that
 * group's attachments alone; the run ends early once every group has
 * stopped.  Group 0 always exists: attach(tool, plan) joins it, and
 * the interpreter's own requestAbort is group 0's control, so
 * single-configuration callers never see groups at all.
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

    /** Capture the scheduler's decisions in RunResult::schedule (the
     *  seed alone already makes a run repeatable; the trace lets
     *  tests pin the interleaving). */
    bool recordSchedule = false;
};

/**
 * Deterministic IR interpreter with instrumentation attachments,
 * grouped into attachment groups (see the file comment).
 */
class Interpreter : public ExecutionControl
{
  public:
    using GroupId = std::size_t;

    /** Attachments one run can drive (the width of the per-site
     *  dispatch masks), across all groups. */
    static constexpr std::size_t kMaxAttachments = 8;

    /** Heap cells one run may hold, globals included (16 bytes each,
     *  so 256 MiB).  An allocation past it faults with "heap limit"
     *  and allocates nothing. */
    static constexpr std::size_t kHeapLimitCells = std::size_t{1} << 24;

    Interpreter(const ir::Module &module, ExecConfig config);
    Interpreter(const Interpreter &) = delete;
    Interpreter &operator=(const Interpreter &) = delete;
    ~Interpreter() override;

    /** Attach a tool to group 0, filtered by @p plan.  Both must
     *  outlive the run. */
    void attach(Tool *tool, const InstrumentationPlan *plan)
    {
        attach(0, tool, plan);
    }

    /** Open a new, empty attachment group. */
    GroupId addGroup();

    /** Attach a tool to @p group.  Tools are notified in attachment
     *  order across all groups; a group's `delivered` vector lists
     *  its own tools in the order they were attached. */
    void attach(GroupId group, Tool *tool, const InstrumentationPlan *plan);

    /** The abort control of @p group; group 0's is equivalent to the
     *  interpreter's own requestAbort. */
    ExecutionControl &control(GroupId group);

    /** Execute the program through every group to completion, or
     *  until every group has aborted; one result per group, indexed
     *  by GroupId. */
    std::vector<RunResult> runGroups();

    /** Run every group; returns group 0's result. */
    RunResult run() { return std::move(runGroups().front()); }

    void requestAbort(std::string reason) override;
    void requestAbort(std::string reason,
                      const AbortMetadata &meta) override;

    const ir::Module &module() const { return module_; }

    /** Allocation site of a heap object, or kNoInstr for globals. */
    InstrId objectAllocSite(ObjectId obj) const;

    /** Encode a value as a 64-bit observable (RunResult::outputs). */
    static std::int64_t encodeValue(const Value &value);

  private:
    struct Attachment
    {
        Tool *tool;
        const InstrumentationPlan *plan;
        GroupId group;
    };

    class Group;

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

    /** An object's cells are [base, base + size) of cells_. */
    struct HeapObject
    {
        std::size_t base = 0;
        std::uint32_t size = 0;
        InstrId allocSite = kNoInstr;
    };

    /** Execute up to @p quantum instructions of thread @p tid,
     *  stopping early when it blocks, finishes, faults, aborts, or
     *  hits the step limit.  Specialized on whether tools are
     *  attached, so a plain run carries no instrumentation test at
     *  all.  Returns the guest-fault message, or null. */
    template <bool kTools>
    const char *runQuantum(ThreadId tid, std::uint64_t quantum);

    /** Run quanta until the program ends, deadlocks, hits the step
     *  limit or every group stops, setting @p end's status; the
     *  scheduler loop of runGroups.  Returns the guest-fault message,
     *  or null. */
    template <bool kTools>
    const char *runQuanta(RunResult &end);

    /** Move the running @p thread out of runnable_ into @p state
     *  (blocked or Finished). */
    void suspend(ThreadCtx &thread, ThreadState state);

    /** Make the blocked @p thread Runnable again. */
    void wake(ThreadCtx &thread);

    /** Push a frame for @p func on @p thread with a zeroed register
     *  window, except for the first @p numArgs slots, which the
     *  caller fills.  May grow the thread's register stack. */
    Frame &pushFrame(ThreadCtx &thread, const ir::DecodedFunction &func,
                     std::uint32_t numArgs, InstrId callSite);

    /** Create a thread running @p func with the arguments @p argRegs
     *  of @p parent's current frame; announces it and its entry
     *  block. */
    ThreadId spawnThread(FuncId func, const ir::Reg *argRegs,
                         std::uint32_t numArgs, InstrId spawnSite,
                         ThreadId parent);

    /** Merge the attachments' plans into per-site masks (bit i =
     *  attachment i).  Built only when tools are attached. */
    void buildDispatchTables();

    /** Freeze every group with a pending abort at the boundary
     *  @p executed steps into the current quantum — exactly where a
     *  standalone run of the group would stop — and drop its tools
     *  from liveMask_ and the dispatch tables. */
    void stopAbortedGroups(std::uint64_t executed);

    /** One result per group: a stopped group's frozen result, with
     *  the prefixes of @p end's outputs and schedule it saw; a live
     *  group @p end itself, with its tools' delivery counts. */
    std::vector<RunResult> groupResults(RunResult end) const;

    void fireEvent(const EventCtx &ctx, std::uint8_t mask, EventClass cls);
    void fireBlockEnter(ThreadId tid, BlockId block);

    /** Whether @p cells more cells keep the heap within
     *  kHeapLimitCells; allocObject's callers check it first. */
    bool heapFits(std::uint64_t cells) const
    {
        return cells <= kHeapLimitCells - cells_.size();
    }

    ObjectId allocObject(InstrId site, std::uint32_t cells);

    const ir::Module &module_;
    const ir::DecodedModule &decoded_;
    ExecConfig config_;
    Rng rng_;

    std::vector<Attachment> attachments_;
    std::vector<std::unique_ptr<Group>> groups_;
    /** Some group has requested an abort that is not yet honoured. */
    bool abortPending_ = false;
    /** Groups not yet stopped (groups without tools included). */
    std::size_t liveGroups_ = 0;
    /** Mask bits (bit i = attachment i) of the tools of live groups. */
    std::uint8_t liveMask_ = 0;
    /** Per-instruction and per-block OR of attachment cover bits;
     *  0 = no tool listens and the event path is skipped wholesale. */
    std::vector<std::uint8_t> instrMask_;
    std::vector<std::uint8_t> blockMask_;
    std::vector<ThreadCtx> threads_;
    /** Tids of the Runnable threads, ascending: the scheduler picks
     *  from it, so it changes only where a thread's state does. */
    std::vector<ThreadId> runnable_;
    /** Threads not yet Finished; with runnable_ empty, nonzero means
     *  deadlock. */
    std::uint32_t liveThreads_ = 0;
    std::vector<HeapObject> heap_;
    /** Every object's cells, in allocation order.  It may reallocate
     *  on an Alloc, so a cell pointer is not held across one. */
    std::vector<Value> cells_;
    /** obj -> owning thread + 1, or 0 when free. */
    std::vector<std::uint32_t> lockOwner_;

    std::uint64_t nextFrameId_ = 1;
    std::uint64_t steps_ = 0;
    std::vector<ScheduleStep> schedule_;
    /** Events so far by class, except Other, which withOther derives
     *  when a result is made. */
    EventCounts totalEvents_;
    std::vector<EventCounts> delivered_;
    std::vector<std::pair<InstrId, std::int64_t>> outputs_;
};

} // namespace oha::exec
