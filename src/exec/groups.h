/**
 * @file
 * Run results and attachment groups: the part of the attach/run
 * surface that the live Interpreter (interpreter.h) and the
 * TraceReplayer (trace.h) share.
 *
 * An attachment group is a set of tools that stop together.  One pass
 * over an execution can drive several independent analysis
 * configurations, each its own group with its own ExecutionControl
 * (control(group)) and its own RunResult, so an abort requested
 * through one group's control stops only that group: at the next
 * instruction boundary the group's result is frozen — status, steps,
 * totalEvents, outputs, numThreads and its tools' `delivered` counts —
 * and its tools are dropped from the dispatch masks and the thread
 * lifecycle callbacks.  Every group's result is field-identical to a
 * standalone run of that group's attachments alone; the pass ends
 * early once every group has stopped.  Group 0 always exists:
 * attach(tool, plan) joins it, and the engine's own requestAbort is
 * group 0's control, so single-configuration callers never see groups
 * at all.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exec/event.h"

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

/** The attach/abort/run surface of an execution engine, with the
 *  group bookkeeping both engines share (see the file comment). */
class AttachmentGroups : public ExecutionControl
{
  public:
    using GroupId = std::size_t;

    AttachmentGroups(const AttachmentGroups &) = delete;
    AttachmentGroups &operator=(const AttachmentGroups &) = delete;
    ~AttachmentGroups() override;

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
     *  engine's own requestAbort. */
    ExecutionControl &control(GroupId group);

    /** Run every group; one result per group, indexed by GroupId. */
    virtual std::vector<RunResult> runGroups() = 0;

    /** Run every group; returns group 0's result. */
    RunResult run() { return std::move(runGroups().front()); }

    void requestAbort(std::string reason) override;
    void requestAbort(std::string reason,
                      const AbortMetadata &meta) override;

  protected:
    /** @p maxAttachments is the width of the engine's dispatch masks. */
    explicit AttachmentGroups(std::size_t maxAttachments);

    struct Attachment
    {
        Tool *tool;
        const InstrumentationPlan *plan;
        GroupId group;
    };

    /** Where a pass stands at an instruction boundary: what a group
     *  stopped there reports. */
    struct Boundary
    {
        std::uint64_t steps = 0;
        EventCounts totalEvents;
        std::uint32_t numThreads = 0;
        /** Lengths of the pass's output and schedule logs. */
        std::size_t outputs = 0;
        std::size_t schedule = 0;
    };

    const std::vector<Attachment> &attachments() const
    {
        return attachments_;
    }

    /** Some group has requested an abort that is not yet honoured. */
    bool abortPending() const { return abortPending_; }

    /** Groups not yet stopped (groups without tools included). */
    std::size_t liveGroups() const { return liveGroups_; }

    /** Mask bits (bit i = attachment i) of the tools of live groups. */
    std::uint64_t liveMask() const { return liveMask_; }

    /** Freeze every group with a pending abort at @p at — exactly
     *  where a standalone run of the group would stop — and drop its
     *  tools from liveMask().  Returns the dropped mask bits, which
     *  the engine clears from its dispatch tables. */
    std::uint64_t stopAbortedGroups(const Boundary &at);

    /** One result per group: a stopped group's frozen result, with
     *  the prefixes of @p end's outputs and schedule it saw; a live
     *  group @p end itself.  @p delivered holds per-attachment
     *  counts. */
    std::vector<RunResult>
    groupResults(RunResult end,
                 const std::vector<EventCounts> &delivered) const;

  private:
    class Group;

    std::vector<Attachment> attachments_;
    std::vector<std::unique_ptr<Group>> groups_;
    std::size_t maxAttachments_;
    bool abortPending_ = false;
    std::size_t liveGroups_ = 0;
    std::uint64_t liveMask_ = 0;
};

} // namespace oha::exec
