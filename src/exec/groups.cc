#include "exec/groups.h"

#include <type_traits>
#include <utility>

namespace oha::exec {

/** One attachment group's abort control, plus the result frozen when
 *  the engine stops the group at an instruction boundary. */
class AttachmentGroups::Group final : public ExecutionControl
{
  public:
    explicit Group(bool *abortPending) : abortPending_(abortPending) {}
    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    void
    requestAbort(std::string reason) override
    {
        if (!abortRequested) {
            abortRequested = true;
            abortReason = std::move(reason);
            *abortPending_ = true;
        }
    }

    void
    requestAbort(std::string reason, const AbortMetadata &meta) override
    {
        if (!abortRequested) {
            abortMeta = meta;
            requestAbort(std::move(reason));
        }
    }

    bool abortRequested = false;
    std::string abortReason;
    AbortMetadata abortMeta;
    /** Dispatch-mask bits of this group's attachments. */
    std::uint64_t bits = 0;
    bool stopped = false;
    /** Valid once stopped; outputs and schedule are filled in at the
     *  end, from the logged prefix lengths. */
    RunResult result;
    std::size_t outputsAtStop = 0;
    std::size_t scheduleAtStop = 0;

  private:
    bool *abortPending_;
};

AttachmentGroups::AttachmentGroups(std::size_t maxAttachments)
    : maxAttachments_(maxAttachments)
{
    OHA_ASSERT(maxAttachments <= 64, "group bits are 64-bit masks");
    addGroup();
}

AttachmentGroups::~AttachmentGroups() = default;

AttachmentGroups::GroupId
AttachmentGroups::addGroup()
{
    groups_.push_back(std::make_unique<Group>(&abortPending_));
    ++liveGroups_;
    return groups_.size() - 1;
}

void
AttachmentGroups::attach(GroupId group, Tool *tool,
                         const InstrumentationPlan *plan)
{
    OHA_ASSERT(tool && plan && group < groups_.size());
    OHA_ASSERT(attachments_.size() < maxAttachments_,
               "more attachments than the dispatch masks hold");
    const std::uint64_t bit = std::uint64_t{1} << attachments_.size();
    groups_[group]->bits |= bit;
    liveMask_ |= bit;
    attachments_.push_back({tool, plan, group});
}

ExecutionControl &
AttachmentGroups::control(GroupId group)
{
    OHA_ASSERT(group < groups_.size());
    return *groups_[group];
}

void
AttachmentGroups::requestAbort(std::string reason)
{
    groups_[0]->requestAbort(std::move(reason));
}

void
AttachmentGroups::requestAbort(std::string reason, const AbortMetadata &meta)
{
    groups_[0]->requestAbort(std::move(reason), meta);
}

std::uint64_t
AttachmentGroups::stopAbortedGroups(const Boundary &at)
{
    abortPending_ = false;
    std::uint64_t dropped = 0;
    for (const std::unique_ptr<Group> &group : groups_) {
        if (group->stopped || !group->abortRequested)
            continue;
        group->stopped = true;
        --liveGroups_;
        RunResult &result = group->result;
        result.status = RunResult::Status::Aborted;
        result.abortReason = group->abortReason;
        result.abortMeta = group->abortMeta;
        result.steps = at.steps;
        result.totalEvents = at.totalEvents;
        result.numThreads = at.numThreads;
        group->outputsAtStop = at.outputs;
        group->scheduleAtStop = at.schedule;
        dropped |= group->bits;
    }
    liveMask_ &= ~dropped;
    return dropped;
}

std::vector<RunResult>
AttachmentGroups::groupResults(RunResult end,
                               const std::vector<EventCounts> &delivered) const
{
    std::size_t lastLive = groups_.size();
    for (std::size_t g = 0; g < groups_.size(); ++g)
        if (!groups_[g]->stopped)
            lastLive = g;

    std::vector<RunResult> results(groups_.size());
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        const Group &group = *groups_[g];
        RunResult &result = results[g];
        if (group.stopped) {
            result = group.result;
            const auto prefix = [](const auto &log, std::size_t n) {
                return std::decay_t<decltype(log)>(
                    log.begin(), log.begin() + static_cast<std::ptrdiff_t>(n));
            };
            result.outputs = prefix(end.outputs, group.outputsAtStop);
            result.schedule = prefix(end.schedule, group.scheduleAtStop);
        } else if (g != lastLive) {
            result = end;
        }
    }
    // The last live group takes the end state itself (no copy).
    if (lastLive < groups_.size())
        results[lastLive] = std::move(end);

    for (std::size_t i = 0; i < attachments_.size(); ++i)
        results[attachments_[i].group].delivered.push_back(delivered[i]);
    return results;
}

} // namespace oha::exec
