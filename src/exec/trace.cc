#include "exec/trace.h"

#include <bit>
#include <utility>

#include "support/common.h"

namespace oha::exec {

// ----------------------------------------------------------------- capture

void
TraceRecorder::commit(Writer writer)
{
    buffer_.setCursor(writer.ptr_);
    prevInstr_ = writer.prevInstr_;
    prevObj_ = writer.prevObj_;
    prevBlock_ = writer.prevBlock_;
}

void
TraceRecorder::prepare()
{
    // Stop writers for the out-of-line path when the next record
    // might not fit in the chunk.
    buffer_.room(kMaxRecordBytes);
    limit_ = buffer_.chunkEnd() - kMaxRecordBytes;
}

RecordedTrace
recordRun(const ir::Module &module, const ExecConfig &config)
{
    RecordedTrace trace;
    TraceRecorder recorder;
    Interpreter interp(module, config);
    interp.setRecorder(&recorder);
    trace.result = interp.run();
    trace.events = recorder.take();
    return trace;
}

// ------------------------------------------------------------------ replay

TraceReplayer::TraceReplayer(const ir::Module &module,
                             const RecordedTrace &trace)
    : AttachmentGroups(kMaxAttachments), module_(module), trace_(trace)
{
}

std::vector<RunResult>
TraceReplayer::runGroups()
{
    // Same per-site dispatch snapshot as Interpreter::run(), widened
    // to one bit per attachment across all groups.
    struct Site
    {
        std::uint64_t mask;
        EventClass cls;
    };
    const std::size_t numInstrs = module_.numInstrs();
    const std::size_t numBlocks = module_.numBlocks();
    std::vector<Site> dispatch(numInstrs);
    for (InstrId id = 0; id < numInstrs; ++id)
        dispatch[id] = {0, eventClassOf(module_.instr(id).op)};
    std::vector<std::uint64_t> blockMask(numBlocks, 0);
    const std::vector<Attachment> &attachments = this->attachments();
    for (std::size_t i = 0; i < attachments.size(); ++i) {
        const InstrumentationPlan &plan = *attachments[i].plan;
        const std::uint64_t bit = std::uint64_t{1} << i;
        for (InstrId id = 0; id < numInstrs; ++id)
            if (plan.coversInstr(id))
                dispatch[id].mask |= bit;
        for (BlockId id = 0; id < numBlocks; ++id)
            if (plan.coversBlock(id))
                blockMask[id] |= bit;
    }
    std::vector<EventCounts> delivered(attachments.size());

    // Shadow call stacks: the interpreter assigns frame ids globally
    // sequentially from 1 (main's root first), and the record stream
    // is in execution order, so allocating ids in record order
    // reproduces them exactly.
    struct SimFrame
    {
        std::uint64_t frameId;
        const ir::Instruction *callSite; ///< null for thread roots
    };
    std::vector<std::vector<SimFrame>> stacks;
    std::uint64_t nextFrameId = 1;

    EventCounts totalEvents;
    std::vector<std::pair<InstrId, std::int64_t>> outputs;
    std::uint64_t stepsStarted = 0;
    std::uint32_t numThreads = 0;

    // Freeze every group with a pending abort at the current
    // instruction boundary and drop its tools from every dispatch
    // path.  A stopped group's schedule is empty, as in a standalone
    // replay of it.
    const auto stopAborted = [&] {
        const std::uint64_t dropped = stopAbortedGroups(
            {stepsStarted, totalEvents, numThreads, outputs.size(), 0});
        if (dropped == 0)
            return;
        for (Site &site : dispatch)
            site.mask &= ~dropped;
        for (std::uint64_t &mask : blockMask)
            mask &= ~dropped;
    };

    TraceCursor reader(trace_.events);
    std::int64_t prevInstr = 0;
    std::int64_t prevObj = 0;
    std::int64_t prevBlock = 0;
    while (!reader.atEnd()) {
        const std::uint8_t header = reader.byte();
        const std::uint8_t kind = header & 3;
        // Step flag: this record begins a new guest instruction.  A
        // live run honours an abort at the next instruction boundary
        // (the aborting instruction completes all its deliveries);
        // stopping the group here reproduces that exactly.
        if (header & 4) {
            if (abortPending()) {
                stopAborted();
                if (liveGroups() == 0)
                    break;
            }
            ++stepsStarted;
        }
        ThreadId tid = header >> 3;
        if (tid == TraceRecorder::kTidEscape)
            tid = static_cast<ThreadId>(reader.varint());

        switch (kind) {
          case TraceRecorder::kInstrEvent: {
            prevInstr += reader.zigzag();
            const auto id = static_cast<InstrId>(prevInstr);
            const ir::Instruction &ins = module_.instr(id);
            const Site &site = dispatch[id];
            const EventClass cls = site.cls;
            ++totalEvents[cls];

            // Decode the payload into locals first: most records
            // are not covered by any attached plan, and for those
            // the only obligatory work is advancing the delta
            // chains, the shadow stacks and the output log.
            // Building the full EventCtx happens only on
            // delivery.
            ObjectId obj = 0;
            std::uint32_t off = 0;
            FuncId callee = kNoFunc;
            ThreadId otherTid = 0;
            switch (ins.op) {
              case ir::Opcode::Load:
              case ir::Opcode::Store:
              case ir::Opcode::Lock:
              case ir::Opcode::Unlock:
                prevObj += reader.zigzag();
                obj = static_cast<ObjectId>(prevObj);
                off = static_cast<std::uint32_t>(reader.varint());
                break;
              case ir::Opcode::Call:
                callee = ins.callee;
                break;
              case ir::Opcode::ICall:
                callee = static_cast<FuncId>(reader.varint());
                break;
              case ir::Opcode::Spawn:
              case ir::Opcode::Join:
                otherTid = static_cast<ThreadId>(reader.varint());
                break;
              case ir::Opcode::Output:
                outputs.push_back({ins.id, reader.zigzag()});
                break;
              default:
                break;
            }

            if (site.mask) {
                std::vector<SimFrame> &stack = stacks[tid];
                EventCtx ctx;
                ctx.tid = tid;
                ctx.instr = &ins;
                ctx.frameId = stack.back().frameId;
                ctx.obj = obj;
                ctx.off = off;
                ctx.calleeResolved = callee;
                ctx.otherTid = otherTid;
                switch (ins.op) {
                  case ir::Opcode::Call:
                  case ir::Opcode::ICall:
                    ctx.frame2 = nextFrameId;
                    break;
                  case ir::Opcode::Ret:
                    if (stack.size() > 1) {
                        ctx.frame2 = stack[stack.size() - 2].frameId;
                        ctx.callInstr = stack.back().callSite;
                    }
                    break;
                  case ir::Opcode::Spawn:
                    ctx.frame2 = stacks[otherTid].back().frameId;
                    break;
                  default:
                    break;
                }
                for (std::uint64_t mask = site.mask; mask;
                     mask &= mask - 1) {
                    const auto i =
                        static_cast<unsigned>(std::countr_zero(mask));
                    ++delivered[i][cls];
                    attachments[i].tool->onEvent(ctx);
                }
            }

            // Stack mutations happen after delivery, mirroring
            // the interpreter (the Call event sees the caller's
            // frame as frameId; Ret sees the returning frame).
            if (ins.op == ir::Opcode::Call ||
                ins.op == ir::Opcode::ICall) {
                stacks[tid].push_back({nextFrameId++, &ins});
            } else if (ins.op == ir::Opcode::Ret) {
                stacks[tid].pop_back();
            }
            break;
          }
          case TraceRecorder::kBlockEnter: {
            prevBlock += reader.zigzag();
            const auto block = static_cast<BlockId>(prevBlock);
            ++totalEvents[EventClass::BlockEnter];
            for (std::uint64_t mask = blockMask[block]; mask;
                 mask &= mask - 1) {
                const auto i =
                    static_cast<unsigned>(std::countr_zero(mask));
                ++delivered[i][EventClass::BlockEnter];
                attachments[i].tool->onBlockEnter(tid, block);
            }
            break;
          }
          case TraceRecorder::kThreadStart: {
            const auto parent =
                static_cast<ThreadId>(reader.varint());
            const std::uint64_t siteRaw = reader.varint();
            const InstrId spawnSite =
                siteRaw == 0 ? kNoInstr
                             : static_cast<InstrId>(siteRaw - 1);
            if (tid >= stacks.size())
                stacks.resize(tid + 1);
            stacks[tid].push_back({nextFrameId++, nullptr});
            ++numThreads;
            for (std::uint64_t mask = liveMask(); mask; mask &= mask - 1)
                attachments[std::countr_zero(mask)]
                    .tool->onThreadStart(tid, parent, spawnSite);
            break;
          }
          case TraceRecorder::kThreadFinish: {
            for (std::uint64_t mask = liveMask(); mask; mask &= mask - 1)
                attachments[std::countr_zero(mask)]
                    .tool->onThreadFinish(tid);
            break;
          }
        }
    }
    // An abort requested by the stream's last instruction has no
    // further boundary to stop at: the group ends aborted, with every
    // step counted.
    if (abortPending())
        stopAborted();

    RunResult end;
    if (liveGroups() != 0) {
        OHA_ASSERT(stepsStarted == trace_.result.steps,
                   "trace step flags diverge from recorded step count");
        end.status = trace_.result.status;
        end.abortReason = trace_.result.abortReason;
        end.abortMeta = trace_.result.abortMeta;
        end.steps = trace_.result.steps;
        end.schedule = trace_.result.schedule;
        end.totalEvents = totalEvents;
        end.numThreads = numThreads;
    }
    end.outputs = std::move(outputs);
    return groupResults(std::move(end), delivered);
}

} // namespace oha::exec
