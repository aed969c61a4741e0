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
    : module_(module), trace_(trace)
{
}

void
TraceReplayer::attach(Tool *tool, const InstrumentationPlan *plan)
{
    OHA_ASSERT(tool && plan);
    OHA_ASSERT(tools_.size() < 64, "dispatch masks are 64 bits wide");
    tools_.push_back({tool, plan});
}

RunResult
TraceReplayer::run()
{
    // Per-site dispatch snapshot (bit i = attached tool i), as on the
    // live Interpreter.
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
    for (std::size_t i = 0; i < tools_.size(); ++i) {
        const InstrumentationPlan &plan = *tools_[i].second;
        const std::uint64_t bit = std::uint64_t{1} << i;
        for (InstrId id = 0; id < numInstrs; ++id)
            if (plan.coversInstr(id))
                dispatch[id].mask |= bit;
        for (BlockId id = 0; id < numBlocks; ++id)
            if (plan.coversBlock(id))
                blockMask[id] |= bit;
    }
    RunResult result;
    result.delivered.resize(tools_.size());

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
    std::uint64_t stepsStarted = 0;

    TraceCursor reader(trace_.events);
    std::int64_t prevInstr = 0;
    std::int64_t prevObj = 0;
    std::int64_t prevBlock = 0;
    while (!reader.atEnd()) {
        const std::uint8_t header = reader.byte();
        const std::uint8_t kind = header & 3;
        // Step flag: this record begins a new guest instruction.
        if (header & 4)
            ++stepsStarted;
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
            ++result.totalEvents[cls];

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
                result.outputs.push_back({ins.id, reader.zigzag()});
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
                    ++result.delivered[i][cls];
                    tools_[i].first->onEvent(ctx);
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
            ++result.totalEvents[EventClass::BlockEnter];
            for (std::uint64_t mask = blockMask[block]; mask;
                 mask &= mask - 1) {
                const auto i =
                    static_cast<unsigned>(std::countr_zero(mask));
                ++result.delivered[i][EventClass::BlockEnter];
                tools_[i].first->onBlockEnter(tid, block);
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
            ++result.numThreads;
            for (const auto &[tool, plan] : tools_)
                tool->onThreadStart(tid, parent, spawnSite);
            break;
          }
          case TraceRecorder::kThreadFinish: {
            for (const auto &[tool, plan] : tools_)
                tool->onThreadFinish(tid);
            break;
          }
        }
    }
    OHA_ASSERT(stepsStarted == trace_.result.steps,
               "trace step flags diverge from recorded step count");
    result.status = trace_.result.status;
    result.abortReason = trace_.result.abortReason;
    result.abortMeta = trace_.result.abortMeta;
    result.steps = trace_.result.steps;
    result.schedule = trace_.result.schedule;
    return result;
}

} // namespace oha::exec
