#include "exec/interpreter.h"

#include <algorithm>
#include <bit>
#include <type_traits>
#include <utility>

namespace oha::exec {

namespace {

using ir::BinOpKind;
using ir::Op;

constexpr const char *kNonPointer = "dereference of non-pointer value";
constexpr const char *kOutOfBounds = "out-of-bounds memory access";

/** dst = lhs K rhs; false when the operands fault.  Scalars take the
 *  fast path; Eq/Ne also compare non-scalars structurally. */
template <BinOpKind K>
inline bool
binop(Value &dst, const Value &lhs, const Value &rhs)
{
    std::int64_t result;
    if (lhs.kind == ValueKind::Scalar && rhs.kind == ValueKind::Scalar) {
        result = ir::evalBinOp(K, lhs.num, rhs.num);
    } else if constexpr (K == BinOpKind::Eq) {
        result = lhs == rhs;
    } else if constexpr (K == BinOpKind::Ne) {
        result = !(lhs == rhs);
    } else {
        return false;
    }
    dst = Value::scalar(result);
    return true;
}

/** @p counts, the events of @p executed steps counted by class except
 *  Other, with Other filled in: every step either fires exactly one
 *  event of its class or is a branch, and the block entries are the
 *  branches plus the calls. */
EventCounts
withOther(EventCounts counts, std::uint64_t executed)
{
    counts[EventClass::Other] =
        executed - (counts.total() - counts[EventClass::Call]);
    return counts;
}

} // namespace

EventClass
eventClassOf(ir::Opcode op)
{
    using ir::Opcode;
    switch (op) {
      case Opcode::Load: return EventClass::Load;
      case Opcode::Store: return EventClass::Store;
      case Opcode::Lock: return EventClass::Lock;
      case Opcode::Unlock: return EventClass::Unlock;
      case Opcode::Spawn: return EventClass::Spawn;
      case Opcode::Join: return EventClass::Join;
      case Opcode::Call:
      case Opcode::ICall: return EventClass::Call;
      case Opcode::Ret: return EventClass::Ret;
      case Opcode::Output: return EventClass::Output;
      default: return EventClass::Other;
    }
}

/** One attachment group's abort control, plus the result frozen when
 *  the interpreter stops the group at an instruction boundary. */
class Interpreter::Group final : public ExecutionControl
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
    std::uint8_t bits = 0;
    bool stopped = false;
    /** Valid once stopped; outputs and schedule are filled in at the
     *  end, from the logged prefix lengths. */
    RunResult result;
    std::size_t outputsAtStop = 0;
    std::size_t scheduleAtStop = 0;

  private:
    bool *abortPending_;
};

Interpreter::Interpreter(const ir::Module &module, ExecConfig config)
    : module_(module), decoded_(module.decoded()),
      config_(std::move(config)), rng_(config_.scheduleSeed)
{
    addGroup();
}

Interpreter::~Interpreter() = default;

Interpreter::GroupId
Interpreter::addGroup()
{
    groups_.push_back(std::make_unique<Group>(&abortPending_));
    ++liveGroups_;
    return groups_.size() - 1;
}

void
Interpreter::attach(GroupId group, Tool *tool,
                    const InstrumentationPlan *plan)
{
    OHA_ASSERT(tool && plan && group < groups_.size());
    OHA_ASSERT(attachments_.size() < kMaxAttachments,
               "more attachments than the dispatch masks hold");
    const auto bit = static_cast<std::uint8_t>(1u << attachments_.size());
    groups_[group]->bits |= bit;
    liveMask_ |= bit;
    attachments_.push_back({tool, plan, group});
}

ExecutionControl &
Interpreter::control(GroupId group)
{
    OHA_ASSERT(group < groups_.size());
    return *groups_[group];
}

void
Interpreter::requestAbort(std::string reason)
{
    groups_[0]->requestAbort(std::move(reason));
}

void
Interpreter::requestAbort(std::string reason, const AbortMetadata &meta)
{
    groups_[0]->requestAbort(std::move(reason), meta);
}

InstrId
Interpreter::objectAllocSite(ObjectId obj) const
{
    OHA_ASSERT(obj < heap_.size());
    return heap_[obj].allocSite;
}

std::int64_t
Interpreter::encodeValue(const Value &value)
{
    switch (value.kind) {
      case ValueKind::Scalar:
        return value.num;
      case ValueKind::Pointer:
        return (std::int64_t{1} << 62) ^
               (static_cast<std::int64_t>(value.obj) << 20) ^ value.off;
      case ValueKind::FuncPtr:
        return (std::int64_t{1} << 61) ^ value.idx;
      case ValueKind::Thread:
        return (std::int64_t{1} << 60) ^ value.idx;
    }
    return 0;
}

ObjectId
Interpreter::allocObject(InstrId site, std::uint32_t cells)
{
    const ObjectId obj = static_cast<ObjectId>(heap_.size());
    heap_.push_back({site, std::vector<Value>(cells)});
    lockOwner_.push_back(0);
    return obj;
}

void
Interpreter::buildDispatchTables()
{
    instrMask_.assign(module_.numInstrs(), 0);
    blockMask_.assign(module_.numBlocks(), 0);
    for (std::size_t i = 0; i < attachments_.size(); ++i) {
        const InstrumentationPlan &plan = *attachments_[i].plan;
        const auto bit = static_cast<std::uint8_t>(1u << i);
        for (InstrId id = 0; id < instrMask_.size(); ++id)
            if (plan.coversInstr(id))
                instrMask_[id] |= bit;
        for (BlockId id = 0; id < blockMask_.size(); ++id)
            if (plan.coversBlock(id))
                blockMask_[id] |= bit;
    }
}

void
Interpreter::stopAbortedGroups(std::uint64_t executed,
                               const EventCounts &counts)
{
    abortPending_ = false;
    std::uint8_t dropped = 0;
    for (const std::unique_ptr<Group> &group : groups_) {
        if (group->stopped || !group->abortRequested)
            continue;
        group->stopped = true;
        --liveGroups_;
        RunResult &result = group->result;
        result.status = RunResult::Status::Aborted;
        result.abortReason = group->abortReason;
        result.abortMeta = group->abortMeta;
        result.steps = steps_ + executed;
        result.totalEvents = totalEvents_;
        result.totalEvents.add(withOther(counts, executed));
        result.numThreads = static_cast<std::uint32_t>(threads_.size());
        group->outputsAtStop = outputs_.size();
        group->scheduleAtStop = schedule_.size();
        dropped |= group->bits;
    }
    if (dropped == 0)
        return;
    const auto keep = static_cast<std::uint8_t>(~dropped);
    liveMask_ &= keep;
    for (std::uint8_t &mask : instrMask_)
        mask &= keep;
    for (std::uint8_t &mask : blockMask_)
        mask &= keep;
}

std::vector<RunResult>
Interpreter::groupResults(RunResult end) const
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
        results[attachments_[i].group].delivered.push_back(delivered_[i]);
    return results;
}

void
Interpreter::fireEvent(const EventCtx &ctx, std::uint8_t mask,
                       EventClass cls)
{
    for (; mask; mask &= static_cast<std::uint8_t>(mask - 1)) {
        const unsigned i = static_cast<unsigned>(std::countr_zero(mask));
        ++delivered_[i][cls];
        attachments_[i].tool->onEvent(ctx);
    }
}

void
Interpreter::fireBlockEnter(ThreadId tid, BlockId block)
{
    std::uint8_t mask = blockMask_.empty() ? 0 : blockMask_[block];
    for (; mask; mask &= static_cast<std::uint8_t>(mask - 1)) {
        const unsigned i = static_cast<unsigned>(std::countr_zero(mask));
        ++delivered_[i][EventClass::BlockEnter];
        attachments_[i].tool->onBlockEnter(tid, block);
    }
}

Interpreter::Frame &
Interpreter::pushFrame(ThreadCtx &thread, const ir::DecodedFunction &func,
                       std::uint32_t numArgs, InstrId callSite)
{
    // In bounds by construction: verifyModule (run by finalize())
    // rejects any register index >= numRegs(), and each window holds
    // exactly numRegs() slots.
    const std::uint32_t base =
        thread.frames.empty() ? 0 : thread.frames.back().regEnd;
    const std::uint32_t end = base + func.numRegs;
    if (thread.regs.size() < end)
        thread.regs.resize(std::max<std::size_t>(end, 2 * thread.regs.size()));
    std::fill(thread.regs.begin() + base + numArgs, thread.regs.begin() + end,
              Value{});
    thread.frames.push_back(
        {nextFrameId_++, base, end, func.entry.pc, callSite});
    return thread.frames.back();
}

ThreadId
Interpreter::spawnThread(FuncId func, const ir::Reg *argRegs,
                         std::uint32_t numArgs, InstrId spawnSite,
                         ThreadId parent)
{
    const ThreadId tid = static_cast<ThreadId>(threads_.size());
    threads_.emplace_back();
    ThreadCtx &thread = threads_.back();
    thread.tid = tid;
    thread.spawnSite = spawnSite;

    for (std::uint64_t mask = liveMask_; mask; mask &= mask - 1)
        attachments_[std::countr_zero(mask)].tool->onThreadStart(
            tid, parent, spawnSite);

    const ir::DecodedFunction &entry = decoded_.functions[func];
    const Frame &frame = pushFrame(thread, entry, numArgs, kNoInstr);
    if (numArgs != 0) {
        const ThreadCtx &creator = threads_[parent];
        const Value *src = creator.regs.data() + creator.frames.back().regBase;
        Value *dst = thread.regs.data() + frame.regBase;
        for (std::uint32_t i = 0; i < numArgs; ++i)
            dst[i] = src[argRegs[i]];
    }

    ++totalEvents_[EventClass::BlockEnter];
    fireBlockEnter(tid, entry.entry.block);
    return tid;
}

template <bool kTools>
const char *
Interpreter::runQuantum(const ThreadId tid, const std::uint64_t quantum)
{
    const ir::DecodedOp *const ops = decoded_.ops.data();
    const ir::Reg *const argRegs = decoded_.args.data();

    // Re-derived only after the ops that can move them: Call/ICall
    // and Ret (frame stack, register stack) and Spawn (threads_).
    ThreadCtx *thread = &threads_[tid];
    Frame *frame = &thread->frames.back();
    Value *regs = thread->regs.data() + frame->regBase;
    InstrId pc = frame->pc;

    const std::uint64_t budget =
        std::min(quantum, config_.maxSteps - steps_);
    std::uint64_t left = budget;
    // Per-class event counts.  Other is derived when the quantum
    // ends: every step either fires exactly one event of its class or
    // is a branch, and the loop's block entries are its branches plus
    // its calls.
    EventCounts counts;
    const char *fault = nullptr;
    // A tool ran during this step, so the abort flag may have moved.
    bool toolsRan = false;

    // Deliver the event of the op at `site` to every covering tool;
    // `fill` sets the opcode-specific context fields.  No context is
    // built for a site no tool covers: eliding a check really does
    // cost nothing, as the paper's speedup model assumes (Section
    // 2.3).
    auto deliver = [&](InstrId site, EventClass cls, auto &&fill) {
        if constexpr (kTools) {
            const std::uint8_t mask = instrMask_[site];
            if (mask != 0) {
                EventCtx ctx;
                ctx.tid = tid;
                ctx.instr = &module_.instr(site);
                ctx.frameId = frame->frameId;
                fill(ctx);
                fireEvent(ctx, mask, cls);
                toolsRan = true;
            }
        }
    };
    auto enterBlock = [&](BlockId block) {
        ++counts[EventClass::BlockEnter];
        if constexpr (kTools) {
            if (blockMask_[block] != 0) {
                fireBlockEnter(tid, block);
                toolsRan = true;
            }
        }
    };
    auto noFields = [](EventCtx &) {};
    // The heap cell `ptr` addresses, or null with `fault` set.
    auto heapCell = [&](const Value &ptr) -> Value * {
        if (!ptr.isPointer()) {
            fault = kNonPointer;
            return nullptr;
        }
        if (ptr.obj >= heap_.size() ||
            ptr.off >= heap_[ptr.obj].cells.size()) {
            fault = kOutOfBounds;
            return nullptr;
        }
        return &heap_[ptr.obj].cells[ptr.off];
    };

    while (left != 0) {
        const ir::DecodedOp &op = ops[pc];
        switch (op.op) {
#define OHA_BINOP(KIND)                                                   \
          case Op::KIND:                                                  \
            if (!binop<BinOpKind::KIND>(regs[op.dest], regs[op.a],        \
                                        regs[op.b])) {                    \
                fault = "arithmetic on non-scalar values";                \
                goto out;                                                 \
            }                                                             \
            goto other;
          OHA_BINOP(Add)
          OHA_BINOP(Sub)
          OHA_BINOP(Mul)
          OHA_BINOP(Div)
          OHA_BINOP(Mod)
          OHA_BINOP(And)
          OHA_BINOP(Or)
          OHA_BINOP(Xor)
          OHA_BINOP(Shl)
          OHA_BINOP(Shr)
          OHA_BINOP(Lt)
          OHA_BINOP(Le)
          OHA_BINOP(Gt)
          OHA_BINOP(Ge)
          OHA_BINOP(Eq)
          OHA_BINOP(Ne)
#undef OHA_BINOP
          case Op::Alloc:
            regs[op.dest] = Value::pointer(
                allocObject(pc, static_cast<std::uint32_t>(op.imm)), 0);
            goto other;
          case Op::ConstInt:
            regs[op.dest] = Value::scalar(op.imm);
            goto other;
          case Op::Assign:
            regs[op.dest] = regs[op.a];
            goto other;
          case Op::GlobalAddr:
            // Globals occupy object ids [0, numGlobals) by construction.
            regs[op.dest] = Value::pointer(op.index, 0);
            goto other;
          case Op::FuncAddr:
            regs[op.dest] = Value::funcPtr(op.index);
            goto other;
          case Op::GepImm:
          case Op::GepReg: {
            const Value &base = regs[op.a];
            if (!base.isPointer()) {
                fault = kNonPointer;
                goto out;
            }
            // A register index is read as .num whatever its kind.
            const std::int64_t field =
                op.op == Op::GepReg ? regs[op.b].num : op.imm;
            std::int64_t off;
            if (__builtin_add_overflow(static_cast<std::int64_t>(base.off),
                                       field, &off)) {
                fault = "pointer offset out of range";
                goto out;
            }
            if (off < 0) {
                fault = "negative pointer offset";
                goto out;
            }
            regs[op.dest] =
                Value::pointer(base.obj, static_cast<std::uint32_t>(off));
            goto other;
          }
          case Op::Input: {
            std::int64_t index = op.imm;
            if (op.b != ir::kNoReg)
                index += regs[op.b].num;
            std::int64_t value = 0;
            if (!config_.input.empty()) {
                const auto n = static_cast<std::int64_t>(config_.input.size());
                value = config_.input[static_cast<std::size_t>(
                    ((index % n) + n) % n)];
            }
            regs[op.dest] = Value::scalar(value);
            goto other;
          }
          case Op::Load: {
            Value *cell = heapCell(regs[op.a]);
            if (!cell)
                goto out;
            const Value value = *cell;
            const ObjectId obj = regs[op.a].obj;
            const std::uint32_t off = regs[op.a].off;
            regs[op.dest] = value;
            ++counts[EventClass::Load];
            deliver(pc, EventClass::Load, [&](EventCtx &ctx) {
                ctx.obj = obj;
                ctx.off = off;
                ctx.value = value;
            });
            ++pc;
            goto next;
          }
          case Op::Store: {
            Value *cell = heapCell(regs[op.a]);
            if (!cell)
                goto out;
            const Value value = regs[op.b];
            const ObjectId obj = regs[op.a].obj;
            const std::uint32_t off = regs[op.a].off;
            *cell = value;
            ++counts[EventClass::Store];
            deliver(pc, EventClass::Store, [&](EventCtx &ctx) {
                ctx.obj = obj;
                ctx.off = off;
                ctx.value = value;
            });
            ++pc;
            goto next;
          }
          case Op::Call:
          case Op::ICall: {
            FuncId callee = op.call.callee;
            if (op.op == Op::ICall) {
                const Value &target = regs[op.a];
                if (!target.isFuncPtr()) {
                    fault = "indirect call through non-function value";
                    goto out;
                }
                callee = target.idx;
                if (decoded_.functions[callee].numParams !=
                    op.call.argCount) {
                    fault = "indirect call arity mismatch";
                    goto out;
                }
            }
            const ir::DecodedFunction &func = decoded_.functions[callee];
            const InstrId site = pc;
            const std::uint64_t callerFrameId = frame->frameId;
            const std::uint32_t callerBase = frame->regBase;
            frame->pc = pc + 1;
            frame = &pushFrame(*thread, func, op.call.argCount, site);
            Value *const stack = thread->regs.data();
            regs = stack + frame->regBase;
            const ir::Reg *args = argRegs + op.call.argBegin;
            for (std::uint32_t i = 0; i < op.call.argCount; ++i)
                regs[i] = stack[callerBase + args[i]];
            pc = func.entry.pc;
            // The callee's entry block is announced before the Call
            // event.
            enterBlock(func.entry.block);
            ++counts[EventClass::Call];
            deliver(site, EventClass::Call, [&](EventCtx &ctx) {
                ctx.frameId = callerFrameId;
                ctx.calleeResolved = callee;
                ctx.frame2 = frame->frameId;
            });
            goto next;
          }
          case Op::Ret: {
            const Value retVal =
                op.a != ir::kNoReg ? regs[op.a] : Value::scalar(0);
            ++counts[EventClass::Ret];
            deliver(pc, EventClass::Ret, [&](EventCtx &ctx) {
                const std::size_t depth = thread->frames.size();
                if (depth > 1) {
                    ctx.frame2 = thread->frames[depth - 2].frameId;
                    ctx.callInstr = &module_.instr(frame->callSite);
                }
                ctx.value = retVal;
            });
            const InstrId callSite = frame->callSite;
            thread->frames.pop_back();
            if (thread->frames.empty()) {
                // Thread root returned: the thread is finished.
                thread->retVal = retVal;
                thread->state = ThreadState::Finished;
                if constexpr (kTools) {
                    for (std::uint64_t mask = liveMask_; mask;
                         mask &= mask - 1)
                        attachments_[std::countr_zero(mask)]
                            .tool->onThreadFinish(tid);
                }
                for (auto &other : threads_) {
                    if (other.state == ThreadState::BlockedOnJoin &&
                        other.waitTid == tid) {
                        other.state = ThreadState::Runnable;
                    }
                }
                --left;
                goto out;
            }
            frame = &thread->frames.back();
            regs = thread->regs.data() + frame->regBase;
            if (ops[callSite].dest != ir::kNoReg)
                regs[ops[callSite].dest] = retVal;
            pc = frame->pc;
            goto next;
          }
          case Op::Br:
            pc = op.targets[0].pc;
            enterBlock(op.targets[0].block);
            goto next;
          case Op::CondBr: {
            const ir::DecodedTarget &target =
                op.targets[regs[op.a].truthy() ? 0 : 1];
            pc = target.pc;
            enterBlock(target.block);
            goto next;
          }
          case Op::Lock:
          case Op::Unlock: {
            if (!heapCell(regs[op.a]))
                goto out;
            const ObjectId obj = regs[op.a].obj;
            const std::uint32_t off = regs[op.a].off;
            const bool lock = op.op == Op::Lock;
            const std::uint32_t owner = lockOwner_[obj];
            if (lock) {
                if (owner == tid + 1) {
                    fault = "recursive lock acquisition";
                    goto out;
                }
                if (owner != 0) {
                    // Blocked: not a step; the Lock reruns when woken.
                    thread->state = ThreadState::BlockedOnLock;
                    thread->waitObj = obj;
                    goto out;
                }
                lockOwner_[obj] = tid + 1;
            } else if (owner != tid + 1) {
                fault = "unlock of lock not held";
                goto out;
            }
            const EventClass cls =
                lock ? EventClass::Lock : EventClass::Unlock;
            ++counts[cls];
            deliver(pc, cls, [&](EventCtx &ctx) {
                ctx.obj = obj;
                ctx.off = off;
            });
            ++pc;
            if (!lock) {
                lockOwner_[obj] = 0;
                for (auto &other : threads_) {
                    if (other.state == ThreadState::BlockedOnLock &&
                        other.waitObj == obj) {
                        other.state = ThreadState::Runnable;
                    }
                }
            }
            goto next;
          }
          case Op::Spawn: {
            const InstrId site = pc;
            const std::uint64_t callerFrameId = frame->frameId;
            frame->pc = pc + 1;
            const ThreadId child =
                spawnThread(op.call.callee, argRegs + op.call.argBegin,
                            op.call.argCount, site, tid);
            toolsRan = kTools;
            thread = &threads_[tid];
            frame = &thread->frames.back();
            regs = thread->regs.data() + frame->regBase;
            if (op.dest != ir::kNoReg)
                regs[op.dest] = Value::thread(child);
            ++counts[EventClass::Spawn];
            deliver(site, EventClass::Spawn, [&](EventCtx &ctx) {
                ctx.frameId = callerFrameId;
                ctx.otherTid = child;
                ctx.frame2 = threads_[child].frames.back().frameId;
            });
            pc = site + 1;
            goto next;
          }
          case Op::Join: {
            const Value &handle = regs[op.a];
            if (!handle.isThread()) {
                fault = "join of non-thread value";
                goto out;
            }
            const ThreadId joined = handle.idx;
            if (threads_[joined].state != ThreadState::Finished) {
                thread->state = ThreadState::BlockedOnJoin;
                thread->waitTid = joined;
                goto out;
            }
            const Value value = threads_[joined].retVal;
            if (op.dest != ir::kNoReg)
                regs[op.dest] = value;
            ++counts[EventClass::Join];
            deliver(pc, EventClass::Join, [&](EventCtx &ctx) {
                ctx.otherTid = joined;
                ctx.value = value;
            });
            ++pc;
            goto next;
          }
          case Op::Output: {
            const Value value = regs[op.a];
            outputs_.push_back({pc, encodeValue(value)});
            ++counts[EventClass::Output];
            deliver(pc, EventClass::Output,
                    [&](EventCtx &ctx) { ctx.value = value; });
            ++pc;
            goto next;
          }
        }
      other:
        // The op fired an event of class Other and falls through.
        deliver(pc, EventClass::Other, noFields);
        ++pc;
      next:
        --left;
        if constexpr (kTools) {
            if (toolsRan) {
                toolsRan = false;
                if (abortPending_) {
                    stopAbortedGroups(budget - left, counts);
                    if (liveGroups_ == 0)
                        break;
                }
            }
        }
    }

out:
    if (!thread->frames.empty())
        frame->pc = pc;
    const std::uint64_t executed = budget - left;
    steps_ += executed;
    totalEvents_.add(withOther(counts, executed));
    return fault;
}

std::vector<RunResult>
Interpreter::runGroups()
{
    RunResult end;

    delivered_.assign(attachments_.size(), EventCounts{});
    if (!attachments_.empty())
        buildDispatchTables();
    const char *(Interpreter::*runQuantumFn)(ThreadId, std::uint64_t) =
        attachments_.empty() ? &Interpreter::runQuantum<false>
                             : &Interpreter::runQuantum<true>;

    // Globals become heap objects [0, numGlobals) so GlobalAddr can
    // use the global id directly as the object id.
    for (const auto &global : module_.globals())
        allocObject(kNoInstr, global.size);

    const ir::Function *mainFunc = module_.entryFunction();
    if (mainFunc->numParams() != 0)
        OHA_FATAL("main() must take no parameters");
    spawnThread(mainFunc->id(), nullptr, 0, kNoInstr, 0);

    std::vector<std::uint32_t> runnable;
    while (true) {
        // Aborts requested outside a quantum's step loop (thread start
        // and finish callbacks) stop their groups here.
        if (abortPending_)
            stopAbortedGroups(0, {});
        if (liveGroups_ == 0)
            break;
        if (steps_ >= config_.maxSteps) {
            end.status = RunResult::Status::StepLimit;
            break;
        }

        runnable.clear();
        bool anyLive = false;
        for (std::uint32_t i = 0; i < threads_.size(); ++i) {
            if (threads_[i].state == ThreadState::Runnable)
                runnable.push_back(i);
            if (threads_[i].state != ThreadState::Finished)
                anyLive = true;
        }
        if (runnable.empty()) {
            end.status = anyLive ? RunResult::Status::Deadlock
                                 : RunResult::Status::Finished;
            if (anyLive)
                end.abortReason = "deadlock: all live threads blocked";
            break;
        }

        const std::uint32_t pick = runnable[rng_.below(runnable.size())];
        const std::uint64_t quantum =
            config_.minQuantum +
            rng_.below(config_.maxQuantum - config_.minQuantum + 1);
        if (config_.recordSchedule) {
            schedule_.push_back(
                {pick, static_cast<std::uint32_t>(quantum)});
        }

        if (const char *fault = (this->*runQuantumFn)(pick, quantum)) {
            end.status = RunResult::Status::RuntimeError;
            end.abortReason = fault;
            break;
        }
    }

    end.outputs = std::move(outputs_);
    end.schedule = std::move(schedule_);
    end.steps = steps_;
    end.totalEvents = totalEvents_;
    end.numThreads = static_cast<std::uint32_t>(threads_.size());
    return groupResults(std::move(end));
}

} // namespace oha::exec
