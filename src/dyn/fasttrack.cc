#include "dyn/fasttrack.h"

#include <algorithm>

namespace oha::dyn {

VectorClock &
FastTrack::clockOf(ThreadId tid)
{
    if (tid >= threads_.size())
        threads_.resize(tid + 1);
    return threads_[tid];
}

VectorClock &
FastTrack::lockClockOf(exec::ObjectId obj)
{
    if (obj >= locks_.size())
        locks_.resize(obj + 1);
    return locks_[obj];
}

void
FastTrack::onThreadStart(ThreadId tid, ThreadId parent, InstrId spawnSite)
{
    // Grow the clock table for both ids up front: fetching the child's
    // clock and then letting clockOf(parent) resize the vector would
    // leave the child reference dangling.
    const ThreadId high =
        spawnSite != kNoInstr ? std::max(tid, parent) : tid;
    if (high >= threads_.size())
        threads_.resize(high + 1);
    VectorClock &clock = threads_[tid];
    if (spawnSite != kNoInstr) {
        // Fork: child inherits parent's clock; parent advances.
        clock.join(threads_[parent]);
        threads_[parent].incr(parent);
    }
    clock.incr(tid); // thread's own component starts at 1
}

void
FastTrack::report(InstrId prev, InstrId cur, const exec::EventCtx &ctx)
{
    if (prev == kNoInstr)
        return;
    races_.insert({std::min(prev, cur), std::max(prev, cur), ctx.obj,
                   ctx.off});
}

void
FastTrack::read(ThreadId tid, const exec::EventCtx &ctx)
{
    VarState &var = vars_[addrKey(ctx.obj, ctx.off)];
    const VectorClock &clock = clockOf(tid);
    const Epoch now = clock.epochOf(tid);

    // Same-epoch fast path.
    if (!var.sharedRead && var.read == now)
        return;

    // Shared same-epoch fast path (the paper's READ SHARED SAME
    // EPOCH): this thread already recorded a read at this epoch, so
    // the write-race check ran then, and no write can have intervened
    // — a write deflates sharedRead and clears the reader array.
    if (var.sharedRead &&
        (tid < var.readers.size() ? var.readers[tid].clock : 0) ==
            now.clock()) {
        return;
    }

    // Write-read race check.
    if (!clock.covers(var.write) && var.write.clock() != 0)
        report(var.lastWriteInstr, ctx.instr->id, ctx);

    if (var.sharedRead) {
        ++readSlowPathUpdates_;
        if (tid >= var.readers.size())
            var.readers.resize(tid + 1);
        var.readers[tid] = {now.clock(), ctx.instr->id};
    } else if (clock.covers(var.read) || var.read.clock() == 0) {
        // Exclusive ordered read: stay in epoch representation.
        var.read = now;
    } else {
        // Concurrent readers: inflate to the dense reader array.
        ++readSlowPathUpdates_;
        var.sharedRead = true;
        const ThreadId high = std::max(var.read.tid(), tid);
        if (high >= var.readers.size())
            var.readers.resize(high + 1);
        var.readers[var.read.tid()] = {var.read.clock(),
                                       var.lastReadInstr};
        var.readers[tid] = {now.clock(), ctx.instr->id};
    }
    var.lastReadInstr = ctx.instr->id;
}

void
FastTrack::write(ThreadId tid, const exec::EventCtx &ctx)
{
    VarState &var = vars_[addrKey(ctx.obj, ctx.off)];
    const VectorClock &clock = clockOf(tid);
    const Epoch now = clock.epochOf(tid);

    if (var.write == now)
        return; // same-epoch fast path

    if (!clock.covers(var.write) && var.write.clock() != 0)
        report(var.lastWriteInstr, ctx.instr->id, ctx);

    if (var.sharedRead) {
        // Report every reader the write is not ordered after.
        for (std::size_t t = 0; t < var.readers.size(); ++t) {
            const auto readerTid = static_cast<ThreadId>(t);
            const ReadEntry &entry = var.readers[t];
            const Epoch reader(readerTid, entry.clock);
            if (reader.clock() != 0 && !clock.covers(reader)) {
                report(entry.instr != kNoInstr ? entry.instr
                                               : var.lastReadInstr,
                       ctx.instr->id, ctx);
            }
        }
        // Deflate: clear() keeps the array's capacity, so a cell that
        // oscillates between shared and exclusive does not reallocate.
        var.sharedRead = false;
        var.readers.clear();
        var.read = Epoch::none();
    } else if (var.read.clock() != 0 && !clock.covers(var.read)) {
        report(var.lastReadInstr, ctx.instr->id, ctx);
    }
    var.write = now;
    var.lastWriteInstr = ctx.instr->id;
}

void
FastTrack::onEvent(const exec::EventCtx &ctx)
{
    switch (ctx.instr->op) {
      case ir::Opcode::Load:
        read(ctx.tid, ctx);
        break;
      case ir::Opcode::Store:
        write(ctx.tid, ctx);
        break;
      case ir::Opcode::Lock:
        // Acquire: thread learns everything released at this lock.
        clockOf(ctx.tid).join(lockClockOf(ctx.obj));
        break;
      case ir::Opcode::Unlock:
        // Release: publish and advance.
        lockClockOf(ctx.obj) = clockOf(ctx.tid);
        clockOf(ctx.tid).incr(ctx.tid);
        break;
      case ir::Opcode::Spawn:
        // Fork edge handled in onThreadStart (unconditional), so the
        // happens-before edge survives even if this event is elided.
        break;
      case ir::Opcode::Join:
        clockOf(ctx.tid).join(clockOf(ctx.otherTid));
        break;
      default:
        break;
    }
}

std::set<std::pair<InstrId, InstrId>>
FastTrack::racePairs() const
{
    std::set<std::pair<InstrId, InstrId>> pairs;
    for (const RaceReport &race : races_)
        pairs.insert({race.first, race.second});
    return pairs;
}

} // namespace oha::dyn
