/**
 * @file
 * Deterministic event-trace capture and replay.
 *
 * The paper assumes a deterministic record/replay environment:
 * rollback after an invariant violation is "deterministic
 * re-execution under the sound hybrid analysis" (Section 2.3).  Our
 * interpreter already *is* that environment — an execution is a pure
 * function of (module, input, schedule seed) and tools never perturb
 * it — so the pipelines simply re-execute, live, driving their
 * configurations as attachment groups of one Interpreter run
 * (interpreter.h).  This file keeps the capture side (a TraceRecorder
 * sink that records the complete analysis-relevant event stream) and
 * a TraceReplayer that drives one tool configuration from a capture
 * with only decode + plan filtering + tool dispatch.  They serve the
 * repository benchmark's traced sweep, the trace microbenchmark and
 * the replay-parity tests.
 *
 * Storage: a capture is one in-RAM stream, an arena-backed
 * TraceBuffer the recorder appends to.  It is immutable once recorded,
 * so any number of replays may read one capture concurrently.
 *
 * Encoding (varint/zigzag-delta, one record per fired event):
 *
 *   header byte:  bits 0-1  record kind (instr event / block enter /
 *                           thread start / thread finish)
 *                 bit 2     step flag — set on the first record of
 *                           each executed instruction, so the
 *                           replayer can reconstruct and check the
 *                           step count
 *                 bits 3-7  thread id (31 = escape, varint follows)
 *
 *   instr event:  zigzag delta of the instruction id vs. the previous
 *                 instr record, then an opcode-dependent payload:
 *                 Load/Store/Lock/Unlock -> zigzag object-id delta +
 *                 varint offset; ICall -> varint resolved callee;
 *                 Spawn/Join -> varint other thread; Output -> zigzag
 *                 encoded value.  Everything else (the opcode, the
 *                 event class, Call's static callee) is recomputed
 *                 from the module at replay time.
 *
 *   block enter:  zigzag delta of the block id.
 *   thread start: varint parent tid + varint spawn site (+1; 0 means
 *                 kNoInstr, i.e. the main thread).
 *
 * The delta chains (instr/obj/block) start from 0 at the head of
 * the stream.
 *
 * Frame identifiers are *not* encoded: the interpreter assigns them
 * globally sequentially from 1, so the replayer reconstructs
 * identical frame ids (and Ret's caller frame / call-site context)
 * with a per-thread shadow call stack.
 *
 * Replay fidelity: delivered events, ordering, per-tool counts, step
 * counts and outputs are byte-identical to a live run of the same
 * tools under the same plans, as long as no tool aborts the live run
 * (a replay has no abort control).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "exec/interpreter.h"
#include "support/arena.h"

namespace oha::exec {

/** Arena-backed append-only byte stream: one capture's encoded
 *  records.  The stream is the concatenation of its chunks' used
 *  bytes; a chunk may end short when the recorder asks for contiguous
 *  room (room()). */
class TraceBuffer
{
  public:
    TraceBuffer() : arena_(std::make_unique<support::Arena>(kChunkBytes)) {}

    TraceBuffer(TraceBuffer &&) = default;
    TraceBuffer &operator=(TraceBuffer &&) = default;

    /** At least @p n contiguous writable bytes at the cursor, starting
     *  a fresh chunk when the current one is shorter (its unused tail
     *  is not part of the stream).  Returns the cursor. */
    std::uint8_t *
    room(std::size_t n)
    {
        if (static_cast<std::size_t>(wend_ - wptr_) < n)
            newChunk();
        return wptr_;
    }

    std::uint8_t *cursor() const { return wptr_; }

    /** End of the chunk the cursor is in. */
    std::uint8_t *chunkEnd() const { return wend_; }

    /** Advance the cursor past bytes written directly after room(). */
    void setCursor(std::uint8_t *cursor) { wptr_ = cursor; }

    /** Payload bytes written so far. */
    std::size_t
    sizeBytes() const
    {
        return filled_ + static_cast<std::size_t>(
                             wptr_ - (chunks_.empty() ? wptr_
                                                      : chunks_.back().data));
    }

    /** Visit the written bytes as contiguous (pointer, length) spans
     *  in stream order.  The buffer must not be appended to while the
     *  spans are in use. */
    template <typename Fn>
    void
    forEachSpan(Fn &&fn) const
    {
        for (std::size_t i = 0; i < chunks_.size(); ++i) {
            const Chunk &chunk = chunks_[i];
            const std::size_t len =
                i + 1 == chunks_.size()
                    ? static_cast<std::size_t>(wptr_ - chunk.data)
                    : chunk.size;
            if (len != 0)
                fn(chunk.data, len);
        }
    }

    static std::uint64_t
    zigzag(std::int64_t value)
    {
        return (static_cast<std::uint64_t>(value) << 1) ^
               static_cast<std::uint64_t>(value >> 63);
    }

    /** Raw varint store for callers that hold room() bytes. */
    static std::uint8_t *
    writeVarint(std::uint8_t *out, std::uint64_t value)
    {
        while (value >= 0x80) {
            *out++ = static_cast<std::uint8_t>(value) | 0x80;
            value >>= 7;
        }
        *out++ = static_cast<std::uint8_t>(value);
        return out;
    }

  private:
    static constexpr std::size_t kChunkBytes = 64 * 1024;

    struct Chunk
    {
        std::uint8_t *data;
        std::size_t size; ///< used bytes, once the chunk is not the last
    };

    void
    newChunk()
    {
        if (!chunks_.empty()) {
            chunks_.back().size =
                static_cast<std::size_t>(wptr_ - chunks_.back().data);
            filled_ += chunks_.back().size;
        }
        chunks_.push_back(
            {arena_->allocateArray<std::uint8_t>(kChunkBytes), 0});
        wptr_ = chunks_.back().data;
        wend_ = wptr_ + kChunkBytes;
    }

    std::unique_ptr<support::Arena> arena_;
    std::vector<Chunk> chunks_;
    std::uint8_t *wptr_ = nullptr; ///< write cursor in the last chunk
    std::uint8_t *wend_ = nullptr; ///< end of the last chunk
    std::size_t filled_ = 0;       ///< used bytes of all earlier chunks
};

/** Sequential decoder over a TraceBuffer's chunk spans.  The buffer
 *  must outlive the cursor and not be appended to meanwhile.
 *  Concurrent cursors over one buffer are safe (reads only). */
class TraceCursor
{
  public:
    explicit TraceCursor(const TraceBuffer &buffer)
    {
        buffer.forEachSpan([this](const std::uint8_t *data, std::size_t len) {
            spans_.push_back({data, len});
        });
    }

    bool
    atEnd() const
    {
        return ptr_ == end_ && next_ >= spans_.size();
    }

    std::uint8_t
    byte()
    {
        // Hot path: one pointer compare + deref.  Span hops only
        // every chunk (64 KiB).
        if (ptr_ == end_)
            loadNextSpan();
        return *ptr_++;
    }

    std::uint64_t
    varint()
    {
        std::uint64_t value = 0;
        unsigned shift = 0;
        while (true) {
            const std::uint8_t b = byte();
            value |= (std::uint64_t{b} & 0x7f) << shift;
            if (!(b & 0x80))
                return value;
            shift += 7;
        }
    }

    std::int64_t
    zigzag()
    {
        const std::uint64_t raw = varint();
        return static_cast<std::int64_t>(raw >> 1) ^
               -static_cast<std::int64_t>(raw & 1);
    }

  private:
    struct Span
    {
        const std::uint8_t *data;
        std::size_t size;
    };

    void
    loadNextSpan()
    {
        const Span &span = spans_[next_++];
        ptr_ = span.data;
        end_ = span.data + span.size;
    }

    std::vector<Span> spans_;
    const std::uint8_t *ptr_ = nullptr;
    const std::uint8_t *end_ = nullptr;
    std::size_t next_ = 0;
};

/**
 * Interpreter-native recording sink (not a Tool: it sees every event
 * unconditionally, before plan filtering).  Attach with
 * Interpreter::setRecorder before run().
 *
 * Records are appended through a Writer: a small by-value cursor over
 * one thread's records, which the interpreter keeps in locals for a
 * whole scheduling quantum.  A typed call writes one record straight
 * into the buffer's current chunk; the recorder only takes over again
 * when the writer syncs — commit(), or the out-of-line path when the
 * chunk is nearly full.
 */
class TraceRecorder
{
  public:
    /**
     * Append cursor for one thread's records.  `step` marks the first
     * record of an executed guest instruction (header bit 2), which
     * the replayer counts to rebuild and check the step count.
     * Valid until the next commit() or open() on its recorder;
     * writers pass by value throughout, so one held in a caller's
     * locals can live in registers.
     */
    class Writer
    {
      public:
        /** A payload-free instr event. */
        void
        instr(bool step, InstrId id)
        {
            end(instrHeader(step, id));
        }

        /** Load/Store/Lock/Unlock: the resolved address. */
        void
        access(bool step, InstrId id, ObjectId obj, std::uint32_t off)
        {
            end(address(instrHeader(step, id), obj, off));
        }

        /** ICall: the resolved callee. */
        void
        icall(bool step, InstrId id, FuncId callee)
        {
            end(TraceBuffer::writeVarint(instrHeader(step, id), callee));
        }

        /** Spawn/Join: the child / joined thread. */
        void
        threadOp(bool step, InstrId id, ThreadId other)
        {
            end(TraceBuffer::writeVarint(instrHeader(step, id), other));
        }

        /** Output: the emitted value, as Interpreter::encodeValue. */
        void
        output(bool step, InstrId id, std::int64_t encoded)
        {
            end(TraceBuffer::writeVarint(instrHeader(step, id),
                                         TraceBuffer::zigzag(encoded)));
        }

        void
        blockEnter(bool step, BlockId block)
        {
            const std::int64_t delta = std::int64_t{block} - prevBlock_;
            prevBlock_ = block;
            end(headerAndDelta(kBlockEnter, step, delta));
        }

        void
        threadStart(bool step, ThreadId parent, InstrId spawnSite)
        {
            std::uint8_t *out = header(kThreadStart, step);
            out = TraceBuffer::writeVarint(out, parent);
            out = TraceBuffer::writeVarint(
                out, spawnSite == kNoInstr ? 0
                                           : std::uint64_t{spawnSite} + 1);
            end(out);
        }

        void
        threadFinish(bool step)
        {
            end(header(kThreadFinish, step));
        }

      private:
        friend class TraceRecorder;

        std::uint8_t
        headerByte(std::uint8_t kind, bool step) const
        {
            return static_cast<std::uint8_t>(kind | (step ? 4 : 0) |
                                             tidBits_);
        }

        std::uint8_t *
        header(std::uint8_t kind, bool step)
        {
            std::uint8_t *out = ptr_;
            *out++ = headerByte(kind, step);
            if (tidBits_ == kTidEscape << 3)
                out = TraceBuffer::writeVarint(out, owner_->writerTid_);
            return out;
        }

        /** Header plus a zigzag delta.  The common record — an
         *  unescaped tid and a delta whose zigzag form fits one byte
         *  — is stored as two bytes without the varint loop. */
        std::uint8_t *
        headerAndDelta(std::uint8_t kind, bool step, std::int64_t delta)
        {
            const std::uint64_t zigzag = TraceBuffer::zigzag(delta);
            if ((zigzag >> 1) < shortDelta_) {
                ptr_[0] = headerByte(kind, step);
                ptr_[1] = static_cast<std::uint8_t>(zigzag);
                return ptr_ + 2;
            }
            return TraceBuffer::writeVarint(header(kind, step), zigzag);
        }

        std::uint8_t *
        instrHeader(bool step, InstrId id)
        {
            const std::int64_t delta = std::int64_t{id} - prevInstr_;
            prevInstr_ = id;
            // Most instruction deltas are small and forward (the next
            // op of the block), zigzagging to the byte 2 * delta.
            if (static_cast<std::uint64_t>(delta) < shortDelta_) {
                ptr_[0] = headerByte(kInstrEvent, step);
                ptr_[1] = static_cast<std::uint8_t>(delta << 1);
                return ptr_ + 2;
            }
            return headerAndDelta(kInstrEvent, step, delta);
        }

        std::uint8_t *
        address(std::uint8_t *out, ObjectId obj, std::uint32_t off)
        {
            out = TraceBuffer::writeVarint(
                out, TraceBuffer::zigzag(std::int64_t{obj} - prevObj_));
            prevObj_ = obj;
            return TraceBuffer::writeVarint(out, off);
        }

        /** Close one record, taking the out-of-line path when the
         *  chunk is nearly full. */
        void
        end(std::uint8_t *out)
        {
            ptr_ = out;
            if (ptr_ >= limit_) {
                owner_->commit(*this);
                owner_->prepare();
                owner_->resume(*this);
            }
        }

        // Every field is a full word: GCC will not split into
        // registers a struct whose copies cover a partial tail word.
        TraceRecorder *owner_ = nullptr;
        std::uint8_t *ptr_ = nullptr;
        /** ptr_ >= limit_: fewer than kMaxRecordBytes left in the
         *  chunk. */
        std::uint8_t *limit_ = nullptr;
        std::int64_t prevInstr_ = 0;
        std::int64_t prevObj_ = 0;
        std::int64_t prevBlock_ = 0;
        /** tid << 3, or the escape marker when the tid follows as a
         *  varint. */
        std::uint64_t tidBits_ = 0;
        /** Deltas whose zigzag form fits one byte, |delta| below
         *  this, take the two-byte store: 64, or 0 for an escaped
         *  tid, whose header is longer. */
        std::uint64_t shortDelta_ = 0;
    };

    /** A writer for @p tid's records, positioned at the end of the
     *  stream.  Inline, like resume(), so a writer's address never
     *  leaves the function that holds it, which can then keep it in
     *  registers. */
    Writer
    open(ThreadId tid)
    {
        if (!limit_)
            prepare();
        Writer writer;
        writer.owner_ = this;
        writerTid_ = tid;
        const bool escaped = tid >= kTidEscape;
        writer.tidBits_ = (escaped ? kTidEscape : tid) << 3;
        writer.shortDelta_ = escaped ? 0 : 64;
        resume(writer);
        return writer;
    }

    /** Fold @p writer's records into the recorder.  The writer is
     *  spent; open() a new one to continue. */
    void commit(Writer writer);

    /** Move the recorded stream out (the recorder is spent
     *  afterwards). */
    TraceBuffer take() { return std::move(buffer_); }

    // Record kinds (header bits 0-1).
    static constexpr std::uint8_t kInstrEvent = 0;
    static constexpr std::uint8_t kBlockEnter = 1;
    static constexpr std::uint8_t kThreadStart = 2;
    static constexpr std::uint8_t kThreadFinish = 3;
    /** Header tid field value meaning "varint tid follows". */
    static constexpr std::uint8_t kTidEscape = 31;
    /** Upper bound on one encoded record (a Load with an escaped tid
     *  and maximal deltas is 21 bytes). */
    static constexpr std::size_t kMaxRecordBytes = 64;

  private:
    /** Position @p writer at the end of the stream. */
    void
    resume(Writer &writer)
    {
        writer.ptr_ = buffer_.cursor();
        writer.limit_ = limit_;
        writer.prevInstr_ = prevInstr_;
        writer.prevObj_ = prevObj_;
        writer.prevBlock_ = prevBlock_;
    }

    /** Make room for one record at the cursor and recompute limit_. */
    void prepare();

    TraceBuffer buffer_;
    /** The writers' limit at the current cursor (see Writer). */
    std::uint8_t *limit_ = nullptr;
    /** The open writer's thread (its escaped tid is written out). */
    ThreadId writerTid_ = 0;
    std::int64_t prevInstr_ = 0;
    std::int64_t prevObj_ = 0;
    std::int64_t prevBlock_ = 0;
};

/** One recorded execution: the event stream plus the plain run's
 *  outcome.  Immutable after recording; safe to share read-only
 *  across concurrent replays. */
struct RecordedTrace
{
    TraceBuffer events;
    /** Result of the recording run (no tools attached, so
     *  `delivered` is empty and the status/steps are those of the
     *  uninstrumented execution). */
    RunResult result;
};

/** Execute @p config once, uninstrumented, capturing its trace. */
RecordedTrace recordRun(const ir::Module &module, const ExecConfig &config);

/**
 * Drives attached tools from a recorded trace without re-running
 * fetch/decode/eval: decode, plan filtering and tool dispatch only.
 * The resulting RunResult (status, steps, outputs, event accounting,
 * per-tool delivery counts, schedule) is byte-identical to a live run
 * of the same tools under the same plans on the same input, as long
 * as no tool aborts the live run: a replay has no abort control and
 * always delivers the whole recorded stream, reporting the recorded
 * run's status — including Aborted/StepLimit when the *recording*
 * itself was truncated.
 */
class TraceReplayer
{
  public:
    TraceReplayer(const ir::Module &module, const RecordedTrace &trace);

    /** Attach a tool filtered by @p plan.  Both must outlive run(). */
    void attach(Tool *tool, const InstrumentationPlan *plan);

    /** Replay the recorded stream through the attached tools. */
    RunResult run();

  private:
    const ir::Module &module_;
    const RecordedTrace &trace_;
    std::vector<std::pair<Tool *, const InstrumentationPlan *>> tools_;
};

} // namespace oha::exec
