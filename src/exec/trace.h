/**
 * @file
 * Deterministic event-trace capture and replay, at billion-event
 * scale.
 *
 * The paper assumes a deterministic record/replay environment:
 * rollback after an invariant violation is "deterministic
 * re-execution under the sound hybrid analysis" (Section 2.3).  Our
 * interpreter already *is* that environment — an execution is a pure
 * function of (module, input, schedule seed) and tools never perturb
 * it — so the pipelines simply re-execute: they drive their
 * configurations as attachment groups of one live run (groups.h),
 * because decoding a capture costs more than running the pre-decoded
 * interpreter.  This file keeps the capture side (a TraceRecorder
 * sink that records the complete analysis-relevant event stream) and
 * a TraceReplayer that drives tools from a capture with only decode +
 * plan filtering + tool dispatch.  They serve the repository
 * benchmark's traced sweep, the trace microbenchmarks and the tests
 * that check a live grouped run against a grouped replay.
 *
 * Storage model: the stream is a sequence of immutable *segments*.
 * Capture appends into an open arena-backed TraceBuffer; when the
 * open segment crosses `OHA_TRACE_SEGMENT_BYTES` (default 64 MiB —
 * small traces never spill and stay all-in-RAM exactly as before) it
 * is closed at a record boundary and its bytes are written to an
 * unlinked temp file.  Each closed segment carries a SegmentHeader
 * (record/step counts, per-tid presence bitmap, first/last
 * instruction ids, byte length, flags) so replayers can skip or seek
 * without decoding.  Replay reads spilled segments through per-cursor
 * read-only mmap windows — one segment mapped at a time per replay —
 * so peak resident trace bytes are O(segment size × concurrent
 * replays), not O(trace size).  Segments are immutable after close:
 * any number of replays may read one capture concurrently.
 *
 * Encoding (varint/zigzag-delta, one record per fired event):
 *
 *   header byte:  bits 0-1  record kind (instr event / block enter /
 *                           thread start / thread finish)
 *                 bit 2     step flag — set on the first record of
 *                           each executed instruction, so the
 *                           replayer can reconstruct the step count
 *                           and stop exactly at the instruction
 *                           boundary where a live run would abort
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
 * Delta chains (instr/obj/block) reset at every segment boundary, so
 * each segment decodes standalone — a seek never needs the previous
 * segment's tail state.
 *
 * Frame identifiers are *not* encoded: the interpreter assigns them
 * globally sequentially from 1, so the replayer reconstructs
 * identical frame ids (and Ret's caller frame / call-site context)
 * with a per-thread shadow call stack.
 *
 * Replay fidelity: delivered events, ordering, per-tool counts, step
 * counts, outputs and abort semantics are byte-identical to a live
 * run of the same tools under the same plans.  One replay pass can
 * drive several attachment groups at once (groups.h), so a capture is
 * decoded once however many configurations analyze it.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "exec/interpreter.h"
#include "support/arena.h"

namespace oha::exec {

/** Arena-backed append-only byte stream.  One TraceBuffer holds one
 *  (open or closed-in-RAM) segment.  The stream is the concatenation
 *  of its chunks' used bytes; a chunk may end short when the recorder
 *  asks for contiguous room (room()). */
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

/** Per-segment index entry, filled during capture so replay can skip
 *  or seek without decoding the payload. */
struct SegmentHeader
{
    std::uint64_t records = 0;   ///< records of any kind
    std::uint64_t steps = 0;     ///< records carrying the step flag
    std::uint64_t tidBitmap = 0; ///< bit min(tid, 63) per present tid
    InstrId firstInstr = kNoInstr; ///< first instr-event site (or kNoInstr)
    InstrId lastInstr = kNoInstr;  ///< last instr-event site (or kNoInstr)
    std::uint64_t bytes = 0;     ///< encoded payload length
    std::uint8_t flags = 0;

    /** Segment lives in the spill file, not in RAM. */
    static constexpr std::uint8_t kFlagSpilled = 2;
};

/**
 * Unlinked on-disk overflow file shared by all spilled segments of
 * one capture.  Append-only during recording; immutable and
 * mmap-readable afterwards.  The file is unlinked at creation, so it
 * vanishes with the last handle even on crash.
 */
class SpillFile
{
  public:
    /** Read-only mmap window over one segment.  Mapped bytes are
     *  accounted in the global counters exposed under
     *  exec::testing so tests can assert the resident-bytes bound. */
    class Mapping
    {
      public:
        Mapping(void *base, std::size_t mapLen, std::size_t headSlack);
        ~Mapping();
        Mapping(const Mapping &) = delete;
        Mapping &operator=(const Mapping &) = delete;

        const std::uint8_t *
        data() const
        {
            return static_cast<const std::uint8_t *>(base_) + headSlack_;
        }

      private:
        void *base_;
        std::size_t mapLen_;
        std::size_t headSlack_; ///< offset round-down to page boundary
    };

    /** Create an unlinked temp file under $TMPDIR (default /tmp).
     *  Returns null (with a warning, and the errno in @p errnoOut)
     *  when the directory is not writable — callers then keep
     *  segments in RAM. */
    static std::shared_ptr<SpillFile> create(int *errnoOut = nullptr);

    ~SpillFile();
    SpillFile(const SpillFile &) = delete;
    SpillFile &operator=(const SpillFile &) = delete;

    /** Append the buffer's bytes; on success stores the segment's
     *  starting offset in @p offsetOut.  A short write (disk full)
     *  warns and returns false with the file truncated back, so the
     *  caller can fall back to RAM. */
    bool append(const TraceBuffer &buffer, std::uint64_t &offsetOut);

    /** errno of the most recent failed write/create (0 = none). */
    int lastErrno() const { return lastErrno_; }

    /** Map @p length bytes at @p offset read-only.  Null on mmap
     *  failure. */
    std::shared_ptr<const Mapping> map(std::uint64_t offset,
                                       std::size_t length) const;

  private:
    explicit SpillFile(int fd) : fd_(fd) {}

    /** pwrite loop at the current tail; advances size_.  False (with
     *  a warning) on unrecoverable write failure. */
    bool writeAll(const std::uint8_t *data, std::size_t len);

    int fd_;
    std::uint64_t size_ = 0;
    int lastErrno_ = 0;
};

/** Sequential decoder over one segment's byte spans (buffer chunks
 *  for in-RAM segments, a single mmap window for spilled ones).  The
 *  owning TraceStore must outlive the cursor; the cursor itself keeps
 *  the mmap window alive.  Concurrent cursors over one segment are
 *  safe (reads only). */
class SegmentCursor
{
  public:
    bool
    atEnd() const
    {
        return ptr_ == end_ && next_ >= spans_.size();
    }

    std::uint8_t
    byte()
    {
        // Hot path: one pointer compare + deref.  Span hops only
        // every chunk (64 KiB) or never (mmap).
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

    /** Bytes consumed so far within this segment. */
    std::size_t
    consumed() const
    {
        return before_ + static_cast<std::size_t>(ptr_ - begin_);
    }

  private:
    friend class TraceStore;

    struct Span
    {
        const std::uint8_t *data;
        std::size_t size;
    };

    void
    loadNextSpan()
    {
        before_ += static_cast<std::size_t>(end_ - begin_);
        const Span &span = spans_[next_++];
        begin_ = ptr_ = span.data;
        end_ = span.data + span.size;
    }

    std::vector<Span> spans_;
    std::shared_ptr<const void> keepAlive_; ///< mmap window, if any
    const std::uint8_t *begin_ = nullptr;
    const std::uint8_t *ptr_ = nullptr;
    const std::uint8_t *end_ = nullptr;
    std::size_t next_ = 0;
    std::size_t before_ = 0;
};

/** Capture knobs for one TraceStore. */
struct TraceStoreOptions
{
    /** Close + spill the open segment once it reaches this many
     *  bytes.  0 means "read OHA_TRACE_SEGMENT_BYTES" (default
     *  64 MiB).  Small traces never cross the threshold and stay
     *  entirely in RAM, single-segment. */
    std::size_t segmentBytes = 0;
};

/** OHA_TRACE_SEGMENT_BYTES with validation/clamping (see
 *  support::envSizeBytes); re-read on every call. */
std::size_t configuredSegmentBytes();

/**
 * The segmented trace store: one open TraceBuffer receiving records
 * plus a list of closed, immutable segments (spilled to the overflow
 * file, or kept in RAM when spilling is unavailable).  The recording
 * side is driven by TraceRecorder; after finish() the store is
 * read-only and safe to share across concurrent replays.
 */
class TraceStore
{
  public:
    TraceStore() : TraceStore(TraceStoreOptions{}) {}
    explicit TraceStore(const TraceStoreOptions &options);

    TraceStore(TraceStore &&) = default;
    TraceStore &operator=(TraceStore &&) = default;

    // ---- recording side (TraceRecorder only) ----

    /** The open segment's byte stream. */
    TraceBuffer &open() { return open_; }

    /** The open segment's header; the recorder folds its record
     *  counts in whenever it syncs. */
    SegmentHeader &openHeader() { return openHeader_; }

    /** Should the open segment close?  Checked at record boundaries
     *  only, so segments close between records, never inside one. */
    bool openOverThreshold() const
    {
        return open_.sizeBytes() >= segmentBytes_;
    }

    /** Close the open segment: spill it to the overflow file (kept
     *  in RAM with a warning when spilling fails) and start a fresh
     *  open segment.  The caller must reset its delta chains. */
    void closeOpenSegment();

    /** End recording: the open segment (below the spill threshold by
     *  construction) becomes a final in-RAM segment, or is dropped
     *  when empty.  The store is read-only afterwards. */
    void finish();

    // ---- read side ----

    std::size_t numSegments() const { return segments_.size(); }

    const SegmentHeader &
    header(std::size_t i) const
    {
        return segments_[i].header;
    }

    /** Decoder positioned at the start of segment @p i.  Spilled
     *  segments are mapped for the cursor's lifetime; in-RAM
     *  segments borrow the store's chunks. */
    SegmentCursor cursor(std::size_t i) const;

    /** Did any segment reach the overflow file? */
    bool spilled() const { return file_ != nullptr; }

    /** Spill-path health for one capture: how many segments reached
     *  disk, how many fell back to RAM after a spill failure (disk
     *  full, unwritable $TMPDIR), and the errno of the most recent
     *  failure.  Surfaced so callers can distinguish "small trace,
     *  never spilled" from "spill failed, RAM kept growing". */
    struct SpillStats
    {
        std::uint64_t spilledSegments = 0;
        std::uint64_t ramFallbackSegments = 0;
        int lastErrno = 0;
    };

    const SpillStats &spillStats() const { return spillStats_; }

    /** Total encoded payload bytes across all segments. */
    std::size_t sizeBytes() const { return totalBytes_; }

    /** Bytes held in RAM (open segment + unspilled closed segments);
     *  excludes spilled bytes, which cost only an mmap window during
     *  replay. */
    std::size_t
    residentBytes() const
    {
        return open_.sizeBytes() + residentClosed_;
    }

    std::size_t segmentBytesThreshold() const { return segmentBytes_; }

  private:
    struct Segment
    {
        SegmentHeader header;
        /** In-RAM payload; null when spilled (then fileOffset is
         *  valid). */
        std::unique_ptr<TraceBuffer> buffer;
        std::uint64_t fileOffset = 0;
    };

    std::size_t segmentBytes_;
    bool finished_ = false;
    bool spillFailed_ = false; ///< warn once, then keep RAM fallback
    TraceBuffer open_;
    SegmentHeader openHeader_;
    std::vector<Segment> segments_;
    std::shared_ptr<SpillFile> file_;
    std::size_t totalBytes_ = 0;
    std::size_t residentClosed_ = 0;
    SpillStats spillStats_;
};

/**
 * Interpreter-native recording sink (not a Tool: it sees every event
 * unconditionally, before plan filtering).  Attach with
 * Interpreter::setRecorder before run().
 *
 * Records are appended through a Writer: a small by-value cursor over
 * one thread's records, which the interpreter keeps in locals for a
 * whole scheduling quantum.  A typed call writes one record straight
 * into the open segment's chunk and bumps one tally; the segment
 * header (record and step counts, tid bitmap, first/last instruction)
 * is only brought up to date when the writer syncs — commit(), or the
 * out-of-line overflow path when a chunk fills or the segment crosses
 * its threshold.  The threshold is still tested after every record,
 * so segments close at exactly the record boundaries they always did.
 */
class TraceRecorder
{
  public:
    TraceRecorder() : TraceRecorder(TraceStoreOptions{}) {}
    explicit TraceRecorder(const TraceStoreOptions &options)
        : store_(options)
    {
    }

    /**
     * Append cursor for one thread's records.  `step` marks the first
     * record of an executed guest instruction (header bit 2), which
     * the replayer counts to rebuild step numbers and abort
     * boundaries.  Valid until the next commit() or open() on its
     * recorder; writers pass by value throughout, so one held in a
     * caller's locals can live in registers.
     */
    class Writer
    {
      public:
        /** A payload-free instr event. */
        void
        instr(bool step, InstrId id)
        {
            end(instrHeader(step, id), step);
        }

        /** Load/Store/Lock/Unlock: the resolved address. */
        void
        access(bool step, InstrId id, ObjectId obj, std::uint32_t off)
        {
            end(address(instrHeader(step, id), obj, off), step);
        }

        /** ICall: the resolved callee. */
        void
        icall(bool step, InstrId id, FuncId callee)
        {
            end(TraceBuffer::writeVarint(instrHeader(step, id), callee),
                step);
        }

        /** Spawn/Join: the child / joined thread. */
        void
        threadOp(bool step, InstrId id, ThreadId other)
        {
            end(TraceBuffer::writeVarint(instrHeader(step, id), other),
                step);
        }

        /** Output: the emitted value, as Interpreter::encodeValue. */
        void
        output(bool step, InstrId id, std::int64_t encoded)
        {
            end(TraceBuffer::writeVarint(instrHeader(step, id),
                                         TraceBuffer::zigzag(encoded)),
                step);
        }

        void
        blockEnter(bool step, BlockId block)
        {
            const std::int64_t delta = std::int64_t{block} - prevBlock_;
            prevBlock_ = block;
            end(headerAndDelta(kBlockEnter, step, delta), step);
        }

        void
        threadStart(bool step, ThreadId parent, InstrId spawnSite)
        {
            std::uint8_t *out = header(kThreadStart, step);
            out = TraceBuffer::writeVarint(out, parent);
            out = TraceBuffer::writeVarint(
                out, spawnSite == kNoInstr ? 0
                                           : std::uint64_t{spawnSite} + 1);
            end(out, step);
        }

        void
        threadFinish(bool step)
        {
            end(header(kThreadFinish, step), step);
        }

      private:
        friend class TraceRecorder;

        /** Tally increments: records in the low half, step-flagged
         *  records in the high half, so one add counts both. */
        static constexpr std::uint64_t kRecord = 1;
        static constexpr std::uint64_t kStepRecord = 1 + (1ull << 32);

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

        /** Close one record: tally it, then take the out-of-line path
         *  when the chunk is nearly full or the segment is due to
         *  close. */
        void
        end(std::uint8_t *out, bool step)
        {
            ptr_ = out;
            tally_ += step ? kStepRecord : kRecord;
            if (ptr_ >= limit_) {
                owner_->commit(*this);
                owner_->overflow();
                owner_->resume(*this);
            }
        }

        // Every field is a full word: GCC will not split into
        // registers a struct whose copies cover a partial tail word.
        TraceRecorder *owner_ = nullptr;
        std::uint8_t *ptr_ = nullptr;
        /** ptr_ >= limit_: fewer than kMaxRecordBytes left in the
         *  chunk, or the segment reached its threshold. */
        std::uint8_t *limit_ = nullptr;
        std::int64_t prevInstr_ = 0;
        std::int64_t prevObj_ = 0;
        std::int64_t prevBlock_ = 0;
        std::uint64_t tally_ = 0;
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

    /** Finish and move the segmented store out (recorder is spent
     *  afterwards). */
    TraceStore
    take()
    {
        store_.finish();
        return std::move(store_);
    }

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
        writer.ptr_ = writerStart_ = store_.open().cursor();
        writer.limit_ = limit_;
        writer.prevInstr_ = prevInstr_;
        writer.prevObj_ = prevObj_;
        writer.prevBlock_ = prevBlock_;
        writer.tally_ = 0;
    }

    /** After a commit at the writer's limit: close the segment if it
     *  crossed the threshold (restarting the delta chains so the next
     *  one decodes standalone) and make room for the next record. */
    void overflow();

    /** Make room for one record at the cursor and recompute limit_. */
    void prepare();

    TraceStore store_;
    /** The writers' limit at the current cursor (see Writer). */
    std::uint8_t *limit_ = nullptr;
    /** The open writer's thread, and where its records begin (all of
     *  them sit in one chunk, up to its cursor). */
    ThreadId writerTid_ = 0;
    std::uint8_t *writerStart_ = nullptr;
    std::int64_t prevInstr_ = 0;
    std::int64_t prevObj_ = 0;
    std::int64_t prevBlock_ = 0;
};

/** One recorded execution: the segmented event stream plus the plain
 *  run's outcome.  Immutable after recording; safe to share
 *  read-only across concurrent replays. */
struct RecordedTrace
{
    TraceStore events;
    /** Result of the recording run (no tools attached, so
     *  `delivered` is empty and the status/steps are those of the
     *  uninstrumented execution). */
    RunResult result;
};

/** Execute @p config once, uninstrumented, capturing its trace. */
RecordedTrace recordRun(const ir::Module &module, const ExecConfig &config);

/** Same, with an explicit spill threshold. */
RecordedTrace recordRun(const ir::Module &module, const ExecConfig &config,
                        const TraceStoreOptions &options);

/**
 * Drives attached tools from a recorded trace without re-running
 * fetch/decode/eval.  The attach/run/requestAbort surface mirrors
 * Interpreter, and the resulting RunResult (status, steps, outputs,
 * event accounting, per-tool delivery counts) is byte-identical to a
 * live run of the same tools under the same plans on the same input.
 *
 * Aborts (the invariant checker on a violation) truncate the replay
 * at the same instruction boundary a live run would stop at: the
 * aborting instruction's remaining records are still delivered, then
 * the replay ends with Status::Aborted and the step count of the live
 * aborted run.  A full (un-aborted) replay reports the recorded run's
 * status — including Aborted/StepLimit when the *recording* itself
 * was truncated.
 *
 * Attachment groups (groups.h) work as on the live Interpreter: each
 * group's result is field-identical to a standalone replay of that
 * group's attachments alone, and the pass ends early once every group
 * has stopped.
 */
class TraceReplayer : public AttachmentGroups
{
  public:
    /** Attachments one replay can drive (the width of the per-site
     *  dispatch masks), across all groups. */
    static constexpr std::size_t kMaxAttachments = 64;

    TraceReplayer(const ir::Module &module, const RecordedTrace &trace);

    /** Replay the recorded stream through every group; one result per
     *  group, indexed by GroupId. */
    std::vector<RunResult> runGroups() override;

  private:
    const ir::Module &module_;
    const RecordedTrace &trace_;
};

namespace testing {

/** Trace bytes currently mmap'd across all replays (this process). */
std::size_t mappedTraceBytesNow();
/** High-water mark of mappedTraceBytesNow() since the last reset. */
std::size_t mappedTraceBytesPeak();
void resetMappedTraceBytesPeak();

/** Byte offset within the concatenated encoded stream immediately
 *  after the last record of 1-based step @p step — i.e. a spill
 *  threshold of exactly this value makes the first segment end on
 *  that step's boundary.  Decodes the stream (test-only pace). */
std::size_t byteOffsetAfterStep(const ir::Module &module,
                                const TraceStore &store,
                                std::uint64_t step);

} // namespace testing

} // namespace oha::exec
