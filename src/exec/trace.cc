#include "exec/trace.h"

#include <atomic>
#include <bit>
#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include "support/durable_file.h"
#include "support/env.h"

namespace oha::exec {

namespace {

// Global mmap accounting: tests assert that replaying a spilled
// capture keeps peak resident trace bytes O(segment size × concurrent
// replays) rather than O(trace size).
std::atomic<std::size_t> g_mappedNow{0};
std::atomic<std::size_t> g_mappedPeak{0};

void
accountMap(std::size_t bytes)
{
    const std::size_t now =
        g_mappedNow.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    std::size_t peak = g_mappedPeak.load(std::memory_order_relaxed);
    while (now > peak &&
           !g_mappedPeak.compare_exchange_weak(peak, now,
                                               std::memory_order_relaxed)) {
    }
}

void
accountUnmap(std::size_t bytes)
{
    g_mappedNow.fetch_sub(bytes, std::memory_order_relaxed);
}

} // namespace

namespace testing {

std::size_t
mappedTraceBytesNow()
{
    return g_mappedNow.load(std::memory_order_relaxed);
}

std::size_t
mappedTraceBytesPeak()
{
    return g_mappedPeak.load(std::memory_order_relaxed);
}

void
resetMappedTraceBytesPeak()
{
    g_mappedPeak.store(g_mappedNow.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
}

} // namespace testing

std::size_t
configuredSegmentBytes()
{
    // 64 MiB default: the whole existing corpus records well under
    // one segment, so spilling is opt-in via the environment (or
    // TraceStoreOptions) until traces actually outgrow RAM.  The
    // floor keeps a segment big enough for at least one maximal
    // record; the ceiling guards against fat-finger terabyte values.
    return support::envSizeBytes("OHA_TRACE_SEGMENT_BYTES",
                                 std::size_t{64} << 20, std::size_t{4} << 10,
                                 std::size_t{64} << 30);
}

// ---------------------------------------------------------------- SpillFile

SpillFile::Mapping::Mapping(void *base, std::size_t mapLen,
                            std::size_t headSlack)
    : base_(base), mapLen_(mapLen), headSlack_(headSlack)
{
    accountMap(mapLen_);
}

SpillFile::Mapping::~Mapping()
{
    ::munmap(base_, mapLen_);
    accountUnmap(mapLen_);
}

std::shared_ptr<SpillFile>
SpillFile::create(int *errnoOut)
{
    const char *tmpdir = std::getenv("TMPDIR");
    std::string path = (tmpdir && *tmpdir) ? tmpdir : "/tmp";
    path += "/oha-trace-XXXXXX";
    std::vector<char> templ(path.begin(), path.end());
    templ.push_back('\0');
    const int fd = ::mkstemp(templ.data());
    if (fd < 0) {
        if (errnoOut)
            *errnoOut = errno;
        OHA_WARN("trace spill disabled: mkstemp(%s) failed: %s",
                 templ.data(), std::strerror(errno));
        return nullptr;
    }
    // Unlink immediately: the file lives as long as the fd and can
    // never be leaked, even on crash.
    ::unlink(templ.data());
    return std::shared_ptr<SpillFile>(new SpillFile(fd));
}

SpillFile::~SpillFile()
{
    ::close(fd_);
}

bool
SpillFile::writeAll(const std::uint8_t *data, std::size_t len)
{
    while (len > 0) {
        const long n = support::io::pwriteFd(fd_, data, len, size_);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            lastErrno_ = errno;
            OHA_WARN("trace spill write failed: %s; keeping segment "
                     "in RAM",
                     std::strerror(errno));
            return false;
        }
        data += n;
        len -= static_cast<std::size_t>(n);
        size_ += static_cast<std::uint64_t>(n);
    }
    return true;
}

bool
SpillFile::append(const TraceBuffer &buffer, std::uint64_t &offsetOut)
{
    const std::uint64_t start = size_;
    bool ok = true;
    buffer.forEachSpan([&](const std::uint8_t *data, std::size_t len) {
        ok = ok && writeAll(data, len);
    });
    if (!ok) {
        // Truncate the partial tail so the next append starts clean.
        if (::ftruncate(fd_, static_cast<::off_t>(start)) == 0)
            size_ = start;
        return false;
    }
    offsetOut = start;
    return true;
}

std::shared_ptr<const SpillFile::Mapping>
SpillFile::map(std::uint64_t offset, std::size_t length) const
{
    static const std::size_t page =
        static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::uint64_t alignedOff = offset & ~(std::uint64_t{page} - 1);
    const std::size_t headSlack = static_cast<std::size_t>(offset - alignedOff);
    const std::size_t mapLen = length + headSlack;
    void *base = support::io::mmapFd(mapLen, fd_, alignedOff);
    if (base == MAP_FAILED) {
        OHA_WARN("mmap of spilled trace segment failed: %s",
                 std::strerror(errno));
        return nullptr;
    }
    return std::make_shared<const Mapping>(base, mapLen, headSlack);
}

// ---------------------------------------------------------------- TraceStore

TraceStore::TraceStore(const TraceStoreOptions &options)
    : segmentBytes_(options.segmentBytes != 0 ? options.segmentBytes
                                              : configuredSegmentBytes())
{
}

void
TraceStore::closeOpenSegment()
{
    OHA_ASSERT(!finished_, "closeOpenSegment() after finish()");
    const std::size_t bytes = open_.sizeBytes();
    if (bytes == 0)
        return;

    Segment segment;
    segment.header = openHeader_;
    segment.header.bytes = bytes;

    if (!file_ && !spillFailed_) {
        int createErrno = 0;
        file_ = SpillFile::create(&createErrno);
        if (!file_) {
            spillFailed_ = true;
            spillStats_.lastErrno = createErrno;
        }
    }
    bool onDisk = false;
    if (file_ && !spillFailed_) {
        onDisk = file_->append(open_, segment.fileOffset);
        if (!onDisk) {
            // Mid-stream spill failure (disk full, I/O error): stop
            // retrying disk for the rest of this capture, but KEEP
            // the spill file — segments already written to it stay
            // on disk and replay normally; only new segments fall
            // back to RAM.  The errno is surfaced via spillStats().
            spillFailed_ = true;
            spillStats_.lastErrno = file_->lastErrno();
            if (spillStats_.spilledSegments == 0)
                file_.reset(); // nothing on disk yet: drop the file
        }
    }
    if (onDisk) {
        segment.header.flags |= SegmentHeader::kFlagSpilled;
        ++spillStats_.spilledSegments;
    } else {
        segment.buffer = std::make_unique<TraceBuffer>(std::move(open_));
        residentClosed_ += bytes;
        ++spillStats_.ramFallbackSegments;
    }
    totalBytes_ += bytes;
    segments_.push_back(std::move(segment));

    open_ = TraceBuffer();
    openHeader_ = SegmentHeader{};
}

void
TraceStore::finish()
{
    if (finished_)
        return;
    // The trailing segment stays in RAM: it is below the spill
    // threshold by construction, and for unspilled captures this
    // preserves the original all-in-memory behavior exactly.  An
    // empty trailing segment (the last record landed precisely on
    // the threshold) is dropped.
    const std::size_t bytes = open_.sizeBytes();
    if (bytes > 0) {
        Segment segment;
        segment.header = openHeader_;
        segment.header.bytes = bytes;
        segment.buffer = std::make_unique<TraceBuffer>(std::move(open_));
        residentClosed_ += bytes;
        totalBytes_ += bytes;
        segments_.push_back(std::move(segment));
        open_ = TraceBuffer();
        openHeader_ = SegmentHeader{};
    }
    finished_ = true;
}

SegmentCursor
TraceStore::cursor(std::size_t i) const
{
    OHA_ASSERT(i < segments_.size());
    const Segment &segment = segments_[i];
    SegmentCursor cursor;
    if (segment.buffer) {
        segment.buffer->forEachSpan(
            [&](const std::uint8_t *data, std::size_t len) {
                cursor.spans_.push_back({data, len});
            });
    } else {
        auto mapping = file_->map(segment.fileOffset,
                                  static_cast<std::size_t>(
                                      segment.header.bytes));
        OHA_ASSERT(mapping, "cannot map spilled trace segment");
        cursor.spans_.push_back(
            {mapping->data(),
             static_cast<std::size_t>(segment.header.bytes)});
        cursor.keepAlive_ = std::move(mapping);
    }
    return cursor;
}

// ----------------------------------------------------------------- capture

namespace {

/** Id of the first instr event among one writer's records in
 *  [in, end), or kNoInstr; @p prevInstr is the delta base they were
 *  encoded against. */
InstrId
firstInstrIn(const std::uint8_t *in, const std::uint8_t *end, bool escaped,
             std::int64_t prevInstr)
{
    auto varint = [&in] {
        std::uint64_t value = 0;
        for (unsigned shift = 0;; shift += 7) {
            const std::uint8_t byte = *in++;
            value |= (std::uint64_t{byte} & 0x7f) << shift;
            if (!(byte & 0x80))
                return value;
        }
    };
    while (in < end) {
        const std::uint8_t header = *in++;
        if (escaped)
            varint();
        switch (header & 3) {
          case TraceRecorder::kInstrEvent: {
            const std::uint64_t raw = varint();
            return static_cast<InstrId>(
                prevInstr + (static_cast<std::int64_t>(raw >> 1) ^
                             -static_cast<std::int64_t>(raw & 1)));
          }
          case TraceRecorder::kBlockEnter:
            varint();
            break;
          case TraceRecorder::kThreadStart:
            varint();
            varint();
            break;
          default: // thread finish: no payload
            break;
        }
    }
    return kNoInstr;
}

} // namespace

void
TraceRecorder::commit(Writer writer)
{
    store_.open().setCursor(writer.ptr_);
    if (writer.ptr_ != writerStart_) {
        SegmentHeader &header = store_.openHeader();
        header.records += writer.tally_ & 0xffffffffu;
        header.steps += writer.tally_ >> 32;
        header.tidBitmap |= std::uint64_t{1}
                            << (writerTid_ < 63 ? writerTid_ : 63);
        if (header.firstInstr == kNoInstr) {
            header.firstInstr = firstInstrIn(
                writerStart_, writer.ptr_,
                writer.tidBits_ == kTidEscape << 3, prevInstr_);
        }
        if (header.firstInstr != kNoInstr)
            header.lastInstr = static_cast<InstrId>(writer.prevInstr_);
    }
    prevInstr_ = writer.prevInstr_;
    prevObj_ = writer.prevObj_;
    prevBlock_ = writer.prevBlock_;
}

void
TraceRecorder::prepare()
{
    TraceBuffer &buffer = store_.open();
    std::uint8_t *cursor = buffer.room(kMaxRecordBytes);
    // Stop writers for the out-of-line path either when the next
    // record might not fit in the chunk or exactly when the segment
    // reaches its threshold, whichever comes first.
    const auto chunkRoom =
        static_cast<std::size_t>(buffer.chunkEnd() - cursor) -
        kMaxRecordBytes;
    const std::size_t size = buffer.sizeBytes();
    const std::size_t threshold = store_.segmentBytesThreshold();
    const std::size_t toThreshold = threshold > size ? threshold - size : 0;
    limit_ = cursor + std::min(chunkRoom, toThreshold);
}

void
TraceRecorder::overflow()
{
    if (store_.openOverThreshold()) {
        store_.closeOpenSegment();
        prevInstr_ = 0;
        prevObj_ = 0;
        prevBlock_ = 0;
    }
    prepare();
}

RecordedTrace
recordRun(const ir::Module &module, const ExecConfig &config)
{
    return recordRun(module, config, TraceStoreOptions{});
}

RecordedTrace
recordRun(const ir::Module &module, const ExecConfig &config,
          const TraceStoreOptions &options)
{
    RecordedTrace trace;
    TraceRecorder recorder(options);
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

    const TraceStore &store = trace_.events;
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

    // Segments decode standalone (delta chains restart per segment);
    // a spilled segment is mapped only while its cursor lives, so
    // peak resident trace bytes track the segment size, not the
    // trace size.
    bool allStopped = false;
    for (std::size_t seg = 0; seg < store.numSegments() && !allStopped;
         ++seg) {
        SegmentCursor reader = store.cursor(seg);
        std::int64_t prevInstr = 0;
        std::int64_t prevObj = 0;
        std::int64_t prevBlock = 0;

        while (!reader.atEnd()) {
            const std::uint8_t header = reader.byte();
            const std::uint8_t kind = header & 3;
            // Step flag: this record begins a new guest instruction.
            // A live run honours an abort at the next instruction
            // boundary (the aborting instruction completes all its
            // deliveries); stopping the group here reproduces that
            // exactly.
            if (header & 4) {
                if (abortPending()) {
                    stopAborted();
                    if (liveGroups() == 0) {
                        allStopped = true;
                        break;
                    }
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

// ----------------------------------------------------------------- testing

namespace testing {

std::size_t
byteOffsetAfterStep(const ir::Module &module, const TraceStore &store,
                    std::uint64_t step)
{
    // Record-skipping decode: same framing as TraceReplayer::run()
    // minus dispatch.  Offsets are relative to the concatenated
    // stream so the result is usable as a spill threshold.
    std::size_t base = 0;
    std::uint64_t steps = 0;
    for (std::size_t seg = 0; seg < store.numSegments(); ++seg) {
        SegmentCursor reader = store.cursor(seg);
        std::int64_t prevInstr = 0;
        while (!reader.atEnd()) {
            const std::size_t recordStart = base + reader.consumed();
            const std::uint8_t header = reader.byte();
            if ((header & 4) && ++steps == step + 1)
                return recordStart;
            if ((header >> 3) == TraceRecorder::kTidEscape)
                reader.varint();
            switch (header & 3) {
              case TraceRecorder::kInstrEvent: {
                prevInstr += reader.zigzag();
                const ir::Instruction &ins =
                    module.instr(static_cast<InstrId>(prevInstr));
                switch (ins.op) {
                  case ir::Opcode::Load:
                  case ir::Opcode::Store:
                  case ir::Opcode::Lock:
                  case ir::Opcode::Unlock:
                    reader.zigzag();
                    reader.varint();
                    break;
                  case ir::Opcode::ICall:
                  case ir::Opcode::Spawn:
                  case ir::Opcode::Join:
                    reader.varint();
                    break;
                  case ir::Opcode::Output:
                    reader.zigzag();
                    break;
                  default:
                    break;
                }
                break;
              }
              case TraceRecorder::kBlockEnter:
                reader.zigzag();
                break;
              case TraceRecorder::kThreadStart:
                reader.varint();
                reader.varint();
                break;
              default: // kThreadFinish: header byte only
                break;
            }
        }
        base += static_cast<std::size_t>(store.header(seg).bytes);
    }
    return base;
}

} // namespace testing

} // namespace oha::exec
