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

std::shared_ptr<SpillFile>
SpillFile::adoptReadOnly(int fd, std::uint64_t size)
{
    OHA_ASSERT(fd >= 0);
    auto file = std::shared_ptr<SpillFile>(new SpillFile(fd));
    file->size_ = size;
    file->readOnly_ = true;
    return file;
}

SpillFile::~SpillFile()
{
    ::close(fd_);
}

bool
SpillFile::writeAll(const std::uint8_t *data, std::size_t len)
{
    OHA_ASSERT(!readOnly_, "append to a read-only (adopted) SpillFile");
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

bool
SpillFile::append(const void *data, std::size_t len,
                  std::uint64_t &offsetOut)
{
    const std::uint64_t start = size_;
    if (!writeAll(static_cast<const std::uint8_t *>(data), len)) {
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
                                              : configuredSegmentBytes()),
      captureValues_(options.captureValues)
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
    if (captureValues_)
        segment.header.flags |= SegmentHeader::kFlagHasValues;

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
        if (captureValues_)
            segment.header.flags |= SegmentHeader::kFlagHasValues;
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

// ------------------------------------------------------------- persistence

bool
TraceStore::forEachSegmentBytes(
    std::size_t i,
    const std::function<void(const std::uint8_t *, std::size_t)> &fn) const
{
    OHA_ASSERT(i < segments_.size());
    const Segment &segment = segments_[i];
    if (segment.buffer) {
        segment.buffer->forEachSpan(fn);
        return true;
    }
    auto mapping = file_->map(segment.fileOffset,
                              static_cast<std::size_t>(
                                  segment.header.bytes));
    if (!mapping)
        return false;
    fn(mapping->data(), static_cast<std::size_t>(segment.header.bytes));
    return true;
}

namespace {

// Capture meta encoding, shared between the capture-file meta block
// and the snapshot-embedded blob form.  Bump when any serialized
// field changes; readers reject other versions (recompute, don't
// guess).  Version 2 dropped the per-segment sidecar index.
constexpr std::uint32_t kTraceMetaVersion = 2;

void
serializeRunResult(support::ByteWriter &out, const RunResult &result)
{
    out.u32(static_cast<std::uint32_t>(result.status));
    out.str(result.abortReason);
    out.u32(result.abortMeta.kind);
    out.u64(result.abortMeta.site);
    out.u64(result.abortMeta.aux);
    out.u64(result.abortMeta.observed);
    out.u32(result.abortMeta.thread);
    out.u64(result.outputs.size());
    for (const auto &[instr, value] : result.outputs) {
        out.u64(instr);
        out.u64(static_cast<std::uint64_t>(value));
    }
    out.u64(result.steps);
    for (std::uint64_t count : result.totalEvents.counts)
        out.u64(count);
    out.u64(result.delivered.size());
    for (const EventCounts &counts : result.delivered)
        for (std::uint64_t count : counts.counts)
            out.u64(count);
    out.u32(result.numThreads);
    out.u64(result.schedule.size());
    for (const ScheduleStep &step : result.schedule) {
        out.u32(step.thread);
        out.u32(step.quantum);
    }
}

bool
deserializeRunResult(support::ByteReader &in, RunResult &result)
{
    const std::uint32_t status = in.u32();
    if (status > static_cast<std::uint32_t>(RunResult::Status::StepLimit))
        return false;
    result.status = static_cast<RunResult::Status>(status);
    result.abortReason = in.str();
    result.abortMeta.kind = in.u32();
    result.abortMeta.site = in.u64();
    result.abortMeta.aux = in.u64();
    result.abortMeta.observed = in.u64();
    result.abortMeta.thread = in.u32();
    const std::uint64_t numOutputs = in.u64();
    if (numOutputs > in.remaining() / 16)
        return false;
    result.outputs.reserve(static_cast<std::size_t>(numOutputs));
    for (std::uint64_t i = 0; i < numOutputs && in.ok(); ++i) {
        const std::uint64_t instr = in.u64();
        const auto value = static_cast<std::int64_t>(in.u64());
        if (instr > kNoInstr)
            return false;
        result.outputs.push_back({static_cast<InstrId>(instr), value});
    }
    result.steps = in.u64();
    for (std::uint64_t &count : result.totalEvents.counts)
        count = in.u64();
    const std::uint64_t numDelivered = in.u64();
    if (numDelivered > in.remaining() / (8 * kNumEventClasses))
        return false;
    result.delivered.resize(static_cast<std::size_t>(numDelivered));
    for (EventCounts &counts : result.delivered)
        for (std::uint64_t &count : counts.counts)
            count = in.u64();
    result.numThreads = in.u32();
    const std::uint64_t numSchedule = in.u64();
    if (numSchedule > in.remaining() / 8)
        return false;
    result.schedule.reserve(static_cast<std::size_t>(numSchedule));
    for (std::uint64_t i = 0; i < numSchedule && in.ok(); ++i) {
        const auto thread = static_cast<ThreadId>(in.u32());
        const std::uint32_t quantum = in.u32();
        result.schedule.push_back({thread, quantum});
    }
    return in.ok();
}

void
serializeSegmentHeader(support::ByteWriter &out, const SegmentHeader &header)
{
    out.u64(header.records);
    out.u64(header.steps);
    out.u64(header.tidBitmap);
    out.u64(header.firstInstr);
    out.u64(header.lastInstr);
    out.u64(header.bytes);
    out.u8(header.flags);
}

bool
deserializeSegmentHeader(support::ByteReader &in, SegmentHeader &header)
{
    header.records = in.u64();
    header.steps = in.u64();
    header.tidBitmap = in.u64();
    const std::uint64_t firstInstr = in.u64();
    const std::uint64_t lastInstr = in.u64();
    header.bytes = in.u64();
    header.flags = in.u8();
    if (firstInstr > kNoInstr || lastInstr > kNoInstr)
        return false;
    header.firstInstr = static_cast<InstrId>(firstInstr);
    header.lastInstr = static_cast<InstrId>(lastInstr);
    // Unknown flag bits mean a writer newer than this reader: reject
    // rather than misinterpret.
    if (header.flags & ~(SegmentHeader::kFlagHasValues |
                         SegmentHeader::kFlagSpilled))
        return false;
    return in.ok();
}

/** Meta prologue shared by the capture file and the snapshot blob:
 *  version, capture knobs, segment count, run result, header table. */
void
serializeTraceMeta(support::ByteWriter &out, const TraceStore &store,
                   const RunResult &result, std::uint64_t numSegments,
                   const std::function<const SegmentHeader &(std::size_t)>
                       &headerAt)
{
    out.u32(kTraceMetaVersion);
    out.u8(store.capturesValues() ? 1 : 0);
    out.u64(store.segmentBytesThreshold());
    out.u64(numSegments);
    serializeRunResult(out, result);
    for (std::uint64_t i = 0; i < numSegments; ++i)
        serializeSegmentHeader(out, headerAt(static_cast<std::size_t>(i)));
}

struct TraceMeta
{
    bool captureValues = false;
    std::uint64_t segmentBytes = 0;
    std::vector<SegmentHeader> headers;
    RunResult result;
};

bool
deserializeTraceMeta(support::ByteReader &in, TraceMeta &meta)
{
    if (in.u32() != kTraceMetaVersion)
        return false;
    const std::uint8_t captureValues = in.u8();
    if (captureValues > 1)
        return false;
    meta.captureValues = captureValues != 0;
    meta.segmentBytes = in.u64();
    if (meta.segmentBytes == 0)
        return false;
    const std::uint64_t numSegments = in.u64();
    if (!deserializeRunResult(in, meta.result))
        return false;
    // 49 bytes per serialized header.
    if (numSegments > in.remaining() / 49)
        return false;
    meta.headers.resize(static_cast<std::size_t>(numSegments));
    std::uint64_t stepSum = 0;
    for (SegmentHeader &header : meta.headers) {
        if (!deserializeSegmentHeader(in, header))
            return false;
        if (header.bytes == 0)
            return false; // empty segments are never stored
        stepSum += header.steps;
    }
    // The replay loop asserts that step flags reproduce the recorded
    // step count; validate it here so a corrupt capture is rejected
    // instead of tripping the assert mid-replay.
    if (stepSum != meta.result.steps)
        return false;
    return in.ok();
}

} // namespace

bool
persistTrace(const RecordedTrace &trace, const std::string &path,
             std::string *errorOut)
{
    const TraceStore &store = trace.events;
    OHA_ASSERT(store.finished_, "persistTrace before finish()");

    support::DurableWriter writer(path, support::kDurableKindCapture);
    support::ByteWriter meta;
    serializeTraceMeta(meta, store, trace.result, store.numSegments(),
                       [&](std::size_t i) -> const SegmentHeader & {
                           return store.header(i);
                       });
    writer.addBlock(meta.data());

    for (std::size_t i = 0; i < store.numSegments(); ++i) {
        writer.beginBlock();
        const bool ok = store.forEachSegmentBytes(
            i, [&](const std::uint8_t *data, std::size_t len) {
                writer.writeChunk(data, len);
            });
        writer.endBlock();
        if (!ok) {
            if (errorOut)
                *errorOut = path + ": cannot map spilled segment " +
                            std::to_string(i);
            OHA_WARN("trace persist to %s failed: segment %zu unmappable",
                     path.c_str(), i);
            return false;
        }
    }

    std::string error;
    if (!writer.commit(&error)) {
        if (errorOut)
            *errorOut = error;
        OHA_WARN("trace persist failed: %s", error.c_str());
        return false;
    }
    return true;
}

std::shared_ptr<RecordedTrace>
loadTrace(const std::string &path, std::string *errorOut)
{
    const auto reject = [&](const std::string &reason)
        -> std::shared_ptr<RecordedTrace> {
        if (errorOut)
            *errorOut = path + ": " + reason;
        OHA_WARN("rejecting capture file %s: %s", path.c_str(),
                 reason.c_str());
        return nullptr;
    };

    std::string error;
    auto reader = support::DurableReader::open(
        path, support::kDurableKindCapture, &error);
    if (!reader) {
        if (errorOut)
            *errorOut = error;
        OHA_WARN("rejecting capture file: %s", error.c_str());
        return nullptr;
    }

    if (reader->numBlocks() < 1)
        return reject("no meta block");
    std::string metaBytes;
    if (!reader->readBlock(0, metaBytes))
        return reject("meta block unreadable");
    support::ByteReader metaIn(metaBytes);
    TraceMeta meta;
    if (!deserializeTraceMeta(metaIn, meta) || metaIn.remaining() != 0)
        return reject("corrupt meta block");
    if (reader->numBlocks() != 1 + meta.headers.size())
        return reject("block count does not match segment table");

    // Cross-check every segment block length against the header table
    // before adopting anything.
    for (std::size_t i = 0; i < meta.headers.size(); ++i) {
        if (reader->blockLength(1 + i) != meta.headers[i].bytes)
            return reject("segment " + std::to_string(i) +
                          " length mismatch");
    }

    auto trace = std::make_shared<RecordedTrace>();
    trace->result = std::move(meta.result);

    TraceStoreOptions options;
    options.segmentBytes = static_cast<std::size_t>(meta.segmentBytes);
    options.captureValues = meta.captureValues;
    TraceStore store(options);

    const std::uint64_t fileSize = reader->fileSize();
    std::vector<std::uint64_t> offsets;
    offsets.reserve(meta.headers.size());
    for (std::size_t i = 0; i < meta.headers.size(); ++i)
        offsets.push_back(reader->blockOffset(1 + i));
    store.file_ = SpillFile::adoptReadOnly(reader->releaseFd(), fileSize);

    for (std::size_t i = 0; i < meta.headers.size(); ++i) {
        TraceStore::Segment segment;
        segment.header = meta.headers[i];
        // Every loaded segment replays through an mmap window of the
        // capture file, whether or not it was spilled at record time.
        segment.header.flags |= SegmentHeader::kFlagSpilled;
        segment.fileOffset = offsets[i];
        store.totalBytes_ +=
            static_cast<std::size_t>(segment.header.bytes);
        ++store.spillStats_.spilledSegments;
        store.segments_.push_back(std::move(segment));
    }
    store.finished_ = true;

    // Verification map pass: prove every window the replayers will
    // need is mappable now, so a load under injected mmap faults is
    // rejected here instead of tripping the replay-time assert.
    for (std::size_t i = 0; i < store.segments_.size(); ++i) {
        const TraceStore::Segment &segment = store.segments_[i];
        if (!store.file_->map(segment.fileOffset,
                              static_cast<std::size_t>(
                                  segment.header.bytes)))
            return reject("segment " + std::to_string(i) +
                          " unmappable");
    }

    trace->events = std::move(store);
    return trace;
}

bool
serializeRecordedTrace(const RecordedTrace &trace, support::ByteWriter &out)
{
    const TraceStore &store = trace.events;
    OHA_ASSERT(store.finished_, "serializeRecordedTrace before finish()");
    serializeTraceMeta(out, store, trace.result, store.numSegments(),
                       [&](std::size_t i) -> const SegmentHeader & {
                           return store.header(i);
                       });
    for (std::size_t i = 0; i < store.numSegments(); ++i) {
        const bool ok = store.forEachSegmentBytes(
            i, [&](const std::uint8_t *data, std::size_t len) {
                out.bytes(data, len);
            });
        if (!ok)
            return false;
    }
    return true;
}

std::shared_ptr<RecordedTrace>
deserializeRecordedTrace(support::ByteReader &in)
{
    TraceMeta meta;
    if (!deserializeTraceMeta(in, meta))
        return nullptr;
    // The remaining payload must hold every segment.
    std::uint64_t needed = 0;
    for (const SegmentHeader &header : meta.headers)
        needed += header.bytes;
    if (needed > in.remaining())
        return nullptr;

    auto trace = std::make_shared<RecordedTrace>();
    trace->result = std::move(meta.result);

    TraceStoreOptions options;
    options.segmentBytes = static_cast<std::size_t>(meta.segmentBytes);
    options.captureValues = meta.captureValues;
    TraceStore store(options);

    for (const SegmentHeader &header : meta.headers) {
        const auto bytes = static_cast<std::size_t>(header.bytes);
        const std::uint8_t *payload = in.bytes(bytes);
        if (!payload)
            return nullptr;
        TraceStore::Segment segment;
        segment.header = header;
        const bool wasSpilled =
            header.flags & SegmentHeader::kFlagSpilled;
        segment.header.flags &=
            static_cast<std::uint8_t>(~SegmentHeader::kFlagSpilled);

        bool onDisk = false;
        if (wasSpilled) {
            // Re-spill segments that lived on disk originally, so a
            // restored big capture does not balloon RAM.  Failure
            // falls back to RAM exactly like live capture does.
            if (!store.file_ && !store.spillFailed_) {
                int createErrno = 0;
                store.file_ = SpillFile::create(&createErrno);
                if (!store.file_) {
                    store.spillFailed_ = true;
                    store.spillStats_.lastErrno = createErrno;
                }
            }
            if (store.file_ && !store.spillFailed_) {
                onDisk = store.file_->append(payload, bytes,
                                             segment.fileOffset);
                if (!onDisk) {
                    store.spillFailed_ = true;
                    store.spillStats_.lastErrno =
                        store.file_->lastErrno();
                    if (store.spillStats_.spilledSegments == 0)
                        store.file_.reset();
                }
            }
        }
        if (onDisk) {
            segment.header.flags |= SegmentHeader::kFlagSpilled;
            ++store.spillStats_.spilledSegments;
        } else {
            auto buffer = std::make_unique<TraceBuffer>();
            buffer->putBytes(payload, bytes);
            segment.buffer = std::move(buffer);
            store.residentClosed_ += bytes;
            if (wasSpilled)
                ++store.spillStats_.ramFallbackSegments;
        }
        store.totalBytes_ += bytes;
        store.segments_.push_back(std::move(segment));
    }
    store.finished_ = true;
    if (!in.ok())
        return nullptr;
    trace->events = std::move(store);
    return trace;
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

/** One attachment group's abort control, plus the result frozen when
 *  the replay stops the group at an instruction boundary. */
class TraceReplayer::Group final : public ExecutionControl
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
    /** Valid once stopped; outputs are filled in at the end. */
    RunResult result;
    std::size_t outputsAtStop = 0;

  private:
    bool *abortPending_;
};

TraceReplayer::TraceReplayer(const ir::Module &module,
                             const RecordedTrace &trace)
    : module_(module), trace_(trace)
{
    addGroup();
}

TraceReplayer::~TraceReplayer() = default;

TraceReplayer::GroupId
TraceReplayer::addGroup()
{
    groups_.push_back(std::make_unique<Group>(&abortPending_));
    return groups_.size() - 1;
}

void
TraceReplayer::attach(GroupId group, Tool *tool,
                      const InstrumentationPlan *plan)
{
    OHA_ASSERT(tool && plan && group < groups_.size());
    OHA_ASSERT(attachments_.size() < kMaxAttachments,
               "dispatch masks hold at most 64 attachments");
    attachments_.push_back({tool, plan, group});
}

ExecutionControl &
TraceReplayer::control(GroupId group)
{
    OHA_ASSERT(group < groups_.size());
    return *groups_[group];
}

void
TraceReplayer::requestAbort(std::string reason)
{
    groups_[0]->requestAbort(std::move(reason));
}

void
TraceReplayer::requestAbort(std::string reason, const AbortMetadata &meta)
{
    groups_[0]->requestAbort(std::move(reason), meta);
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
    std::uint64_t liveMask = 0;
    for (std::size_t i = 0; i < attachments_.size(); ++i) {
        const InstrumentationPlan &plan = *attachments_[i].plan;
        const std::uint64_t bit = std::uint64_t{1} << i;
        liveMask |= bit;
        groups_[attachments_[i].group]->bits |= bit;
        for (InstrId id = 0; id < numInstrs; ++id)
            if (plan.coversInstr(id))
                dispatch[id].mask |= bit;
        for (BlockId id = 0; id < numBlocks; ++id)
            if (plan.coversBlock(id))
                blockMask[id] |= bit;
    }
    std::vector<EventCounts> delivered(attachments_.size());

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
    std::size_t liveGroups = groups_.size();

    // Freeze every group with a pending abort at the current
    // instruction boundary — exactly where a standalone replay of the
    // group would stop — and drop its tools from every dispatch path.
    const auto stopAbortedGroups = [&] {
        abortPending_ = false;
        for (const std::unique_ptr<Group> &group : groups_) {
            if (group->stopped || !group->abortRequested)
                continue;
            group->stopped = true;
            --liveGroups;
            RunResult &result = group->result;
            result.status = RunResult::Status::Aborted;
            result.abortReason = group->abortReason;
            result.abortMeta = group->abortMeta;
            result.steps = stepsStarted;
            result.totalEvents = totalEvents;
            result.numThreads = numThreads;
            group->outputsAtStop = outputs.size();
            if (group->bits == 0)
                continue;
            liveMask &= ~group->bits;
            for (Site &site : dispatch)
                site.mask &= ~group->bits;
            for (std::uint64_t &mask : blockMask)
                mask &= ~group->bits;
        }
    };

    // Segments decode standalone (delta chains restart per segment);
    // a spilled segment is mapped only while its cursor lives, so
    // peak resident trace bytes track the segment size, not the
    // trace size.
    bool allStopped = false;
    for (std::size_t seg = 0; seg < store.numSegments() && !allStopped;
         ++seg) {
        const bool hasValues =
            store.header(seg).flags & SegmentHeader::kFlagHasValues;
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
                if (abortPending_) {
                    stopAbortedGroups();
                    if (liveGroups == 0) {
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
                Value value;
                switch (ins.op) {
                  case ir::Opcode::Load:
                  case ir::Opcode::Store:
                    prevObj += reader.zigzag();
                    obj = static_cast<ObjectId>(prevObj);
                    off = static_cast<std::uint32_t>(reader.varint());
                    if (hasValues)
                        value = decodeTraceValue(reader);
                    break;
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
                    ctx.value = value;
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
                        attachments_[i].tool->onEvent(ctx);
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
                    attachments_[i].tool->onBlockEnter(tid, block);
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
                for (std::uint64_t mask = liveMask; mask; mask &= mask - 1)
                    attachments_[std::countr_zero(mask)]
                        .tool->onThreadStart(tid, parent, spawnSite);
                break;
              }
              case TraceRecorder::kThreadFinish: {
                for (std::uint64_t mask = liveMask; mask; mask &= mask - 1)
                    attachments_[std::countr_zero(mask)]
                        .tool->onThreadFinish(tid);
                break;
              }
            }
        }
    }
    // An abort requested by the stream's last instruction has no
    // further boundary to stop at: the group ends aborted, with every
    // step counted.
    if (abortPending_)
        stopAbortedGroups();

    std::vector<RunResult> results;
    results.reserve(groups_.size());
    for (const std::unique_ptr<Group> &group : groups_) {
        RunResult result;
        if (group->stopped) {
            result = std::move(group->result);
            result.outputs.assign(outputs.begin(),
                                  outputs.begin() +
                                      static_cast<std::ptrdiff_t>(
                                          group->outputsAtStop));
        } else {
            OHA_ASSERT(stepsStarted == trace_.result.steps,
                       "trace step flags diverge from recorded step count");
            result.status = trace_.result.status;
            result.abortReason = trace_.result.abortReason;
            result.abortMeta = trace_.result.abortMeta;
            result.steps = trace_.result.steps;
            result.schedule = trace_.result.schedule;
            result.totalEvents = totalEvents;
            result.numThreads = numThreads;
            result.outputs = outputs;
        }
        for (std::size_t i = 0; i < attachments_.size(); ++i)
            if (groups_[attachments_[i].group] == group)
                result.delivered.push_back(delivered[i]);
        results.push_back(std::move(result));
    }
    return results;
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
        const bool hasValues =
            store.header(seg).flags & SegmentHeader::kFlagHasValues;
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
                    reader.zigzag();
                    reader.varint();
                    if (hasValues)
                        decodeTraceValue(reader);
                    break;
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
