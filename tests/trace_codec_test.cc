/**
 * @file
 * Trace codec unit tests: the encoded byte stream itself.
 *
 * Pins the record encoding byte-for-byte (so growing the codec can
 * never silently change the format parity baselines rely on) and
 * covers the escape-tid (tid >= 31) header path.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "exec/trace.h"

namespace oha {
namespace {

/** Drain every byte of the stream, in order. */
std::vector<std::uint8_t>
allBytes(const exec::TraceBuffer &stream)
{
    std::vector<std::uint8_t> bytes;
    exec::TraceCursor cursor(stream);
    while (!cursor.atEnd())
        bytes.push_back(cursor.byte());
    return bytes;
}

TEST(TraceCodec, PayloadFreeEncodingIsByteStable)
{
    // A scripted record sequence with hand-computed expected bytes:
    // any codec change that is not strictly additive breaks this.
    exec::TraceRecorder recorder;
    exec::TraceRecorder::Writer main = recorder.open(0);
    main.threadStart(true, 0, kNoInstr);
    main.access(true, 5, 3, 2);
    recorder.commit(main);
    exec::TraceRecorder::Writer child = recorder.open(1);
    child.blockEnter(false, 7);
    child.access(true, 6, 3, 4);
    child.threadFinish(false);
    recorder.commit(child);

    const exec::TraceBuffer stream = recorder.take();
    const std::vector<std::uint8_t> expected = {
        // thread start, step flag, tid 0: parent 0, site kNoInstr
        0x06, 0x00, 0x00,
        // Load, step flag, tid 0: zigzag(+5), zigzag(+3), off 2
        0x04, 0x0A, 0x06, 0x02,
        // block enter, tid 1: zigzag(+7)
        0x09, 0x0E,
        // Store, step flag, tid 1: zigzag(+1), zigzag(0), off 4
        0x0C, 0x02, 0x00, 0x04,
        // thread finish, tid 1
        0x0B,
    };
    EXPECT_EQ(allBytes(stream), expected);
    EXPECT_EQ(stream.sizeBytes(), expected.size());
}

TEST(TraceCodec, EscapeTidRoundTrips)
{
    // tid 30 fits the 5-bit header field; 31 is the escape marker
    // itself and must be escaped; 300 needs a multi-byte varint.
    const ThreadId tids[] = {30, 31, 32, 300};
    exec::TraceRecorder recorder;
    for (const ThreadId tid : tids) {
        exec::TraceRecorder::Writer writer = recorder.open(tid);
        writer.threadFinish(false);
        recorder.commit(writer);
    }
    const exec::TraceBuffer stream = recorder.take();

    // 30 -> 1 header byte; 31 and 32 -> header + 1 varint byte;
    // 300 -> header + 2 varint bytes.
    EXPECT_EQ(stream.sizeBytes(), 1u + 2u + 2u + 3u);

    exec::TraceCursor cursor(stream);
    for (const ThreadId expected : tids) {
        const std::uint8_t header = cursor.byte();
        EXPECT_EQ(header & 3, exec::TraceRecorder::kThreadFinish);
        ThreadId tid = header >> 3;
        if (tid == exec::TraceRecorder::kTidEscape)
            tid = static_cast<ThreadId>(cursor.varint());
        EXPECT_EQ(tid, expected);
    }
    EXPECT_TRUE(cursor.atEnd());
}

} // namespace
} // namespace oha
