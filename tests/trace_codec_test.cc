/**
 * @file
 * Trace codec unit tests: the encoded byte stream itself.
 *
 * Pins the payload-free record encoding byte-for-byte (so growing the
 * codec — segments, value payloads — can never silently change the
 * format existing captures and parity baselines rely on), covers the
 * escape-tid (tid >= 31) header path, and round-trips the optional
 * value payload through encode/decode and through a full
 * record-then-replay cycle against a live run.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dyn/plans.h"
#include "exec/trace.h"
#include "ir/builder.h"

namespace oha {
namespace {

/** Drain every byte of every segment, in stream order. */
std::vector<std::uint8_t>
allBytes(const exec::TraceStore &store)
{
    std::vector<std::uint8_t> bytes;
    for (std::size_t i = 0; i < store.numSegments(); ++i) {
        exec::SegmentCursor cursor = store.cursor(i);
        while (!cursor.atEnd())
            bytes.push_back(cursor.byte());
    }
    return bytes;
}

TEST(TraceCodec, PayloadFreeEncodingIsByteStable)
{
    // A scripted record sequence with hand-computed expected bytes:
    // any codec change that is not strictly additive breaks this.
    exec::TraceRecorder recorder;
    exec::TraceRecorder::Writer main = recorder.open(0);
    main.threadStart(true, 0, kNoInstr);
    main.memAccess(true, 5, 3, 2, exec::Value{});
    recorder.commit(main);
    exec::TraceRecorder::Writer child = recorder.open(1);
    child.blockEnter(false, 7);
    child.memAccess(true, 6, 3, 4, exec::Value{});
    child.threadFinish(false);
    recorder.commit(child);

    const exec::TraceStore store = recorder.take();
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
    EXPECT_EQ(allBytes(store), expected);

    ASSERT_EQ(store.numSegments(), 1u);
    const exec::SegmentHeader &header = store.header(0);
    EXPECT_EQ(header.records, 5u);
    EXPECT_EQ(header.steps, 3u);
    EXPECT_EQ(header.tidBitmap, 0b11u);
    EXPECT_EQ(header.firstInstr, 5u);
    EXPECT_EQ(header.lastInstr, 6u);
    EXPECT_EQ(header.bytes, expected.size());
    EXPECT_EQ(header.flags, 0);
    EXPECT_FALSE(store.spilled());
    EXPECT_EQ(store.sizeBytes(), expected.size());
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
    const exec::TraceStore store = recorder.take();

    // 30 -> 1 header byte; 31 and 32 -> header + 1 varint byte;
    // 300 -> header + 2 varint bytes.
    EXPECT_EQ(store.sizeBytes(), 1u + 2u + 2u + 3u);

    exec::SegmentCursor cursor = store.cursor(0);
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

TEST(TraceCodec, ValuePayloadRoundTripsAllKinds)
{
    const exec::Value values[] = {
        exec::Value::scalar(-7),
        exec::Value::scalar(1'000'000'007),
        exec::Value::pointer(9, 5),
        exec::Value::funcPtr(3),
        exec::Value::thread(2),
    };

    exec::TraceStoreOptions options;
    options.captureValues = true;
    exec::TraceRecorder recorder(options);
    exec::TraceRecorder::Writer writer = recorder.open(0);
    InstrId id = 10;
    for (const exec::Value &value : values)
        writer.memAccess(true, id++, 1, 0, value);
    recorder.commit(writer);
    const exec::TraceStore store = recorder.take();
    ASSERT_EQ(store.numSegments(), 1u);
    EXPECT_TRUE(store.header(0).flags & exec::SegmentHeader::kFlagHasValues);

    exec::SegmentCursor cursor = store.cursor(0);
    for (const exec::Value &expected : values) {
        const std::uint8_t header = cursor.byte();
        EXPECT_EQ(header & 3, exec::TraceRecorder::kInstrEvent);
        cursor.zigzag(); // instr delta
        cursor.zigzag(); // obj delta
        cursor.varint(); // off
        const exec::Value decoded = exec::decodeTraceValue(cursor);
        EXPECT_EQ(decoded.kind, expected.kind);
        EXPECT_EQ(decoded.num, expected.num);
        EXPECT_EQ(decoded.obj, expected.obj);
        EXPECT_EQ(decoded.off, expected.off);
        EXPECT_EQ(decoded.idx, expected.idx);
    }
    EXPECT_TRUE(cursor.atEnd());
}

/** Tool that remembers every Load/Store value it is shown. */
struct ValueSpy : exec::Tool
{
    std::vector<std::pair<InstrId, exec::Value>> seen;

    void
    onEvent(const exec::EventCtx &ctx) override
    {
        if (ctx.instr->op == ir::Opcode::Load ||
            ctx.instr->op == ir::Opcode::Store)
            seen.push_back({ctx.instr->id, ctx.value});
    }
};

TEST(TraceCodec, ValueCapturingReplayDeliversLiveValues)
{
    // The documented PR-4 gap: a value-consuming tool used to force a
    // live run.  With captureValues, replay hands the tool the exact
    // loaded/stored Values the interpreter saw.
    using namespace ir;
    Module module;
    IRBuilder b(module);
    b.createFunction("main", 0);
    const Reg ptr = b.alloc(2);
    b.store(ptr, b.constInt(42));
    b.store(b.gep(ptr, 1), b.add(b.load(ptr), b.constInt(1)));
    b.output(b.load(b.gep(ptr, 1)));
    b.ret();
    module.finalize();

    exec::ExecConfig config;
    const auto plan = dyn::fullFastTrackPlan(module);

    ValueSpy live;
    exec::Interpreter interp(module, config);
    interp.attach(&live, &plan);
    interp.run();
    ASSERT_FALSE(live.seen.empty());

    exec::TraceStoreOptions options;
    options.captureValues = true;
    const exec::RecordedTrace trace =
        exec::recordRun(module, config, options);

    ValueSpy replayed;
    exec::TraceReplayer replayer(module, trace);
    replayer.attach(&replayed, &plan);
    replayer.run();

    ASSERT_EQ(live.seen.size(), replayed.seen.size());
    for (std::size_t i = 0; i < live.seen.size(); ++i) {
        EXPECT_EQ(live.seen[i].first, replayed.seen[i].first);
        const exec::Value &a = live.seen[i].second;
        const exec::Value &b2 = replayed.seen[i].second;
        EXPECT_EQ(a.kind, b2.kind);
        EXPECT_EQ(a.num, b2.num);
        EXPECT_EQ(a.obj, b2.obj);
        EXPECT_EQ(a.off, b2.off);
        EXPECT_EQ(a.idx, b2.idx);
    }

    // The payload costs bytes only when asked for: the same execution
    // captured without values keeps the PR-4 encoding (and is
    // strictly smaller).
    const exec::RecordedTrace plain = exec::recordRun(module, config);
    EXPECT_LT(plain.events.sizeBytes(), trace.events.sizeBytes());
    EXPECT_EQ(plain.events.header(0).flags &
                  exec::SegmentHeader::kFlagHasValues,
              0);
}

} // namespace
} // namespace oha
