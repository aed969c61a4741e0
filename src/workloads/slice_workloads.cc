/**
 * @file
 * Generators for the 7 slicing workloads (Table 2 order).  See
 * workloads.h for the phenomenon each namesake models.
 *
 * Two mechanisms drive the hybrid-vs-optimistic gap, mirroring the
 * paper:
 *  - *cold checksum writers*: rare error/reset paths deep inside the
 *    handlers/stages store into the endpoint's checksum state.  The
 *    sound slicer must pull every handler's computation into the
 *    slice through those stores; the LUC invariant prunes them.
 *  - *cold call fan*: helpers statically call several next-layer
 *    helpers but dynamically only one.  Sound context-sensitive
 *    analysis blows past its context budget (falls back to CI, which
 *    conflates the shared box allocator's heap); the likely-unused-
 *    call-contexts invariant collapses the fan so the predicated
 *    analysis runs context-sensitively (Figure 11's vim/nginx flip).
 */

#include "workloads/workloads.h"

#include <map>

#include "support/fingerprint.h"
#include "support/rng.h"
#include "workloads/builder_util.h"

namespace oha::workloads {

namespace {

using ir::BasicBlock;
using ir::BinOpKind;
using ir::Function;
using ir::IRBuilder;
using ir::Module;
using ir::Reg;

constexpr std::int64_t kColdArg = 4095;

std::uint64_t
nameSeed(const std::string &name)
{
    return support::fnv1a64(name.data(), name.size()) ^ 0x5eed;
}

/** Knobs for the slicing applications. */
struct SliceKnobs
{
    int tableSize = 16;        ///< indirect dispatch table entries
    int scriptLen = 80;        ///< dispatched operations per run
    int handlerWeight = 4;     ///< arithmetic per handler
    int utilLayers = 0;        ///< layered helper calls per handler
    int utilFan = 2;           ///< static helpers per layer (dynamic: 1)
    bool sharedBoxes = true;   ///< CI-conflating shared alloc helper
    bool coldChkWriters = true; ///< cold paths store into checksum state
    bool hotChkEntangle = false; ///< perl: hot paths touch checksum state
    int opSpread = 6;          ///< op distribution decay
    double coldProb = 0.04;    ///< P(run exercises a rare behaviour)
    int recursion = 0;         ///< go: recursive evaluator depth knob
    int bookkeepingOps = 0;    ///< nginx: endpoint-irrelevant event work
    int pipelineDepth = 0;     ///< sphinx/zlib: nested stage depth
    int blocksPerRun = 0;      ///< pipeline outer loop length
    /** Cold "subsystem" modules (replication, persistence, plugins):
     *  statically reachable from every handler, never executed in
     *  this deployment.  They blow the sound CS analysis past its
     *  context budget; LUC + context invariants collapse them. */
    int coldSubsystems = 0;
    int subsystemWeight = 24;
    /** nginx: pure-compute wait loop per event (models I/O-bound
     *  time that no slice instruments). */
    int ioWaitIters = 0;
    /** Inline the checksum fold (zlib kernels). */
    bool inlineFold = false;
};

constexpr int kStateCells = 32;

/** Shared pieces: checksum state global + shared box allocator. */
struct CommonParts
{
    std::uint32_t chkG = 0;
    std::uint32_t stateG = 0;
    Function *mkbox = nullptr;
};

CommonParts
emitCommon(Module &module, IRBuilder &b)
{
    CommonParts parts;
    parts.chkG = module.addGlobal("chk_state", 2);
    parts.stateG = module.addGlobal("state", kStateCells);
    parts.mkbox = b.createFunction("mkbox", 1);
    const Reg cell = b.alloc(1);
    b.store(cell, 0);
    b.ret(cell);
    return parts;
}

/** Emit a cold "checksum reset" write (the slice-bloating store). */
void
emitColdChkWrite(IRBuilder &b, const CommonParts &parts, Reg trigger,
                 Reg value)
{
    emitIf(b, b.eq(trigger, b.constInt(kColdArg)), [&] {
        const Reg cell = b.gep(b.globalAddr(parts.chkG), 0);
        b.store(cell, b.bxor(b.load(cell), value));
    });
}

/**
 * Layered utility helpers with cold call fan.  Returns the layer-0
 * helpers.  Each helper takes (value, coldFlag): it hot-calls exactly
 * one next-layer helper and cold-calls the rest behind the flag.
 * The flag is derived from *raw input* by the caller, so profiled
 * and tested behaviour is exactly controlled by the corpus.
 */
std::vector<Function *>
emitUtilLayers(IRBuilder &b, const CommonParts &parts,
               const SliceKnobs &knobs)
{
    std::vector<std::vector<Function *>> utils(
        std::size_t(std::max(knobs.utilLayers, 0)));
    for (int layer = knobs.utilLayers - 1; layer >= 0; --layer) {
        utils[std::size_t(layer)].resize(std::size_t(knobs.utilFan));
        for (int u = 0; u < knobs.utilFan; ++u) {
            Function *f = b.createFunction(
                "util_" + std::to_string(layer) + "_" + std::to_string(u),
                2);
            const Reg arg = 0;
            const Reg cold = 1;
            Reg acc = b.add(b.mul(arg, b.constInt(layer + 2 + u)),
                            b.constInt(u + 1));
            if (layer + 1 < knobs.utilLayers) {
                const auto &next = utils[std::size_t(layer) + 1];
                // Hot path: a single next-layer call.
                acc = b.add(acc,
                            b.call(next[std::size_t(u % knobs.utilFan)],
                                   {acc, cold}));
                // Cold fan: statically present, dynamically dead
                // unless the input armed the flag.
                for (int v = 0; v < knobs.utilFan; ++v) {
                    if (v == u % knobs.utilFan)
                        continue;
                    emitIf(b, cold, [&] {
                        const Reg extra =
                            b.call(next[std::size_t(v)], {acc, cold});
                        if (knobs.coldChkWriters) {
                            const Reg cell =
                                b.gep(b.globalAddr(parts.chkG), 0);
                            b.store(cell,
                                    b.add(b.load(cell), extra));
                        }
                    });
                }
            } else if (knobs.coldChkWriters) {
                emitIf(b, cold, [&] {
                    const Reg cell = b.gep(b.globalAddr(parts.chkG), 0);
                    b.store(cell, b.bxor(b.load(cell), acc));
                });
            }
            b.ret(acc);
            utils[std::size_t(layer)][std::size_t(u)] = f;
        }
    }
    return utils.empty() ? std::vector<Function *>{}
                         : utils.front();
}

/** Build a dispatch-style application (perl/redis/vim/go/nginx). */
std::shared_ptr<Module>
buildDispatchModule(const SliceKnobs &knobs)
{
    auto module = std::make_shared<Module>();
    IRBuilder b(*module);
    CommonParts parts = emitCommon(*module, b);

    const auto tableG = module->addGlobal(
        "op_table", std::uint32_t(knobs.tableSize));
    const auto bookG = module->addGlobal("conn_state", 16);

    const std::vector<Function *> utils = emitUtilLayers(b, parts, knobs);

    // Cold subsystem modules: a chain of heavy functions reachable
    // from every handler behind an input test that this deployment's
    // inputs can never satisfy (arg is always < kNeverArg).  They are
    // the "code that is there but you never run" of a real server.
    constexpr std::int64_t kNeverArg = 8191;
    std::vector<Function *> subsystems;
    for (int s = knobs.coldSubsystems - 1; s >= 0; --s) {
        Function *f =
            b.createFunction("subsystem_" + std::to_string(s), 1);
        Reg acc = b.mul(0, b.constInt(s + 5));
        const Reg noCold = b.constInt(0);
        for (int w = 0; w < knobs.subsystemWeight; ++w)
            acc = b.bxor(acc, b.add(acc, b.constInt(w + 3)));
        if (!utils.empty()) {
            acc = b.add(acc, b.call(utils[std::size_t(s) % utils.size()],
                                    {acc, noCold}));
            acc = b.add(acc,
                        b.call(utils[std::size_t(s + 1) % utils.size()],
                               {acc, noCold}));
        }
        if (!subsystems.empty()) {
            // Multiple call sites into the deeper subsystems make the
            // acyclic call-chain count exponential in the subsystem
            // count — the sound CS analysis cannot afford it.
            acc = b.add(acc, b.call(subsystems.back(), {acc}));
            acc = b.add(acc, b.call(subsystems.back(), {b.add(acc, acc)}));
            if (subsystems.size() >= 2) {
                acc = b.add(
                    acc,
                    b.call(subsystems[subsystems.size() - 2], {acc}));
            }
        }
        if (knobs.coldChkWriters) {
            const Reg cell = b.gep(b.globalAddr(parts.chkG), 0);
            b.store(cell, b.add(b.load(cell), acc));
        }
        b.ret(acc);
        subsystems.push_back(f);
    }

    // Recursive evaluator (go).
    Function *recurse = nullptr;
    if (knobs.recursion > 0) {
        recurse = b.createFunction("recurse", 2); // (value, depth)
        Function *f = b.currentFunction();
        BasicBlock *deeper = b.createBlock(f, "deeper");
        BasicBlock *leaf = b.createBlock(f, "leaf");
        const Reg depth = 1;
        b.condBr(b.binop(BinOpKind::Gt, depth, b.constInt(0)), deeper,
                 leaf);
        b.setInsertPoint(deeper);
        const Reg shrunk = b.sub(depth, b.constInt(1));
        const Reg child = b.call(recurse, {b.add(0, depth), shrunk});
        b.ret(b.add(child, b.constInt(1)));
        b.setInsertPoint(leaf);
        b.ret(b.assign(0));
    }

    // Handlers.
    std::vector<Function *> handlers;
    for (int k = 0; k < knobs.tableSize; ++k) {
        Function *h =
            b.createFunction("handler_" + std::to_string(k), 1);
        const Reg arg = 0;
        const Reg coldFlag = b.eq(arg, b.constInt(kColdArg));
        Reg acc = b.add(arg, b.constInt(k * 3 + 1));
        for (int w = 0; w < knobs.handlerWeight; ++w)
            acc = b.bxor(acc, b.mul(arg, b.constInt(w + k + 2)));
        if (!utils.empty()) {
            acc = b.add(acc,
                        b.call(utils[std::size_t(k) % utils.size()],
                               {acc, coldFlag}));
        }
        if (recurse && k >= knobs.tableSize / 2 && k % 4 == 1) {
            const Reg depth =
                b.band(arg, b.constInt(knobs.recursion - 1));
            acc = b.add(acc, b.call(recurse, {acc, depth}));
        }
        if (knobs.sharedBoxes) {
            const Reg box = b.call(parts.mkbox, {acc});
            b.store(box, acc);
            acc = b.add(acc, b.load(box));
        }
        // Per-handler home cell (endpoint C observes cell 1).
        const Reg cell =
            b.gep(b.globalAddr(parts.stateG), k % kStateCells);
        b.store(cell, b.add(b.load(cell), acc));
        if (knobs.hotChkEntangle) {
            // perl: the generic value array entangles everything with
            // the endpoint chain on the hot path.
            const Reg slot = b.band(arg, b.constInt(1));
            const Reg chkCell =
                b.gepDyn(b.globalAddr(parts.chkG), slot);
            b.store(chkCell, b.add(b.load(chkCell), acc));
        }
        if (knobs.coldChkWriters)
            emitColdChkWrite(b, parts, arg, acc);
        if (!subsystems.empty()) {
            // Dead-in-this-deployment subsystem entry points.
            emitIf(b, b.eq(arg, b.constInt(kNeverArg)), [&] {
                Reg extra = b.call(
                    subsystems[std::size_t(k) % subsystems.size()],
                    {acc});
                extra = b.add(
                    extra,
                    b.call(
                        subsystems[std::size_t(k + 1) %
                                   subsystems.size()],
                        {acc}));
                const Reg cell = b.gep(b.globalAddr(parts.chkG), 0);
                b.store(cell, b.add(b.load(cell), extra));
            });
        }
        b.ret(acc);
        handlers.push_back(h);
    }

    // dispatch(op, arg)
    Function *dispatch = b.createFunction("dispatch", 2);
    {
        const Reg fp = b.load(b.gepDyn(b.globalAddr(tableG), 0));
        b.ret(b.icall(fp, {1}));
    }

    // main
    b.createFunction("main", 0);
    {
        for (int k = 0; k < knobs.tableSize; ++k) {
            b.store(b.gep(b.globalAddr(tableG), k),
                    b.funcAddr(handlers[std::size_t(k)]));
        }

        const Reg sum = b.constInt(0);
        const Reg bytesOut = b.constInt(0);
        const Reg len = b.constInt(knobs.scriptLen);
        // Seed the checksum state.
        b.store(b.gep(b.globalAddr(parts.chkG), 0), b.constInt(7));

        emitCountedLoop(b, len, [&](Reg s) {
            const Reg op = b.inputDyn(s, 16);
            const Reg arg =
                b.inputDyn(b.add(s, b.constInt(knobs.scriptLen)), 16);
            const Reg r = b.call(dispatch, {op, arg});
            b.binopTo(sum, BinOpKind::Add, sum, r);

            // Endpoint chain: checksum folded through memory (and,
            // when sharedBoxes, through the conflatable allocator).
            const Reg chkCell = b.gep(b.globalAddr(parts.chkG), 0);
            Reg folded = b.bxor(b.load(chkCell), arg);
            if (knobs.sharedBoxes) {
                const Reg box = b.call(parts.mkbox, {folded});
                b.store(box, folded);
                folded = b.load(box);
            }
            b.store(chkCell, folded);

            // Endpoint-irrelevant connection bookkeeping (nginx).
            for (int c = 0; c < knobs.bookkeepingOps; ++c) {
                const Reg cell = b.gep(b.globalAddr(bookG), c % 16);
                b.store(cell, b.add(b.load(cell), arg));
            }
            if (knobs.bookkeepingOps > 0) {
                b.binopTo(bytesOut, BinOpKind::Add, bytesOut,
                          b.band(arg, b.constInt(1023)));
            }

            // I/O wait: compute-only spin no slice ever instruments.
            if (knobs.ioWaitIters > 0) {
                const Reg spin = b.constInt(0);
                emitCountedLoop(
                    b, b.constInt(knobs.ioWaitIters),
                    [&](Reg w) {
                        b.binopTo(spin, BinOpKind::Add, spin,
                                  b.bxor(w, arg));
                    },
                    "iowait");
            }
        });

        // Endpoint A: the checksum (small true slice, bloated for the
        // sound slicer by the cold writers).
        b.output(b.load(b.gep(b.globalAddr(parts.chkG), 0)));
        if (knobs.bookkeepingOps > 0)
            b.output(bytesOut);
        // Endpoints B/C: observers of the home cells of *infrequent*
        // handlers — the paper's debugging scenario slices on the
        // misbehaving rare command.  Entangled with every handler
        // under a conflated CI heap, separated by predicated CS.
        b.output(b.load(b.gep(b.globalAddr(parts.stateG),
                              (knobs.tableSize / 3) % kStateCells)));
        b.output(b.load(b.gep(b.globalAddr(parts.stateG),
                              (knobs.tableSize / 2) % kStateCells)));
        (void)sum; // computed but unobserved, like most server state
        b.ret();
    }

    module->finalize();
    return module;
}

/** Build a pipeline-style application (zlib, sphinx). */
std::shared_ptr<Module>
buildPipelineModule(const SliceKnobs &knobs)
{
    auto module = std::make_shared<Module>();
    IRBuilder b(*module);
    CommonParts parts = emitCommon(*module, b);
    const auto outG = module->addGlobal("out_buf", 16);

    // Transform stages: stage_i calls stage_{i+1}; rare inputs hit a
    // "dictionary flush" that resets the checksum state.
    std::vector<Function *> stages(std::size_t(knobs.pipelineDepth));
    for (int i = knobs.pipelineDepth - 1; i >= 0; --i) {
        // (value, rawSample): the cold trigger compares the untouched
        // input sample so corpora fully control cold-path execution.
        Function *f = b.createFunction("stage_" + std::to_string(i), 2);
        const Reg arg = 0;
        const Reg raw = 1;
        Reg acc = b.mul(arg, b.constInt(i + 3));
        for (int w = 0; w < knobs.handlerWeight; ++w)
            acc = b.bxor(acc, b.add(acc, b.constInt(w + 17)));
        if (knobs.sharedBoxes) {
            const Reg box = b.call(parts.mkbox, {acc});
            b.store(box, acc);
            acc = b.load(box);
        }
        if (i + 1 < knobs.pipelineDepth) {
            acc = b.add(
                acc, b.call(stages[std::size_t(i) + 1], {acc, raw}));
        }
        if (knobs.coldChkWriters)
            emitColdChkWrite(b, parts, raw, acc);
        b.ret(acc);
        stages[std::size_t(i)] = f;
    }

    // Checksum helper: folds through the checksum global (and the
    // shared boxes, for CI conflation).  zlib-style kernels inline
    // the fold — an adler32 update is a couple of instructions.
    Function *fold = nullptr;
    if (!knobs.inlineFold) {
        fold = b.createFunction("fold", 1);
        const Reg sample = 0;
        const Reg chkCell = b.gep(b.globalAddr(parts.chkG), 0);
        Reg folded = b.bxor(b.load(chkCell), sample);
        if (knobs.sharedBoxes) {
            const Reg box = b.call(parts.mkbox, {folded});
            b.store(box, folded);
            folded = b.load(box);
        }
        b.store(chkCell, b.add(folded, b.constInt(1)));
        b.ret(folded);
    }

    b.createFunction("main", 0);
    {
        const Reg volume = b.constInt(0);
        b.store(b.gep(b.globalAddr(parts.chkG), 0), b.constInt(1));
        emitCountedLoop(b, b.constInt(knobs.blocksPerRun), [&](Reg blk) {
            // Samples live in the "args" region of the input vector,
            // where the corpus generator plants rare kColdArg values.
            const Reg sample =
                b.inputDyn(blk, 16 + knobs.blocksPerRun);
            const Reg transformed =
                b.call(stages[0], {sample, sample});
            b.store(b.gepDyn(b.globalAddr(outG),
                             b.band(blk, b.constInt(15))),
                    transformed);
            b.binopTo(volume, BinOpKind::Add, volume, transformed);
            if (knobs.inlineFold) {
                const Reg chkCell = b.gep(b.globalAddr(parts.chkG), 0);
                b.store(chkCell, b.bxor(b.load(chkCell), sample));
            } else {
                b.call(fold, {sample});
            }
        });
        // The stream checksum is the observable; the transform volume
        // stays internal (out_buf models the output file).
        b.output(b.load(b.gep(b.globalAddr(parts.chkG), 0)));
        (void)volume;
        b.ret();
    }

    module->finalize();
    return module;
}

/** Input generation for dispatch/pipeline apps. */
exec::ExecConfig
makeSliceInput(const SliceKnobs &knobs, std::uint64_t seed)
{
    Rng rng(seed);
    exec::ExecConfig config;
    const std::size_t len = std::size_t(knobs.scriptLen);
    config.input.resize(16 + 2 * len + 64, 0);
    for (int i = 0; i < 16; ++i)
        config.input[std::size_t(i)] =
            static_cast<std::int64_t>(rng.below(64));

    for (std::size_t s = 0; s < len; ++s) {
        if (knobs.tableSize > 0) {
            // Geometric-ish decay: low-numbered handlers common,
            // high-numbered rare; drives gradual invariant
            // convergence (Figures 7/8).
            std::uint64_t op = 0;
            while (op + 1 < std::uint64_t(knobs.tableSize) &&
                   rng.chance(1.0 - 1.0 / knobs.opSpread)) {
                op += rng.below(2) + (rng.chance(0.2) ? 1 : 0);
            }
            if (rng.chance(knobs.coldProb / double(len)))
                op = std::uint64_t(knobs.tableSize) - 1 - rng.below(2);
            config.input[16 + s] = static_cast<std::int64_t>(
                op % std::uint64_t(knobs.tableSize));
        }
        std::int64_t arg = static_cast<std::int64_t>(rng.below(1024));
        if (rng.chance(knobs.coldProb / (2.0 * double(len))))
            arg = kColdArg; // cold checksum writer / cold call fan
        config.input[16 + len + s] = arg;
    }
    config.scheduleSeed = rng.next();
    return config;
}

const std::map<std::string, SliceKnobs> &
slicePresets()
{
    static const std::map<std::string, SliceKnobs> presets = [] {
        std::map<std::string, SliceKnobs> p;
        {
            // nginx: I/O-bound event loop; endpoint slices are small,
            // almost all time is un-instrumented wait/bookkeeping.
            SliceKnobs k;
            k.tableSize = 8;
            k.scriptLen = 40;
            k.handlerWeight = 2;
            k.utilLayers = 2;
            k.utilFan = 4;
            k.coldChkWriters = false;
            k.opSpread = 4;
            k.coldProb = 0.02;
            k.bookkeepingOps = 6;
            k.ioWaitIters = 60;
            k.coldSubsystems = 4;
            p["nginx"] = k;
        }
        {
            // redis: command dispatch over a shared store, with cold
            // persistence/replication subsystems.
            SliceKnobs k;
            k.tableSize = 16;
            k.scriptLen = 80;
            k.handlerWeight = 12;
            k.utilLayers = 2;
            k.utilFan = 3;
            k.opSpread = 5;
            k.coldProb = 0.04;
            k.coldSubsystems = 6;
            p["redis"] = k;
        }
        {
            // perl: interpreter whose generic value state entangles
            // the endpoint with every hot handler.
            SliceKnobs k;
            k.tableSize = 24;
            k.scriptLen = 90;
            k.handlerWeight = 4;
            k.utilLayers = 1;
            k.utilFan = 2;
            k.hotChkEntangle = true;
            k.opSpread = 8;
            k.coldProb = 0.05;
            k.coldSubsystems = 8;
            p["perl"] = k;
        }
        {
            // vim: many commands, deep cold call fan, slow invariant
            // convergence.
            SliceKnobs k;
            k.tableSize = 40;
            k.scriptLen = 70;
            k.handlerWeight = 9;
            k.utilLayers = 3;
            k.utilFan = 4;
            k.opSpread = 12;
            k.coldProb = 0.03;
            k.coldSubsystems = 4;
            p["vim"] = k;
        }
        {
            // sphinx: deep pipeline; context checks dominate runtime.
            SliceKnobs k;
            k.tableSize = 0;
            k.handlerWeight = 3;
            k.pipelineDepth = 10;
            k.blocksPerRun = 60;
            k.coldProb = 0.02;
            p["sphinx"] = k;
        }
        {
            // go: recursive evaluator, unstable contexts.
            SliceKnobs k;
            k.tableSize = 18;
            k.scriptLen = 60;
            k.handlerWeight = 8;
            k.utilLayers = 1;
            k.utilFan = 2;
            k.opSpread = 7;
            k.coldProb = 0.10;
            k.recursion = 10;
            k.subsystemWeight = 24;
            k.coldSubsystems = 2;
            p["go"] = k;
        }
        {
            // zlib: small kernel; checksum slice tiny once the cold
            // "dictionary flush" writers are pruned.
            SliceKnobs k;
            k.tableSize = 0;
            k.handlerWeight = 16;
            k.pipelineDepth = 8;
            k.blocksPerRun = 60;
            k.coldProb = 0.015;
            k.inlineFold = true;
            p["zlib"] = k;
        }
        return p;
    }();
    return presets;
}

const std::map<std::string, double> &
paperBaselines()
{
    static const std::map<std::string, double> t = {
        {"nginx", 0.34}, {"redis", 0.19}, {"perl", 0.79},
        {"vim", 0.11},   {"sphinx", 1.72}, {"go", 0.95},
        {"zlib", 0.19},
    };
    return t;
}

} // namespace

const std::vector<std::string> &
sliceWorkloadNames()
{
    static const std::vector<std::string> names = {
        "nginx", "redis", "perl", "vim", "sphinx", "go", "zlib",
    };
    return names;
}

Workload
makeSliceWorkload(const std::string &name, std::size_t profileRuns,
                  std::size_t testRuns)
{
    auto it = slicePresets().find(name);
    if (it == slicePresets().end())
        OHA_FATAL("unknown slice workload '%s'", name.c_str());
    const SliceKnobs &knobs = it->second;

    Workload workload;
    workload.name = name;
    workload.race = false;
    workload.paperBaselineSeconds = paperBaselines().at(name);
    workload.module = knobs.pipelineDepth > 0
                          ? buildPipelineModule(knobs)
                          : buildDispatchModule(knobs);

    const std::uint64_t seed = nameSeed(name);
    SliceKnobs inputKnobs = knobs;
    if (knobs.pipelineDepth > 0)
        inputKnobs.scriptLen = knobs.blocksPerRun;
    for (std::size_t i = 0; i < profileRuns; ++i) {
        workload.profilingSet.push_back(
            makeSliceInput(inputKnobs, seed + i));
    }
    for (std::size_t i = 0; i < testRuns; ++i) {
        workload.testingSet.push_back(
            makeSliceInput(inputKnobs, seed + 100000 + i));
    }
    return workload;
}

} // namespace oha::workloads
