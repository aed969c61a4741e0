/**
 * @file
 * Generators for the 14 race-detection workloads (Figure 5 order).
 * See workloads.h for the phenomenon each namesake models.
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

/** Magic request values recognized by worker loops. */
constexpr std::int64_t kColdRequest = 999;
constexpr std::int64_t kRaceRequest = 555;

/** FNV-1a so corpora are deterministic across platforms. */
std::uint64_t
nameSeed(const std::string &name)
{
    return support::fnv1a64(name.data(), name.size());
}

/** Thread/benchmark structure knobs for the server-style generator. */
struct ServerKnobs
{
    int threads = 3;
    int requests = 50;
    int sharedReads = 2;   ///< read-only index reads per request
    int lockedOps = 2;     ///< lock-guarded shared updates per request
    int scratchOps = 2;    ///< thread-local buffer ops per request
    int arithOps = 3;      ///< plain arithmetic per request
    bool poolInLoop = false;  ///< spawn workers inside a loop
    bool viaHelper = false;   ///< spawn a background thread via helper
    bool barrier = false;     ///< unguarded disjoint-slot result writes
    bool customSync = false;  ///< flag-handoff pair (Figure 4)
    bool heavyIndexer = false; ///< background thread with hot unguarded
                               ///< self-writes (singleton-invariant win)
    double coldProb = 0.02;   ///< P(run contains a cold request)
    double raceProb = 0.0;    ///< P(run triggers the intentional race)
};

/** Build the server-style multithreaded program. */
std::shared_ptr<Module>
buildServerModule(const ServerKnobs &knobs)
{
    auto module = std::make_shared<Module>();
    IRBuilder b(*module);

    const auto indexG = module->addGlobal("index", 64);
    const auto statsG = module->addGlobal("stats", 8);
    const auto statsLockG = module->addGlobal("stats_lock", 1);
    const auto errorLogG = module->addGlobal("error_log", 4);
    const auto raceCtrG = module->addGlobal("race_counter", 1);
    const auto resultsG = module->addGlobal("results", 8);
    const auto syncFlagG = module->addGlobal("sync_flag", 1);
    const auto syncDataG = module->addGlobal("sync_data", 1);
    const auto syncLockG = module->addGlobal("sync_lock", 1);
    const auto outBufG = module->addGlobal("out_buf", 16);

    // ---- worker(tid) ------------------------------------------------
    Function *worker = b.createFunction("worker", 1);
    {
        const Reg tid = 0;
        const Reg scratch = b.alloc(8);
        const Reg acc = b.constInt(1);
        const Reg nReq = b.constInt(knobs.requests);
        const Reg base = b.mul(tid, b.constInt(256));
        const Reg c63 = b.constInt(63);
        const Reg c7 = b.constInt(7);

        emitCountedLoop(b, nReq, [&](Reg r) {
            const Reg req = b.inputDyn(b.add(base, r), 64);

            // Read-only shared index lookups (pruned by sound MHP:
            // written only before any spawn).
            for (int k = 0; k < knobs.sharedReads; ++k) {
                const Reg slot = b.band(b.add(req, b.constInt(k)), c63);
                const Reg v =
                    b.load(b.gepDyn(b.globalAddr(indexG), slot));
                b.binopTo(acc, BinOpKind::Add, acc, v);
            }

            // Plain arithmetic.
            for (int k = 0; k < knobs.arithOps; ++k) {
                b.binopTo(acc, BinOpKind::Xor, acc,
                          b.mul(req, b.constInt(2 * k + 3)));
            }

            // Lock-guarded shared statistics: the sound detector must
            // keep these (may-alias locksets); the guarding-locks
            // invariant prunes them.
            if (knobs.lockedOps > 0) {
                const Reg lockPtr = b.globalAddr(statsLockG);
                b.lock(lockPtr);
                for (int k = 0; k < knobs.lockedOps; ++k) {
                    const Reg slot =
                        b.band(b.add(req, b.constInt(k)), c7);
                    const Reg cell =
                        b.gepDyn(b.globalAddr(statsG), slot);
                    b.store(cell, b.add(b.load(cell), acc));
                }
                b.unlock(lockPtr);
            }

            // Thread-local scratch (pruned even by the sound detector
            // via escape analysis).
            for (int k = 0; k < knobs.scratchOps; ++k) {
                const Reg slot = b.band(b.add(r, b.constInt(k)), c7);
                const Reg cell = b.gepDyn(scratch, slot);
                b.store(cell, acc);
                b.binopTo(acc, BinOpKind::Add, acc, b.load(cell));
            }

            // Barrier-style disjoint-slot result writes: statically
            // racy (variable index), dynamically race-free — the
            // pattern lockset detectors cannot optimize (sunflow /
            // montecarlo).
            if (knobs.barrier) {
                const Reg cell = b.gepDyn(b.globalAddr(resultsG), tid);
                b.store(cell, b.add(b.load(cell), acc));
            }

            // Cold error path: unguarded shared write, never profiled.
            emitIf(b, b.eq(req, b.constInt(kColdRequest)), [&] {
                const Reg cell = b.gep(b.globalAddr(errorLogG), 0);
                b.store(cell, b.add(b.load(cell), b.constInt(1)));
                b.binopTo(acc, BinOpKind::Add, acc, b.constInt(17));
            });

        });
        b.ret(acc);
    }

    // ---- intentional racer pair (pmd) --------------------------------
    // Two synchronization-free threads increment a shared counter when
    // input word 5 says so: a genuine data race every detector
    // configuration must report identically.
    Function *racer = nullptr;
    if (knobs.raceProb > 0) {
        racer = b.createFunction("racer", 0);
        emitIf(b, b.eq(b.input(5), b.constInt(1)), [&] {
            const Reg cell = b.globalAddr(raceCtrG);
            b.store(cell, b.add(b.load(cell), b.constInt(1)));
        });
        b.ret(b.constInt(0));
    }

    // ---- heavy background indexer (luindex / batik) -----------------
    Function *indexer = nullptr;
    Function *startHelper = nullptr;
    if (knobs.viaHelper) {
        indexer = b.createFunction("indexer", 1);
        {
            const Reg rounds =
                b.constInt(knobs.heavyIndexer ? knobs.requests * 6
                                              : knobs.requests);
            const Reg acc = b.constInt(3);
            const Reg c15 = b.constInt(15);
            emitCountedLoop(b, rounds, [&](Reg i) {
                const Reg v = b.inputDyn(i, 32);
                b.binopTo(acc, BinOpKind::Add, acc, v);
                // Unguarded writes to a private-by-convention global:
                // only provably ordered if this thread is a singleton.
                const Reg cell = b.gepDyn(b.globalAddr(outBufG),
                                          b.band(i, c15));
                b.store(cell, b.add(b.load(cell), acc));
            });
            b.ret(acc);
        }
        startHelper = b.createFunction("start_indexer", 0);
        {
            const Reg h = b.spawn(indexer, {b.constInt(0)});
            b.ret(h);
        }
    }

    // ---- custom-sync pair (moldyn, Figure 4) ------------------------
    Function *producer = nullptr;
    Function *consumer = nullptr;
    if (knobs.customSync) {
        producer = b.createFunction("producer", 0);
        {
            // Unguarded payload write, then flag publication under a
            // lock: the payload's ordering exists only through the
            // lock + spin chain.
            b.store(b.globalAddr(syncDataG), b.input(7));
            const Reg lockPtr = b.globalAddr(syncLockG);
            b.lock(lockPtr);
            b.store(b.globalAddr(syncFlagG), b.constInt(1));
            b.unlock(lockPtr);
            b.ret();
        }
        consumer = b.createFunction("consumer", 0);
        {
            Function *f = b.currentFunction();
            BasicBlock *spin = b.createBlock(f, "spin");
            BasicBlock *ready = b.createBlock(f, "ready");
            b.br(spin);
            b.setInsertPoint(spin);
            const Reg lockPtr = b.globalAddr(syncLockG);
            b.lock(lockPtr);
            const Reg flag = b.load(b.globalAddr(syncFlagG));
            b.unlock(lockPtr);
            b.condBr(flag, ready, spin);
            b.setInsertPoint(ready);
            b.ret(b.load(b.globalAddr(syncDataG)));
        }
    }

    // ---- main --------------------------------------------------------
    b.createFunction("main", 0);
    {
        // Initialize the read-only index before any thread exists.
        emitCountedLoop(b, b.constInt(64), [&](Reg i) {
            b.store(b.gepDyn(b.globalAddr(indexG), i), b.inputDyn(i, 0));
        });

        const Reg total = b.constInt(0);

        Reg helperHandle = ir::kNoReg;
        if (knobs.viaHelper)
            helperHandle = b.call(startHelper, {});

        Reg prodHandle = ir::kNoReg, consHandle = ir::kNoReg;
        if (knobs.customSync) {
            prodHandle = b.spawn(producer, {});
            consHandle = b.spawn(consumer, {});
        }

        Reg racer1 = ir::kNoReg, racer2 = ir::kNoReg;
        if (racer) {
            racer1 = b.spawn(racer, {});
            racer2 = b.spawn(racer, {});
        }

        if (knobs.poolInLoop) {
            const Reg handles = b.alloc(
                static_cast<std::uint32_t>(knobs.threads));
            emitCountedLoop(
                b, b.constInt(knobs.threads),
                [&](Reg t) {
                    const Reg h = b.spawn(worker, {t});
                    b.store(b.gepDyn(handles, t), h);
                },
                "pool");
            emitCountedLoop(
                b, b.constInt(knobs.threads),
                [&](Reg t) {
                    const Reg r = b.join(b.load(b.gepDyn(handles, t)));
                    b.binopTo(total, BinOpKind::Add, total, r);
                },
                "poolJoin");
        } else {
            std::vector<Reg> handles;
            for (int t = 0; t < knobs.threads; ++t)
                handles.push_back(b.spawn(worker, {b.constInt(t)}));
            for (Reg h : handles) {
                const Reg r = b.join(h);
                b.binopTo(total, BinOpKind::Add, total, r);
            }
        }

        if (knobs.customSync) {
            b.join(prodHandle);
            const Reg got = b.join(consHandle);
            b.binopTo(total, BinOpKind::Add, total, got);
        }
        if (racer) {
            b.join(racer1);
            b.join(racer2);
        }
        if (knobs.viaHelper) {
            const Reg r = b.join(helperHandle);
            b.binopTo(total, BinOpKind::Add, total, r);
            b.binopTo(total, BinOpKind::Add, total,
                      b.load(b.gep(b.globalAddr(outBufG), 3)));
        }

        // Post-join readback of shared statistics, under the stats
        // lock (the pool-style joins are not statically matchable, so
        // only the guarding-locks invariant can order this readback
        // with the workers' updates).
        if (knobs.lockedOps > 0)
            b.lock(b.globalAddr(statsLockG));
        emitCountedLoop(
            b, b.constInt(8),
            [&](Reg i) {
                const Reg v =
                    b.load(b.gepDyn(b.globalAddr(statsG), i));
                b.binopTo(total, BinOpKind::Add, total, v);
            },
            "readback");
        if (knobs.lockedOps > 0)
            b.unlock(b.globalAddr(statsLockG));
        b.binopTo(total, BinOpKind::Add, total,
                  b.load(b.globalAddr(raceCtrG)));

        b.output(total);
        b.ret();
    }

    module->finalize();
    return module;
}

/** Input corpus generator for the server workloads. */
exec::ExecConfig
makeServerInput(const ServerKnobs &knobs, std::uint64_t seed)
{
    Rng rng(seed);
    exec::ExecConfig config;
    config.input.resize(64 + std::size_t(knobs.threads) * 256, 0);
    for (int i = 0; i < 64; ++i)
        config.input[i] = static_cast<std::int64_t>(rng.below(256));
    for (int t = 0; t < knobs.threads; ++t)
        for (int r = 0; r < knobs.requests; ++r)
            config.input[64 + std::size_t(t) * 256 + std::size_t(r)] =
                static_cast<std::int64_t>(rng.below(48));
    if (rng.chance(knobs.coldProb)) {
        const std::size_t t = rng.below(knobs.threads);
        const std::size_t r = rng.below(knobs.requests);
        config.input[64 + t * 256 + r] = kColdRequest;
    }
    if (knobs.raceProb > 0 && rng.chance(knobs.raceProb))
        config.input[5] = 1; // arm the racer pair
    config.scheduleSeed = rng.next();
    return config;
}

/** Knobs for the five statically race-free JavaGrande-style kernels. */
struct KernelKnobs
{
    int threads = 4;
    int iters = 300;
    int memOps = 2;   ///< thread-local buffer ops per iteration
    int arithOps = 3; ///< arithmetic per iteration
};

std::shared_ptr<Module>
buildKernelModule(const KernelKnobs &knobs)
{
    auto module = std::make_shared<Module>();
    IRBuilder b(*module);

    Function *worker = b.createFunction("kernel_worker", 1);
    {
        const Reg tid = 0;
        const Reg buf = b.alloc(16);
        const Reg acc = b.assign(tid);
        const Reg c15 = b.constInt(15);
        emitCountedLoop(b, b.constInt(knobs.iters), [&](Reg i) {
            const Reg v = b.inputDyn(b.add(i, b.mul(tid, b.constInt(31))),
                                     0);
            for (int k = 0; k < knobs.arithOps; ++k) {
                b.binopTo(acc, BinOpKind::Add, acc,
                          b.mul(v, b.constInt(k + 1)));
            }
            for (int k = 0; k < knobs.memOps; ++k) {
                const Reg cell = b.gepDyn(buf, b.band(i, c15));
                b.store(cell, acc);
                b.binopTo(acc, BinOpKind::Xor, acc, b.load(cell));
            }
        });
        b.ret(acc);
    }

    b.createFunction("main", 0);
    {
        const Reg total = b.constInt(0);
        std::vector<Reg> handles;
        for (int t = 0; t < knobs.threads; ++t)
            handles.push_back(b.spawn(worker, {b.constInt(t)}));
        for (Reg h : handles)
            b.binopTo(total, BinOpKind::Add, total, b.join(h));
        b.output(total);
        b.ret();
    }

    module->finalize();
    return module;
}

exec::ExecConfig
makeKernelInput(std::uint64_t seed)
{
    Rng rng(seed);
    exec::ExecConfig config;
    config.input.resize(128);
    for (auto &v : config.input)
        v = static_cast<std::int64_t>(rng.below(1 << 20));
    config.scheduleSeed = rng.next();
    return config;
}

/** Per-benchmark presets. */
const std::map<std::string, ServerKnobs> &
serverPresets()
{
    static const std::map<std::string, ServerKnobs> presets = [] {
        std::map<std::string, ServerKnobs> p;
        // lusearch: lock-heavy search server with a thread pool.
        p["lusearch"] = {3, 70, 7, 4, 4, 2, true,  false, false, false,
                         false, 0.04, 0.0};
        // pmd: analysis tool with cold paths and a rare true race.
        p["pmd"] = {3, 50, 4, 2, 4, 4, false, false, false, false,
                    false, 0.10, 0.12};
        // raytracer: heavy locked shared-scene updates.
        p["raytracer"] = {3, 60, 4, 6, 4, 3, false, false, false, false,
                          false, 0.02, 0.0};
        // moldyn: custom synchronization handoff (Figure 4).
        p["moldyn"] = {2, 40, 2, 3, 6, 6, false, false, false, true,
                       false, 0.02, 0.0};
        // sunflow: barrier/fork-join rendering.
        p["sunflow"] = {4, 60, 6, 0, 8, 4, false, false, true, false,
                        false, 0.02, 0.0};
        // montecarlo: barrier-style simulation.
        p["montecarlo"] = {4, 50, 4, 0, 10, 6, false, false, true, false,
                           false, 0.01, 0.0};
        // batik: background renderer via helper + cold paths.
        p["batik"] = {2, 50, 4, 3, 6, 4, false, true, false, false,
                      false, 0.08, 0.0};
        // xalan: statically almost race-free transformer.
        p["xalan"] = {3, 60, 10, 0, 6, 3, false, false, false, false,
                      false, 0.01, 0.0};
        // luindex: hot singleton indexer thread.
        p["luindex"] = {2, 70, 2, 2, 4, 2, false, true, false, false,
                        true, 0.02, 0.0};
        return p;
    }();
    return presets;
}

const std::map<std::string, KernelKnobs> &
kernelPresets()
{
    static const std::map<std::string, KernelKnobs> presets = [] {
        std::map<std::string, KernelKnobs> p;
        p["sor"] = {4, 350, 4, 2};
        p["sparse"] = {4, 250, 5, 2};
        p["series"] = {4, 550, 1, 10};
        p["crypt"] = {4, 300, 3, 4};
        p["lufact"] = {4, 220, 4, 3};
        return p;
    }();
    return presets;
}

/** Paper baseline seconds (Figure 5 parentheses), display only. */
const std::map<std::string, double> &
paperBaselines()
{
    static const std::map<std::string, double> t = {
        {"lusearch", 2.2}, {"pmd", 0.77},      {"raytracer", 3.6},
        {"moldyn", 1.5},   {"sunflow", 6.7},   {"montecarlo", 7.3},
        {"batik", 9.9},    {"xalan", 1.9},     {"luindex", 11.9},
        {"sor", 1.1},      {"sparse", 2.2},    {"series", 24.1},
        {"crypt", 4.1},    {"lufact", 1.8},
    };
    return t;
}

} // namespace

const std::vector<std::string> &
raceWorkloadNames()
{
    static const std::vector<std::string> names = {
        "lusearch", "pmd",        "raytracer", "moldyn", "sunflow",
        "montecarlo", "batik",    "xalan",     "luindex",
        "sor",      "sparse",     "series",    "crypt",  "lufact",
    };
    return names;
}

const std::vector<std::string> &
raceFreeKernelNames()
{
    static const std::vector<std::string> names = {
        "sor", "sparse", "series", "crypt", "lufact",
    };
    return names;
}

Workload
makeRaceWorkload(const std::string &name, std::size_t profileRuns,
                 std::size_t testRuns)
{
    Workload workload;
    workload.name = name;
    workload.race = true;
    auto bl = paperBaselines().find(name);
    if (bl != paperBaselines().end())
        workload.paperBaselineSeconds = bl->second;

    const std::uint64_t seed = nameSeed(name);
    if (auto it = serverPresets().find(name); it != serverPresets().end()) {
        workload.module = buildServerModule(it->second);
        for (std::size_t i = 0; i < profileRuns; ++i) {
            workload.profilingSet.push_back(
                makeServerInput(it->second, seed + i));
        }
        for (std::size_t i = 0; i < testRuns; ++i) {
            workload.testingSet.push_back(
                makeServerInput(it->second, seed + 100000 + i));
        }
        return workload;
    }
    if (auto it = kernelPresets().find(name); it != kernelPresets().end()) {
        workload.module = buildKernelModule(it->second);
        for (std::size_t i = 0; i < profileRuns; ++i)
            workload.profilingSet.push_back(makeKernelInput(seed + i));
        for (std::size_t i = 0; i < testRuns; ++i) {
            workload.testingSet.push_back(
                makeKernelInput(seed + 100000 + i));
        }
        return workload;
    }
    OHA_FATAL("unknown race workload '%s'", name.c_str());
}

} // namespace oha::workloads
