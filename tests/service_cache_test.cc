/**
 * @file
 * Shared cross-request cache: LRU eviction order, byte-budget
 * accounting, collision verification (the memo-cache correctness
 * fix), generation-stamped inserts across resets, and a concurrent
 * torture test (run under TSan in CI).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "analysis/andersen_cache.h"
#include "core/optslice.h"
#include "ir/builder.h"
#include "profile/observation_cache.h"
#include "service/lru.h"
#include "service/shared_cache.h"
#include "service/snapshot.h"
#include "workloads/workloads.h"

namespace oha {
namespace {

/** A tiny finalized module; @p variant changes the printed form (and
 *  so the fingerprint) without changing the shape. */
std::shared_ptr<const ir::Module>
tinyModule(int variant)
{
    auto module = std::make_shared<ir::Module>();
    ir::IRBuilder b(*module);
    b.createFunction("main", 0);
    for (int i = 0; i <= variant; ++i) {
        const auto ptr = b.alloc(1);
        b.store(ptr, b.constInt(100 + i));
        b.output(b.load(ptr));
    }
    b.ret();
    module->finalize();
    return module;
}

/** Flattened per-register points-to sets — with workUnits, the
 *  observable identity of an Andersen result. */
std::vector<analysis::CellId>
ptsSignature(const ir::Module &module,
             const analysis::AndersenResult &result)
{
    std::vector<analysis::CellId> sig;
    for (const auto &func : module.functions())
        for (ir::Reg reg = 0; reg < func->numRegs(); ++reg) {
            result.ptsAllContexts(func->id(), reg)
                .forEach([&](analysis::CellId cell) {
                    sig.push_back(cell);
                });
            sig.push_back(analysis::kNoCell);
        }
    return sig;
}

/** Restores a clean cache on scope exit (tests share the process-wide
 *  cache with every other test in the binary). */
struct CacheGuard
{
    std::size_t savedBudget = analysis::staticCacheByteBudget();
    CacheGuard() { analysis::resetAndersenCache(); }
    ~CacheGuard()
    {
        service::testing::forcePrimaryFingerprintCollisions(false);
        analysis::setStaticCacheByteBudget(savedBudget);
        analysis::resetAndersenCache();
    }
};

// ---------------------------------------------------------------------
// LruList unit tests
// ---------------------------------------------------------------------

TEST(LruList, EvictsLeastRecentlyUsedFirst)
{
    service::LruList lru;
    std::vector<int> evicted;
    std::vector<service::LruList::Handle> handles;
    for (int i = 0; i < 4; ++i)
        handles.push_back(lru.insert(100, [&evicted, i] {
            evicted.push_back(i);
        }));
    EXPECT_EQ(lru.size(), 4u);
    EXPECT_EQ(lru.bytes(), 400u);

    // Capacity for two entries: the two oldest (0 then 1) go first.
    EXPECT_EQ(lru.evictToFit(200), 2u);
    EXPECT_EQ(evicted, (std::vector<int>{0, 1}));
    EXPECT_EQ(lru.bytes(), 200u);
    EXPECT_EQ(lru.size(), 2u);
}

TEST(LruList, TouchMovesAnEntryToTheFront)
{
    service::LruList lru;
    std::vector<int> evicted;
    std::vector<service::LruList::Handle> handles;
    for (int i = 0; i < 3; ++i)
        handles.push_back(lru.insert(100, [&evicted, i] {
            evicted.push_back(i);
        }));
    // 0 becomes most-recent; the eviction order is then 1, 2.
    lru.touch(handles[0]);
    EXPECT_EQ(lru.evictToFit(100), 2u);
    EXPECT_EQ(evicted, (std::vector<int>{1, 2}));
}

TEST(LruList, RemoveDetachesWithoutRunningTheEraseCallback)
{
    service::LruList lru;
    std::vector<int> evicted;
    const auto h0 = lru.insert(64, [&evicted] { evicted.push_back(0); });
    lru.insert(64, [&evicted] { evicted.push_back(1); });
    lru.remove(h0);
    EXPECT_EQ(lru.bytes(), 64u);
    EXPECT_EQ(lru.evictToFit(0), 1u);
    EXPECT_EQ(evicted, (std::vector<int>{1}));
}

TEST(LruList, OversizedEntriesAreEvictedToo)
{
    service::LruList lru;
    bool evicted = false;
    lru.insert(1000, [&evicted] { evicted = true; });
    EXPECT_EQ(lru.evictToFit(500), 1u);
    EXPECT_TRUE(evicted);
    EXPECT_EQ(lru.bytes(), 0u);
    EXPECT_EQ(lru.size(), 0u);
}

// ---------------------------------------------------------------------
// Shared-cache behavior through the memo layers
// ---------------------------------------------------------------------

/** Fabricate a slice-set result whose byte estimate is predictable;
 *  @p tag makes results distinguishable per key. */
analysis::SliceSetResult
fabricatedSlices(std::uint64_t tag)
{
    analysis::SliceSetResult out;
    std::set<InstrId> slice;
    for (InstrId i = 0; i < 32; ++i)
        slice.insert(i);
    out.slices.assign(4, slice);
    out.complete = true;
    out.workUnits = tag;
    return out;
}

TEST(SharedCache, MemoHitsServeTheStoredResult)
{
    CacheGuard guard;
    const auto module = tinyModule(0);
    int calls = 0;
    auto compute = [&calls] {
        ++calls;
        return fabricatedSlices(7);
    };
    const std::vector<InstrId> endpoints = {1, 2};
    const auto first =
        analysis::sliceSetMemo(module, nullptr, 1, endpoints, compute);
    const auto second =
        analysis::sliceSetMemo(module, nullptr, 1, endpoints, compute);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(first.get(), second.get());
    const auto stats = analysis::andersenCacheStats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_GT(stats.bytesCached, 0u);
}

TEST(SharedCache, ByteBudgetEvictsLeastRecentlyUsedEntries)
{
    CacheGuard guard;
    const auto module = tinyModule(0);
    const std::vector<InstrId> endpoints = {1};
    int calls = 0;
    auto memo = [&](std::uint64_t key) {
        return analysis::sliceSetMemo(module, nullptr, key, endpoints,
                                      [&calls, key] {
                                          ++calls;
                                          return fabricatedSlices(key);
                                      });
    };

    // Calibrate: one entry's charge, as the cache accounts it.
    memo(0);
    const std::size_t perEntry =
        analysis::andersenCacheStats().bytesCached;
    ASSERT_GT(perEntry, 0u);
    analysis::resetAndersenCache();

    // Room for three entries.
    analysis::setStaticCacheByteBudget(3 * perEntry + perEntry / 2);
    calls = 0;
    memo(1);
    memo(2);
    memo(3);
    EXPECT_EQ(analysis::andersenCacheStats().entries, 3u);
    EXPECT_EQ(analysis::andersenCacheStats().evictions, 0u);

    // Touch 1 so 2 is now the coldest, then overflow with 4.
    memo(1);
    memo(4);
    const auto stats = analysis::andersenCacheStats();
    EXPECT_EQ(stats.entries, 3u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_LE(stats.bytesCached, analysis::staticCacheByteBudget());
    EXPECT_EQ(calls, 4);

    // 2 was evicted (recomputes); 1 survived its touch (hit).
    EXPECT_EQ(memo(2)->workUnits, 2u);
    EXPECT_EQ(calls, 5);
    const std::uint64_t hitsBefore = analysis::andersenCacheStats().hits;
    memo(1);
    EXPECT_EQ(analysis::andersenCacheStats().hits, hitsBefore + 1);
    EXPECT_EQ(calls, 5);
}

TEST(SharedCache, ShrinkingTheBudgetEvictsImmediately)
{
    CacheGuard guard;
    const auto module = tinyModule(0);
    const std::vector<InstrId> endpoints = {1};
    for (std::uint64_t key = 0; key < 4; ++key)
        analysis::sliceSetMemo(module, nullptr, key, endpoints, [key] {
            return fabricatedSlices(key);
        });
    ASSERT_EQ(analysis::andersenCacheStats().entries, 4u);
    analysis::setStaticCacheByteBudget(1);
    const auto stats = analysis::andersenCacheStats();
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.bytesCached, 0u);
    EXPECT_EQ(stats.evictions, 4u);
}

// ---------------------------------------------------------------------
// Satellite bugfix: collision verification
// ---------------------------------------------------------------------

TEST(SharedCache, PrimaryFingerprintCollisionIsVerifiedNotServed)
{
    CacheGuard guard;
    // Every primary fingerprint now collides; only the independent
    // secondary fingerprints can tell entries apart.
    service::testing::forcePrimaryFingerprintCollisions(true);

    const auto moduleA = tinyModule(1); // 2 outputs
    const auto moduleB = tinyModule(5); // 6 outputs

    const auto a = analysis::runAndersenMemo(moduleA, {});
    // Same primary key as A's entry: without verification this would
    // silently return A's result for B.
    const auto b = analysis::runAndersenMemo(moduleB, {});
    EXPECT_EQ(analysis::andersenCacheStats().verifiedMisses, 1u);
    EXPECT_NE(a.get(), b.get());
    // The results genuinely belong to their modules (different
    // module sizes => different solve footprints).
    EXPECT_NE(a->workUnits, b->workUnits);

    // B's insert replaced the colliding entry, so A collides again —
    // verified again, never silently wrong.
    const auto a2 = analysis::runAndersenMemo(moduleA, {});
    EXPECT_EQ(analysis::andersenCacheStats().verifiedMisses, 2u);
    EXPECT_EQ(a2->workUnits, a->workUnits);

    // Profiling observations verify through the same machinery.
    exec::ExecConfig input;
    const auto observedA = prof::observeRunMemo(moduleA, {}, input);
    const auto observedB = prof::observeRunMemo(moduleB, {}, input);
    EXPECT_NE(observedA->steps, observedB->steps);
    EXPECT_GE(analysis::andersenCacheStats().verifiedMisses, 3u);
}

TEST(SharedCache, RestoredEntryNeverDisplacesALiveCollidingEntry)
{
    // A warm-start load must never evict what the cache already
    // serves.  With every primary fingerprint colliding, each restored
    // entry (module B) shares its key with a live entry (module A) in
    // the observation, race and slice sections.
    CacheGuard guard;
    service::testing::forcePrimaryFingerprintCollisions(true);
    const auto moduleA = tinyModule(1);
    const auto moduleB = tinyModule(5);

    struct Served
    {
        std::shared_ptr<const prof::RunObservations> observations;
        std::shared_ptr<const analysis::StaticRaceResult> race;
        std::shared_ptr<const analysis::SliceSetResult> slices;
    };
    auto serve = [](const std::shared_ptr<const ir::Module> &module,
                    std::uint64_t tag) {
        Served served;
        served.observations =
            prof::observeRunMemo(module, {}, exec::ExecConfig{});
        served.race = analysis::runStaticRaceDetectorMemo(module, nullptr);
        served.slices = analysis::sliceSetMemo(
            module, nullptr, 1, {InstrId(1)},
            [tag] { return fabricatedSlices(tag); });
        return served;
    };

    serve(moduleB, 5);
    const std::string path =
        "shared_cache_test_" + std::to_string(::getpid()) + ".snapshot";
    std::string error;
    ASSERT_TRUE(service::writeSnapshot(path, &error)) << error;
    analysis::resetAndersenCache();

    const Served live = serve(moduleA, 1);
    const auto beforeLoad = analysis::andersenCacheStats();
    const auto snapshotBefore = service::snapshotStats();
    const bool loaded = service::loadSnapshot(path, &error);
    ::unlink(path.c_str());
    ASSERT_TRUE(loaded) << error;
    EXPECT_EQ(analysis::andersenCacheStats().entries, beforeLoad.entries)
        << "a restored entry displaced or joined a live one";
    // The three dropped entries were valid: neither restored nor
    // rejected.
    const auto snapshotAfter = service::snapshotStats();
    EXPECT_EQ(snapshotAfter.entriesRestored, snapshotBefore.entriesRestored);
    EXPECT_EQ(snapshotAfter.entriesRejected, snapshotBefore.entriesRejected);

    // The live entries still serve hits, with no verified miss.
    const Served again = serve(moduleA, 1);
    const auto after = analysis::andersenCacheStats();
    EXPECT_EQ(after.hits, beforeLoad.hits + 3);
    EXPECT_EQ(after.verifiedMisses, beforeLoad.verifiedMisses);
    EXPECT_EQ(again.observations.get(), live.observations.get());
    EXPECT_EQ(again.race.get(), live.race.get());
    EXPECT_EQ(again.slices.get(), live.slices.get());
    EXPECT_EQ(again.slices->workUnits, 1u);
}

// ---------------------------------------------------------------------
// Satellite bugfix: generation-stamped inserts across resets
// ---------------------------------------------------------------------

TEST(SharedCache, InsertFromBeforeAResetIsDropped)
{
    CacheGuard guard;
    const auto module = tinyModule(0);
    const std::vector<InstrId> endpoints = {1};
    int calls = 0;

    // The solve starts, then a reset lands before it finishes (here:
    // from inside compute, which runs outside the cache lock — the
    // same window a concurrent resetter would hit).
    const auto first = analysis::sliceSetMemo(
        module, nullptr, 9, endpoints, [&calls] {
            ++calls;
            analysis::resetAndersenCache();
            return fabricatedSlices(9);
        });
    EXPECT_EQ(first->workUnits, 9u); // caller still gets the result
    const auto afterDrop = analysis::andersenCacheStats();
    EXPECT_EQ(afterDrop.staleDrops, 1u);
    EXPECT_EQ(afterDrop.entries, 0u) << "stale insert must not cache";

    // The next probe misses (nothing was cached) and inserts cleanly.
    const auto second = analysis::sliceSetMemo(
        module, nullptr, 9, endpoints, [&calls] {
            ++calls;
            return fabricatedSlices(9);
        });
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(analysis::andersenCacheStats().entries, 1u);

    // And from here on it hits.
    analysis::sliceSetMemo(module, nullptr, 9, endpoints, [&calls] {
        ++calls;
        return fabricatedSlices(9);
    });
    EXPECT_EQ(calls, 2);
    (void)second;
}

// ---------------------------------------------------------------------
// One context budget
// ---------------------------------------------------------------------

TEST(SharedCache, SoundCsSolveCachesTheDefaultCiSolve)
{
    // A sound CS solve at the pipeline's budget memoizes its CI
    // pre-pass under the default options, so a later default CI
    // request (OptSlice's endpoint ranking) is served, not re-solved.
    CacheGuard guard;
    const auto workload = workloads::makeSliceWorkload("nginx", 1, 1);
    analysis::AndersenOptions cs;
    cs.contextSensitive = true;
    cs.maxContexts = core::OptSliceConfig{}.csContextBudget;
    ASSERT_TRUE(analysis::runAndersenMemo(workload.module, cs)->completed);

    const auto before = analysis::andersenCacheStats();
    analysis::runAndersenMemo(workload.module, {});
    const auto after = analysis::andersenCacheStats();
    EXPECT_EQ(after.hits, before.hits + 1);
    EXPECT_EQ(after.misses, before.misses);
}

TEST(SharedCache, ColdOptSliceSolvesTheCiPrePassOnce)
{
    // Cold runOptSlice on nginx: three Andersen solves (sound CI
    // pre-pass, sound CS, predicated CS) and two slice sets (sound,
    // predicated) miss; endpoint ranking hits the pre-pass.  Trace,
    // profile and recovery caching stay off so only static results
    // are counted.
    CacheGuard guard;
    const auto workload = workloads::makeSliceWorkload("nginx", 4, 1);
    core::OptSliceConfig config;
    config.threads = 1;
    config.cacheProfileObservations = false;
    config.adaptiveRecovery = false;
    const core::OptSliceResult result = core::runOptSlice(workload, config);
    ASSERT_TRUE(result.soundPts.contextSensitive);
    ASSERT_TRUE(result.optPts.contextSensitive);

    const auto stats = analysis::andersenCacheStats();
    EXPECT_EQ(stats.misses, 3u + 2u);
    EXPECT_EQ(stats.hits, 1u);
}

// ---------------------------------------------------------------------
// Concurrent torture (meaningful under TSan)
// ---------------------------------------------------------------------

TEST(SharedCacheTorture, ConcurrentMemoResetAndBudgetChanges)
{
    CacheGuard guard;
    constexpr int kThreads = 8;
    constexpr int kIters = 60;

    std::vector<std::shared_ptr<const ir::Module>> modules;
    for (int v = 0; v < 3; ++v)
        modules.push_back(tinyModule(v));
    // Reference solves, for checking that concurrent cache traffic
    // never serves a wrong result: the points-to sets and the solve's
    // workUnits must both match, whatever was cached before.
    std::vector<std::vector<analysis::CellId>> expectedPts;
    std::vector<std::uint64_t> expectedWork;
    for (const auto &module : modules) {
        const analysis::AndersenResult reference =
            analysis::runAndersen(*module, {});
        expectedPts.push_back(ptsSignature(*module, reference));
        expectedWork.push_back(reference.workUnits);
    }
    std::vector<std::uint64_t> expectedSteps;
    for (const auto &module : modules)
        expectedSteps.push_back(prof::ProfilingCampaign(*module, {})
                                    .observeRun(exec::ExecConfig{})
                                    .steps);

    std::atomic<int> wrongResults{0};
    auto worker = [&](int tid) {
        for (int it = 0; it < kIters; ++it) {
            const int m = (tid + it) % int(modules.size());
            switch ((tid * 7 + it) % 5) {
              case 0: {
                const auto result =
                    analysis::runAndersenMemo(modules[m], {});
                if (ptsSignature(*modules[m], *result) != expectedPts[m] ||
                    result->workUnits != expectedWork[m])
                    ++wrongResults;
                break;
              }
              case 1: {
                const std::uint64_t key = std::uint64_t((tid + it) % 4);
                const auto result = analysis::sliceSetMemo(
                    modules[m], nullptr, key, {InstrId(1)},
                    [key] { return fabricatedSlices(key); });
                if (result->workUnits != key)
                    ++wrongResults;
                break;
              }
              case 2: {
                const auto observed = prof::observeRunMemo(
                    modules[m], {}, exec::ExecConfig{});
                if (observed->steps != expectedSteps[m])
                    ++wrongResults;
                break;
              }
              case 3:
                if (it % 16 == 3)
                    analysis::resetAndersenCache();
                break;
              default:
                analysis::setStaticCacheByteBudget(
                    it % 2 ? std::size_t{1} << 30 : std::size_t{64} << 10);
                break;
            }
        }
    };

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back(worker, t);
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(wrongResults.load(), 0);
    const auto stats = analysis::andersenCacheStats();
    EXPECT_LE(stats.bytesCached,
              std::max(analysis::staticCacheByteBudget(),
                       std::size_t{1} << 30));
}

} // namespace
} // namespace oha
