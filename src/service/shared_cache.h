/**
 * @file
 * Process-wide spine of the cross-request analysis cache.
 *
 * The analysis daemon (service/analysis_service.h) serves many
 * requests from one process, so the memoized artifacts — Andersen
 * results, whole static-race results, slice sets
 * (analysis/andersen_cache.h) and profiling observations
 * (profile/observation_cache.h) — live in one shared cache: each
 * result type has one MemoSection, a typed key->entry map, while this
 * spine owns everything the sections share:
 *
 *  - the mutex serializing every section's probes and inserts;
 *  - the LRU recency list and the configurable byte budget evictions
 *    are charged against (entries held whole modules alive forever
 *    before this existed — unbounded growth in a daemon);
 *  - the generation stamp that invalidates in-flight computations
 *    across reset() (a solve started before a reset must not insert
 *    its pre-reset result afterwards);
 *  - hit/miss/eviction accounting.
 *
 * Fingerprints are value identity: two independent 64-bit hashes of
 * the canonical text.  The primary hash is the map key; the secondary
 * is stored per entry and verified on every hit, so a primary-hash
 * collision degrades to a verified miss + fresh solve instead of
 * silently returning another module's result.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "service/lru.h"

namespace oha::ir {
class Module;
}

namespace oha::service {

/** Two independent 64-bit hashes of one canonical text. */
struct Fingerprint
{
    std::uint64_t primary = 0;
    std::uint64_t secondary = 0;

    bool
    operator==(const Fingerprint &other) const
    {
        return primary == other.primary && secondary == other.secondary;
    }
    bool operator!=(const Fingerprint &other) const
    {
        return !(*this == other);
    }
};

/** Hash @p text with both fingerprint functions in one pass. */
Fingerprint fingerprintText(const std::string &text);

/**
 * Fingerprint of a module's printed form.  Printing is expensive, so
 * results are memoized by object identity in a bounded side map; the
 * memo holds only weak references — it never keeps a module alive
 * (cache *entries* pin the modules their results reference, and
 * release them on eviction).
 */
Fingerprint
fingerprintModule(const std::shared_ptr<const ir::Module> &module);

/** Counters since process start / last reset(). */
struct SharedCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /** Primary-fingerprint hits whose stored secondary fingerprint
     *  did not match: a real collision, served as a fresh solve. */
    std::uint64_t verifiedMisses = 0;
    std::uint64_t evictions = 0;
    /** Computations discarded because a reset() intervened between
     *  their cache probe and their insert. */
    std::uint64_t staleDrops = 0;
    std::size_t entries = 0;
    std::size_t bytesCached = 0;
    std::size_t byteBudget = 0;
    std::uint64_t generation = 0;
};

/** The process-wide cache spine.  All methods are thread-safe unless
 *  documented as requiring the spine mutex. */
class SharedCache
{
  public:
    static SharedCache &instance();

    /** The single lock serializing section probes/inserts and every
     *  method below documented as "mutex held". */
    std::mutex &mutex() { return mutex_; }

    /** Recency list + byte accounting.  Mutex held. */
    LruList &lru() { return lru_; }

    // Stat bumps.  Mutex held.
    void noteHit() { ++stats_.hits; }
    void noteMiss() { ++stats_.misses; }
    void
    noteVerifiedMiss()
    {
        ++stats_.verifiedMisses;
        ++stats_.misses;
    }
    void noteStaleDrop() { ++stats_.staleDrops; }

    /** Evict cold entries until the byte budget fits.  Mutex held. */
    void
    enforceBudget()
    {
        stats_.evictions += lru_.evictToFit(byteBudget_);
    }

    /** Generation stamp; lock-free read for in-flight solvers. */
    std::uint64_t
    generation() const
    {
        return generation_.load(std::memory_order_acquire);
    }

    /**
     * Register a section's wholesale-clear callback, run under the
     * mutex by reset().  Callbacks must clear the section's map
     * WITHOUT touching the LRU list (reset clears it directly).
     * Called once per MemoSection, when it is built.
     */
    void registerSection(std::function<void()> clear);

    /** Bump the generation, clear every section and the recency list,
     *  zero the counters. */
    void reset();

    /** Change the byte budget and evict down to it immediately. */
    void setByteBudget(std::size_t bytes);

    std::size_t byteBudget() const;

    /** Consistent snapshot of the counters. */
    SharedCacheStats stats() const;

  private:
    SharedCache();

    mutable std::mutex mutex_;
    LruList lru_;
    std::atomic<std::uint64_t> generation_{0};
    std::size_t byteBudget_ = 0;
    SharedCacheStats stats_;
    std::vector<std::function<void()>> sections_;
};

/**
 * Key of one memo entry.  The primary hashes and `config` form the
 * map key; the secondary hashes are stored with the entry and
 * verified on every hit.  Unused components stay zero.
 */
struct CacheKey
{
    Fingerprint module;
    /** What the result depends on besides the module: the invariant
     *  set (static sections) or the run configuration (observations). */
    Fingerprint subject;
    /** Analysis options packed into one word. */
    std::uint64_t config = 0;
    /** Extra input, e.g. a slice set's endpoint list. */
    Fingerprint aux;
};

/** One cached result with its full key (snapshot export / restore). */
template <typename Result>
struct MemoEntry
{
    CacheKey key;
    std::shared_ptr<const Result> result;
};

/**
 * The shared cache's section for one result type.  Entries join the
 * spine's LRU list, charged byteSizeEstimate(result) bytes (found by
 * argument-dependent lookup).  The section registers its clear
 * callback when instance() first builds it, so no caller can take
 * the spine mutex before the section exists.
 */
template <typename Result>
class MemoSection
{
  public:
    /** The process-wide section for Result (never destroyed: LRU
     *  callbacks refer to it until exit). */
    static MemoSection &
    instance()
    {
        static MemoSection *section = new MemoSection;
        return *section;
    }

    /**
     * The cached result for @p key, or compute() run outside the spine
     * lock and inserted.
     *  - A key match whose secondary hashes differ is a real 64-bit
     *    collision: counted as a verified miss, the colliding entry is
     *    dropped and the result computed fresh.
     *  - A reset between the probe and the insert drops the insert
     *    (counted as a stale drop); the caller still gets its result.
     *  - The first insert wins: a concurrent computation of the same
     *    key shares the cached object and discards its own.
     * @p module is pinned by the entry until eviction (results may
     * reference it internally).
     */
    template <typename Compute>
    std::shared_ptr<const Result>
    getOrCompute(const CacheKey &key, std::shared_ptr<const ir::Module> module,
                 Compute &&compute)
    {
        SharedCache &sc = SharedCache::instance();
        std::uint64_t gen = 0;
        {
            std::lock_guard<std::mutex> lock(sc.mutex());
            gen = sc.generation();
            auto it = map_.find(key);
            if (it == map_.end()) {
                sc.noteMiss();
            } else if (sameSecondaries(it->first, key)) {
                sc.noteHit();
                sc.lru().touch(it->second.handle);
                return it->second.result;
            } else {
                sc.noteVerifiedMiss();
                sc.lru().remove(it->second.handle);
                map_.erase(it);
            }
        }

        auto result = std::make_shared<const Result>(compute());
        const std::size_t bytes = byteSizeEstimate(*result);
        std::lock_guard<std::mutex> lock(sc.mutex());
        if (gen != sc.generation()) {
            sc.noteStaleDrop();
            return result;
        }
        auto it = map_.find(key);
        if (it != map_.end()) {
            if (sameSecondaries(it->first, key))
                return it->second.result;
            // A concurrent insert collided with our key: ours replaces it.
            sc.lru().remove(it->second.handle);
            map_.erase(it);
        }
        return linkLocked(key, std::move(module), std::move(result), bytes);
    }

    /** Copy every entry out, in key order (snapshot export). */
    std::vector<MemoEntry<Result>>
    exportEntries() const
    {
        std::lock_guard<std::mutex> lock(SharedCache::instance().mutex());
        std::vector<MemoEntry<Result>> out;
        out.reserve(map_.size());
        for (const auto &[key, slot] : map_)
            out.push_back({key, slot.result});
        return out;
    }

    /** Admit a restored entry (warm start) without a module: it serves
     *  verified hits only.  A live entry under the same key is never
     *  displaced, whatever its secondary hashes.  True when the entry
     *  was linked; false when it was dropped. */
    bool
    admit(const MemoEntry<Result> &entry)
    {
        if (!entry.result)
            return false;
        const std::size_t bytes = byteSizeEstimate(*entry.result);
        std::lock_guard<std::mutex> lock(SharedCache::instance().mutex());
        if (map_.count(entry.key) != 0)
            return false;
        linkLocked(entry.key, nullptr, entry.result, bytes);
        return true;
    }

  private:
    struct PrimaryLess
    {
        bool
        operator()(const CacheKey &a, const CacheKey &b) const
        {
            return std::tie(a.module.primary, a.subject.primary, a.config,
                            a.aux.primary) <
                   std::tie(b.module.primary, b.subject.primary, b.config,
                            b.aux.primary);
        }
    };

    struct Slot
    {
        std::shared_ptr<const ir::Module> module;
        std::shared_ptr<const Result> result;
        LruList::Handle handle;
    };

    MemoSection()
    {
        SharedCache::instance().registerSection([this] { map_.clear(); });
    }

    static bool
    sameSecondaries(const CacheKey &a, const CacheKey &b)
    {
        return a.module.secondary == b.module.secondary &&
               a.subject.secondary == b.subject.secondary &&
               a.aux.secondary == b.aux.secondary;
    }

    /** Insert a new entry into the map and the LRU spine, then evict
     *  down to the budget.  Spine mutex held. */
    std::shared_ptr<const Result>
    linkLocked(const CacheKey &key, std::shared_ptr<const ir::Module> module,
               std::shared_ptr<const Result> result, std::size_t bytes)
    {
        SharedCache &sc = SharedCache::instance();
        auto [pos, inserted] =
            map_.emplace(key, Slot{std::move(module), std::move(result), {}});
        OHA_ASSERT(inserted);
        pos->second.handle =
            sc.lru().insert(bytes, [this, key] { map_.erase(key); });
        std::shared_ptr<const Result> shared = pos->second.result;
        // May evict anything cold, including (for an oversized result)
        // the entry just inserted; `shared` keeps the result valid.
        sc.enforceBudget();
        return shared;
    }

    std::map<CacheKey, Slot, PrimaryLess> map_;
};

namespace testing {

/**
 * Test seam for the collision-verification path: while enabled, every
 * text fingerprint gets the SAME primary hash (the secondary stays
 * real), so any two distinct modules/invariant sets collide on the
 * cache key.  Callers should reset the cache around toggling.
 */
void forcePrimaryFingerprintCollisions(bool enabled);

} // namespace testing

} // namespace oha::service
