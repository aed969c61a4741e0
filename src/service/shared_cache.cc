#include "service/shared_cache.h"

#include <utility>

#include "ir/module.h"
#include "support/env.h"

namespace oha::service {

namespace {

std::atomic<bool> forceCollisions{false};

/** Default byte budget: OHA_CACHE_BUDGET_MB (validated + clamped to
 *  [1 MiB, 1 TiB] by the shared env helper), else 256 MiB. */
std::size_t
defaultByteBudget()
{
    return support::envSizeBytes("OHA_CACHE_BUDGET_MB",
                                 std::size_t{256} << 20, std::size_t{1} << 20,
                                 std::size_t{1} << 40,
                                 /*unit=*/std::size_t{1} << 20);
}

} // namespace

CacheKey
cacheKey(const ir::Module &module, Fingerprint subject, std::uint64_t config,
         Fingerprint aux)
{
    CacheKey key{module.fingerprint(), subject, config, aux};
    if (forceCollisions.load(std::memory_order_relaxed)) {
        // Unused (zero) components stay zero, as snapshots store them.
        for (Fingerprint *fp : {&key.module, &key.subject, &key.aux})
            if (*fp != Fingerprint{})
                fp->primary = 0xC011151055ULL;
    }
    return key;
}

SharedCache::SharedCache() : byteBudget_(defaultByteBudget())
{
    stats_.byteBudget = byteBudget_;
}

SharedCache &
SharedCache::instance()
{
    static SharedCache cache;
    return cache;
}

void
SharedCache::registerSection(std::function<void()> clear)
{
    std::lock_guard<std::mutex> lock(mutex_);
    sections_.push_back(std::move(clear));
}

void
SharedCache::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    generation_.fetch_add(1, std::memory_order_acq_rel);
    for (const std::function<void()> &clear : sections_)
        clear();
    lru_.clear();
    stats_ = {};
    stats_.byteBudget = byteBudget_;
}

void
SharedCache::setByteBudget(std::size_t bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    byteBudget_ = bytes;
    stats_.byteBudget = bytes;
    enforceBudget();
}

std::size_t
SharedCache::byteBudget() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return byteBudget_;
}

SharedCacheStats
SharedCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    SharedCacheStats out = stats_;
    out.entries = lru_.size();
    out.bytesCached = lru_.bytes();
    out.byteBudget = byteBudget_;
    out.generation = generation_.load(std::memory_order_acquire);
    return out;
}

namespace testing {

void
forcePrimaryFingerprintCollisions(bool enabled)
{
    forceCollisions.store(enabled, std::memory_order_relaxed);
}

} // namespace testing

} // namespace oha::service
