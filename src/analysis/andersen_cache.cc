#include "analysis/andersen_cache.h"

#include <vector>

#include "invariants/invariant_set.h"
#include "service/shared_cache.h"

namespace oha::analysis {

namespace {

using service::Fingerprint;
using service::MemoSection;
using service::SharedCache;

/** Solver options packed into a comparable key. */
std::uint64_t
optionsKey(const AndersenOptions &options)
{
    std::uint64_t key = 0;
    key |= options.contextSensitive ? 1u : 0u;
    key |= options.useHvn ? 2u : 0u;
    key |= options.cycleCollapse ? 4u : 0u;
    key |= options.referenceSolver ? 8u : 0u;
    key |= static_cast<std::uint64_t>(options.maxContexts) << 4;
    key ^= static_cast<std::uint64_t>(options.maxContextDepth) << 40;
    return key;
}

/** Every fact of @p invariants, the contexts as their sorted chains. */
Fingerprint
invariantFingerprint(const inv::InvariantSet *invariants)
{
    if (!invariants)
        return {};
    return support::FingerprintHasher()
        .add(invariants->numBlocks, invariants->visitedBlocks.toVector(),
             invariants->calleeSets, invariants->hasCallContexts,
             invariants->callContexts.chains(), invariants->mustAliasLocks,
             invariants->singletonSpawnSites, invariants->elidableLockSites)
        .finish();
}

} // namespace

std::shared_ptr<const AndersenResult>
runAndersenMemo(const std::shared_ptr<const ir::Module> &module,
                const AndersenOptions &options)
{
    OHA_ASSERT(module && module->finalized());
    return MemoSection<AndersenResult>::instance().getOrCompute(
        service::cacheKey(*module, invariantFingerprint(options.invariants),
                          optionsKey(options)), module,
        [&] {
            // Sound CS runs reuse the memoized CI pre-pass instead of
            // recomputing it (runAndersen folds the pre-pass's
            // workUnits into its result; mirror that here so the
            // reported cost model output is identical with or without
            // hits).
            if (!options.contextSensitive || options.invariants)
                return runAndersen(*module, options);
            AndersenOptions ciOptions = options;
            ciOptions.contextSensitive = false;
            const std::shared_ptr<const AndersenResult> ci =
                runAndersenMemo(module, ciOptions);
            AndersenResult computed =
                runAndersenPrepassed(*module, options, ci.get());
            computed.workUnits += ci->workUnits;
            return computed;
        });
}

std::shared_ptr<const StaticRaceResult>
runStaticRaceDetectorMemo(const std::shared_ptr<const ir::Module> &module,
                          const inv::InvariantSet *invariants)
{
    OHA_ASSERT(module && module->finalized());
    // The detector's own points-to solve still goes through the
    // Andersen memo (shared with calibration and the slicer picks).
    return MemoSection<StaticRaceResult>::instance().getOrCompute(
        service::cacheKey(*module, invariantFingerprint(invariants)), module,
        [&] { return runStaticRaceDetector(*module, invariants, module); });
}

std::shared_ptr<const SliceSetResult>
sliceSetMemo(const std::shared_ptr<const ir::Module> &module,
             const inv::InvariantSet *invariants, std::uint64_t configKey,
             const std::vector<InstrId> &endpoints,
             const std::function<SliceSetResult()> &compute)
{
    OHA_ASSERT(module && module->finalized());
    return MemoSection<SliceSetResult>::instance().getOrCompute(
        service::cacheKey(
            *module, invariantFingerprint(invariants), configKey,
            support::FingerprintHasher().add(endpoints).finish()),
        module, compute);
}

AndersenCacheStats
andersenCacheStats()
{
    return SharedCache::instance().stats();
}

void
setStaticCacheByteBudget(std::size_t bytes)
{
    SharedCache::instance().setByteBudget(bytes);
}

std::size_t
staticCacheByteBudget()
{
    return SharedCache::instance().byteBudget();
}

void
resetAndersenCache()
{
    SharedCache::instance().reset();
}

} // namespace oha::analysis
