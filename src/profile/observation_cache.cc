#include "profile/observation_cache.h"

#include <utility>

#include "service/shared_cache.h"

namespace oha::prof {

namespace {

/** Every ExecConfig field plus the observation-relevant profile
 *  option. */
service::Fingerprint
observationFingerprint(const ProfileOptions &options,
                       const exec::ExecConfig &config)
{
    support::FingerprintHasher hasher;
    hasher.add(options.callContexts, config.input, config.scheduleSeed,
               config.maxSteps, config.minQuantum, config.maxQuantum,
               config.recordSchedule);
    return hasher.finish();
}

} // namespace

std::size_t
byteSizeEstimate(const RunObservations &observations)
{
    std::size_t bytes = sizeof(observations);
    bytes += observations.blockCounts.capacity() *
             sizeof(std::pair<BlockId, std::uint64_t>);
    bytes += observations.calleeSets.capacity() *
             sizeof(std::pair<InstrId, std::vector<FuncId>>);
    for (const auto &[instr, callees] : observations.calleeSets)
        bytes += callees.capacity() * sizeof(FuncId);
    // std::set node overhead plus the context vector payload.
    for (const inv::CallContext &context : observations.callContexts)
        bytes += 64 + context.capacity() * sizeof(InstrId);
    bytes += observations.lockObjects.capacity() *
             sizeof(std::pair<InstrId, std::vector<exec::ObjectId>>);
    for (const auto &[instr, objects] : observations.lockObjects)
        bytes += objects.capacity() * sizeof(exec::ObjectId);
    bytes += observations.spawnCounts.capacity() *
             sizeof(std::pair<InstrId, std::uint64_t>);
    return bytes;
}

std::shared_ptr<const RunObservations>
observeRunMemo(const std::shared_ptr<const ir::Module> &module,
               const ProfileOptions &options,
               const exec::ExecConfig &config)
{
    OHA_ASSERT(module && module->finalized());
    return service::MemoSection<RunObservations>::instance().getOrCompute(
        service::cacheKey(*module, observationFingerprint(options, config)),
        module, [&] {
            return ProfilingCampaign(*module, options).observeRun(config);
        });
}

} // namespace oha::prof
