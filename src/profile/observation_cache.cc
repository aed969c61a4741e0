#include "profile/observation_cache.h"

#include <string>
#include <utility>

#include "service/shared_cache.h"

namespace oha::prof {

namespace {

void
appendU64(std::string &out, std::uint64_t value)
{
    for (unsigned shift = 0; shift < 64; shift += 8)
        out.push_back(static_cast<char>((value >> shift) & 0xff));
}

/** Every ExecConfig field plus the observation-relevant profile
 *  option, packed for fingerprinting. */
service::Fingerprint
observationFingerprint(const ProfileOptions &options,
                       const exec::ExecConfig &config)
{
    std::string packed;
    packed.reserve((config.input.size() + config.replaySchedule.size() +
                    9) *
                   sizeof(std::uint64_t));
    appendU64(packed, options.callContexts ? 1 : 0);
    appendU64(packed, config.input.size());
    for (std::int64_t word : config.input)
        appendU64(packed, static_cast<std::uint64_t>(word));
    appendU64(packed, config.scheduleSeed);
    appendU64(packed, config.maxSteps);
    appendU64(packed, config.minQuantum);
    appendU64(packed, config.maxQuantum);
    appendU64(packed, config.recordSchedule ? 1 : 0);
    appendU64(packed, config.replaySchedule.size());
    for (const exec::ScheduleStep &step : config.replaySchedule) {
        appendU64(packed, step.thread);
        appendU64(packed, step.quantum);
    }
    return service::fingerprintText(packed);
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
    const service::CacheKey key{service::fingerprintModule(module),
                                observationFingerprint(options, config),
                                0, {}};
    return service::MemoSection<RunObservations>::instance().getOrCompute(
        key, module, [&] {
            return ProfilingCampaign(*module, options).observeRun(config);
        });
}

} // namespace oha::prof
