#include "core/recovery.h"

#include <utility>

#include "profile/observation_cache.h"
#include "profile/profiler.h"

namespace oha::core {

ProfilePhase
runProfilePhase(const workloads::Workload &workload,
                const PipelineConfig &config, bool callContexts,
                std::vector<dyn::ViolationFamily> families)
{
    const ir::Module &module = *workload.module;
    prof::ProfileOptions profOptions;
    profOptions.callContexts = callContexts;
    profOptions.threads = config.threads;
    prof::ProfilingCampaign campaign(module, profOptions);
    prof::Observer observer;
    if (config.cacheProfileObservations)
        observer = [&](const exec::ExecConfig &input) {
            return prof::observeRunMemo(workload.module, profOptions,
                                        input);
        };
    campaign.addRunsUntilConverged(workload.profilingSet,
                                   config.maxProfileRuns,
                                   config.convergenceWindow, observer);

    ProfilePhase out;
    out.invariants = config.aggressiveLucMinVisits > 1
                         ? campaign.invariantsWithAggressiveLuc(
                               config.aggressiveLucMinVisits)
                         : campaign.invariants();
    out.runSteps = campaign.runSteps();
    out.profiledSteps = campaign.profiledSteps();

    if (config.faultSeed != 0) {
        dyn::FaultInjectorOptions injectOptions;
        injectOptions.seed = config.faultSeed;
        injectOptions.families = std::move(families);
        const dyn::FaultInjector injector(module, injectOptions);
        OHA_ASSERT(injector.wantsCallContexts() == callContexts);
        out.injectedFaults =
            injector.inject(out.invariants, workload.testingSet, observer);
    }
    return out;
}

} // namespace oha::core
