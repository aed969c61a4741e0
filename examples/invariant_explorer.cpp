/**
 * @file
 * Invariant explorer: profile one of the built-in benchmark
 * workloads, print the learned likely invariants in the text format
 * the paper's tools use, and show how the invariant set converges as
 * profiling grows.
 *
 * Usage: invariant_explorer [workload-name]   (default: redis)
 */

#include <cstdio>
#include <string>

#include "profile/profiler.h"
#include "workloads/workloads.h"

using namespace oha;

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "redis";
    const bool isRace = [&] {
        for (const auto &n : workloads::raceWorkloadNames())
            if (n == name)
                return true;
        return false;
    }();
    const auto workload = isRace
                              ? workloads::makeRaceWorkload(name, 48, 1)
                              : workloads::makeSliceWorkload(name, 48, 1);
    const ir::Module &module = *workload.module;

    std::printf("workload '%s': %zu functions, %zu blocks, %zu "
                "instructions\n\n",
                name.c_str(), module.numFunctions(), module.numBlocks(),
                module.numInstrs());

    prof::ProfileOptions options;
    options.callContexts = !isRace;
    prof::ProfilingCampaign campaign(module, options);

    std::printf("%-6s %-10s %-10s %-8s %-9s %-10s\n", "runs", "blocks",
                "callees", "ctxs", "locks", "singletons");
    for (std::size_t i = 0; i < workload.profilingSet.size(); ++i) {
        campaign.addRun(workload.profilingSet[i]);
        if ((i + 1) % 8 == 0 || i == 0) {
            const auto &inv = campaign.invariants();
            std::size_t calleeFacts = 0;
            for (const auto &[site, funcs] : inv.calleeSets)
                calleeFacts += funcs.size();
            std::printf("%-6zu %-10zu %-10zu %-8zu %-9zu %-10zu\n",
                        i + 1, inv.visitedBlocks.size(), calleeFacts,
                        inv.callContexts.size(),
                        inv.mustAliasLocks.size(),
                        inv.singletonSpawnSites.size());
        }
    }

    const inv::InvariantSet &final = campaign.invariants();
    const std::size_t unvisited =
        module.numBlocks() - final.visitedBlocks.size();
    std::printf("\nlikely-unreachable code: %zu of %zu blocks (%.0f%%)\n",
                unvisited, module.numBlocks(),
                100.0 * double(unvisited) / double(module.numBlocks()));

    const std::string text = final.saveText();
    std::printf("\nfirst lines of the invariant file (%zu bytes):\n",
                text.size());
    std::size_t shown = 0, pos = 0;
    while (shown < 8 && pos < text.size()) {
        const std::size_t eol = text.find('\n', pos);
        std::printf("  %s\n",
                    text.substr(pos, eol - pos).substr(0, 72).c_str());
        pos = eol + 1;
        ++shown;
    }
    return 0;
}
