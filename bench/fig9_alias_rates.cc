/**
 * @file
 * Figure 9 reproduction: load/store may-alias rates for the sound
 * ("Base Static") and predicated ("Optimistic Static") points-to
 * analyses.  As in the paper, both analyses are evaluated over the
 * access set of the optimistic analysis (accesses in likely-visited
 * blocks), so the comparison is apples-to-apples.
 *
 * Paper reference: predicated analysis cuts alias rates sharply on
 * several benchmarks (vim 0.12 -> 0.002, zlib 0.11 -> 0.03), and
 * never increases them.
 */

#include "bench_common.h"

#include "analysis/andersen.h"
#include "analysis/andersen_cache.h"
#include "profile/profiler.h"

using namespace oha;

int
main()
{
    bench::banner("Figure 9: points-to alias rates, base vs optimistic",
                  "optimistic alias rates drop, never rise");

    TextTable table({"benchmark", "base static", "optimistic static",
                     "reduction"});

    analysis::resetAndersenCache();
    bench::JsonReport json("fig9_alias_rates");
    for (const auto &name : workloads::sliceWorkloadNames()) {
        const auto workload = workloads::makeSliceWorkload(
            name, bench::kSliceProfileRuns, bench::kSliceTestRuns);
        const auto result =
            core::runOptSlice(workload, bench::standardOptSliceConfig());

        const double reduction =
            result.soundAliasRate > 0
                ? result.soundAliasRate / std::max(result.optAliasRate,
                                                   1e-9)
                : 1.0;
        table.addRow({result.name, fmtDouble(result.soundAliasRate, 4),
                      fmtDouble(result.optAliasRate, 4),
                      fmtSpeedup(reduction)});
        json.metric(name, "base", "alias_rate", result.soundAliasRate);
        json.metric(name, "optimistic", "alias_rate",
                    result.optAliasRate);
        if (result.optAliasRate > result.soundAliasRate + 1e-12) {
            std::printf("REGRESSION: %s optimistic alias rate above "
                        "base\n",
                        name.c_str());
            return 1;
        }
    }

    const analysis::AndersenCacheStats stats =
        analysis::andersenCacheStats();
    json.metric("aggregate", "static-memo", "cache_hits",
                double(stats.hits));
    json.metric("aggregate", "static-memo", "cache_misses",
                double(stats.misses));

    std::printf("%s\n", table.str().c_str());
    std::printf("(alias rate = probability a random load/store pair "
                "may alias, over the optimistic access set)\n");
    std::printf("static-memo cache: %llu hits, %llu misses\n",
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses));
    json.write();
    return 0;
}
