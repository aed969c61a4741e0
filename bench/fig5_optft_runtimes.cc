/**
 * @file
 * Figure 5 reproduction: normalized runtimes for FastTrack, hybrid
 * FastTrack and OptFT across the 14 race-detection benchmarks, with
 * the per-configuration cost breakdown (framework overhead, invariant
 * checks, FastTrack checks, rollbacks).  Benchmarks right of the
 * marked line are proven race-free by sound static race detection.
 *
 * Paper reference: OptFT 3.5x vs FastTrack, 1.8x vs hybrid FastTrack
 * on the 9 non-trivial benchmarks; OptFT approaches the RoadRunner
 * framework floor; sunflow/montecarlo see little gain.
 */

#include "bench_common.h"

using namespace oha;

namespace {

std::string
breakdown(const core::RunCost &cost)
{
    const double base = cost.base;
    auto part = [&](double v) { return fmtDouble(v / base, 2); };
    return part(cost.framework) + "/" + part(cost.invariants) + "/" +
           part(cost.analysis) + "/" + part(cost.rollback);
}

} // namespace

int
main()
{
    bench::banner(
        "Figure 5: OptFT normalized runtimes (race detection)",
        "avg 3.5x vs FastTrack, 1.8x vs hybrid FT; right of the line "
        "statically race-free");

    TextTable table({"benchmark", "base(s)", "FastTrack", "Hybrid FT",
                     "OptFT", "OptFT fw/inv/ft/rb", "spd vs FT",
                     "spd vs Hyb", "races", "rollbacks"});

    // One job per benchmark: build the workload and evaluate its test
    // set; jobs run batched over OHA_THREADS workers.
    struct Row
    {
        double paperBaseline = 0;
        core::OptFtResult result;
    };
    const auto &names = workloads::raceWorkloadNames();
    const auto rows = bench::evalCorpus(names, [](const std::string &name) {
        const auto workload = workloads::makeRaceWorkload(
            name, bench::kRaceProfileRuns, bench::kRaceTestRuns);
        Row row;
        row.paperBaseline = workload.paperBaselineSeconds;
        row.result = core::runOptFt(workload, bench::standardOptFtConfig());
        return row;
    });

    bench::JsonReport json("fig5_optft_runtimes");
    // Cost-model totals are units; the JSON records them as modeled
    // milliseconds, never as wall time.
    const double msPerUnit =
        1e3 / bench::standardOptFtConfig().cost.unitsPerSecond;
    std::vector<double> speedupFt, speedupHybrid;
    std::vector<double> invariantShares, rollbackShares;
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::string &name = names[i];
        const core::OptFtResult &result = rows[i].result;

        json.metric(name, "fasttrack", "modeled_ms",
                    result.fastTrack.total() * msPerUnit);
        json.metric(name, "hybrid-ft", "modeled_ms",
                    result.hybridFt.total() * msPerUnit);
        json.metric(name, "optft", "modeled_ms",
                    result.optFt.total() * msPerUnit);
        json.metric(name, "optft", "speedup_vs_fasttrack",
                    result.speedupVsFastTrack);
        json.metric(name, "optft", "rollbacks",
                    double(result.misSpeculations));

        std::string label = result.name;
        if (result.staticallyRaceFree)
            label += " *";
        table.addRow({label,
                      fmtDouble(rows[i].paperBaseline, 2),
                      fmtDouble(result.fastTrack.normalized(), 1),
                      fmtDouble(result.hybridFt.normalized(), 1),
                      fmtDouble(result.optFt.normalized(), 1),
                      breakdown(result.optFt),
                      fmtSpeedup(result.speedupVsFastTrack),
                      fmtSpeedup(result.speedupVsHybrid),
                      std::to_string(result.racesObserved),
                      std::to_string(result.misSpeculations)});

        if (!result.staticallyRaceFree) {
            speedupFt.push_back(result.speedupVsFastTrack);
            speedupHybrid.push_back(result.speedupVsHybrid);
            invariantShares.push_back(result.optFt.invariants /
                                      result.optFt.base);
            rollbackShares.push_back(result.optFt.rollback /
                                     result.optFt.base);
        }
        if (!result.raceReportsMatch) {
            std::printf("SOUNDNESS VIOLATION in %s: optimistic reports "
                        "differ from FastTrack\n",
                        name.c_str());
            return 1;
        }
    }

    std::printf("%s\n", table.str().c_str());
    std::printf("(* = proven race-free by the sound static detector — "
                "the paper's right-of-line group)\n");
    std::printf("(breakdown columns are fractions of baseline: "
                "framework/invariant checks/FastTrack checks/rollbacks)\n\n");
    std::printf("average OptFT speedup over the 9 non-trivial "
                "benchmarks: %.1fx vs FastTrack (paper: 3.5x), "
                "%.1fx vs hybrid FT (paper: 1.8x)\n",
                bench::mean(speedupFt), bench::mean(speedupHybrid));
    std::printf("average invariant-check overhead: %.1f%% of baseline "
                "(paper: 4.3%%); average rollback overhead: %.1f%% "
                "(paper: 5.7%%, range 0-21.9%%)\n",
                100.0 * bench::mean(invariantShares),
                100.0 * bench::mean(rollbackShares));
    json.write();
    return 0;
}
