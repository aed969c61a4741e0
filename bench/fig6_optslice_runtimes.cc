/**
 * @file
 * Figure 6 reproduction: normalized runtimes of the traditional
 * hybrid slicer versus OptSlice across the 7 C-application
 * benchmarks, with the OptSlice cost breakdown (invariant checks,
 * slicing instrumentation, rollbacks).
 *
 * Paper reference: speedups 1.2x (nginx) to 78.5x (zlib), average
 * 8.3x; perl/nginx smallest; pure Giri is not run because it
 * exhausts system resources.
 */

#include "bench_common.h"

using namespace oha;

namespace {

std::string
breakdown(const core::RunCost &cost)
{
    const double base = cost.base;
    auto part = [&](double v) { return fmtDouble(v / base, 2); };
    return part(cost.invariants) + "/" + part(cost.analysis) + "/" +
           part(cost.rollback);
}

} // namespace

int
main()
{
    bench::banner("Figure 6: OptSlice normalized runtimes (dynamic "
                  "slicing)",
                  "speedups 1.2x-78.5x over traditional hybrid, avg "
                  "8.3x; zlib largest, nginx/perl smallest");

    TextTable table({"benchmark", "base(s)", "Trad. Hybrid", "OptSlice",
                     "OptSlice inv/slice/rb", "speedup", "rollbacks",
                     "endpoints"});

    // One job per benchmark, batched over OHA_THREADS workers.
    struct Row
    {
        double paperBaseline = 0;
        core::OptSliceResult result;
    };
    const auto &names = workloads::sliceWorkloadNames();
    const auto rows = bench::evalCorpus(names, [](const std::string &name) {
        const auto workload = workloads::makeSliceWorkload(
            name, bench::kSliceProfileRuns, bench::kSliceTestRuns);
        Row row;
        row.paperBaseline = workload.paperBaselineSeconds;
        row.result =
            core::runOptSlice(workload, bench::standardOptSliceConfig());
        return row;
    });

    bench::JsonReport json("fig6_optslice_runtimes");
    // Cost-model totals are units; the JSON records them as modeled
    // milliseconds, never as wall time.
    const double msPerUnit =
        1e3 / bench::standardOptSliceConfig().cost.unitsPerSecond;
    std::vector<double> speedups;
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::string &name = names[i];
        const core::OptSliceResult &result = rows[i].result;

        json.metric(name, "hybrid", "modeled_ms",
                    result.hybrid.total() * msPerUnit);
        json.metric(name, "optslice", "modeled_ms",
                    result.optimistic.total() * msPerUnit);
        json.metric(name, "optslice", "dyn_speedup", result.dynSpeedup);
        json.metric(name, "optslice", "rollbacks",
                    double(result.misSpeculations));

        table.addRow({result.name,
                      fmtDouble(rows[i].paperBaseline, 2),
                      fmtDouble(result.hybrid.normalized(), 1),
                      fmtDouble(result.optimistic.normalized(), 1),
                      breakdown(result.optimistic),
                      fmtSpeedup(result.dynSpeedup),
                      std::to_string(result.misSpeculations),
                      std::to_string(result.endpoints)});
        speedups.push_back(result.dynSpeedup);

        if (!result.sliceResultsMatch) {
            std::printf("SOUNDNESS VIOLATION in %s: optimistic slices "
                        "differ from hybrid slices\n",
                        name.c_str());
            return 1;
        }
    }

    std::printf("%s\n", table.str().c_str());
    std::printf("(breakdown columns are fractions of baseline: "
                "invariant checks/slicing instrumentation/rollbacks)\n");
    std::printf("(pure Giri is omitted, as in the paper: full "
                "instrumentation exhausts resources on real runs)\n\n");
    std::printf("average OptSlice speedup: %.1fx (paper: 8.3x)\n",
                bench::mean(speedups));
    json.write();
    return 0;
}
