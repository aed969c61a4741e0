/**
 * @file
 * The paper's evaluation figures that come from the standard pipeline
 * configurations: Figures 5, 6, 9 and 10 and Tables 1 and 2.  OptFT
 * runs once on each of the 14 race programs and OptSlice once on each
 * of the 7 slice programs; every table, and its BENCH_<figure>.json,
 * is built from those 21 results.
 *
 * Exits 1 on a "SOUNDNESS VIOLATION" (optimistic race reports or
 * slices differ from the sound ones) or a "REGRESSION" (an optimistic
 * alias rate above the sound one).  Every number, the shared-cache
 * counts of Table 2 and Figure 9 (every memo section, not Andersen
 * alone) included, is the same at any thread count.
 */

#include "bench_common.h"

#include "analysis/andersen_cache.h"
#include "service/shared_cache.h"

using namespace oha;

namespace {

template <typename Result> struct Row
{
    double paperBaseline = 0;
    Result result;
};
using RaceRows = std::vector<Row<core::OptFtResult>>;
using SliceRows = std::vector<Row<core::OptSliceResult>>;

/** Cost components as fractions of baseline, '/'-separated. */
std::string
breakdown(const core::RunCost &cost, std::initializer_list<double> parts)
{
    std::string out;
    for (double part : parts)
        out += (out.empty() ? "" : "/") + fmtDouble(part / cost.base, 2);
    return out;
}

/**
 * Figure 5: normalized runtimes for FastTrack, hybrid FastTrack and
 * OptFT with the OptFT cost breakdown (framework overhead, invariant
 * checks, FastTrack checks, rollbacks).  Paper: OptFT 3.5x vs
 * FastTrack, 1.8x vs hybrid FastTrack on the 9 non-trivial
 * benchmarks; the other 5 are proven race-free statically.
 */
bool
figure5(const RaceRows &rows)
{
    bench::banner(
        "Figure 5: OptFT normalized runtimes (race detection)",
        "avg 3.5x vs FastTrack, 1.8x vs hybrid FT; right of the line "
        "statically race-free");

    TextTable table({"benchmark", "base(s)", "FastTrack", "Hybrid FT",
                     "OptFT", "OptFT fw/inv/ft/rb", "spd vs FT",
                     "spd vs Hyb", "races", "rollbacks"});
    bench::JsonReport json("fig5_optft_runtimes");
    // Cost-model totals are units; the JSON records them as modeled
    // milliseconds, never as wall time.
    const double msPerUnit =
        1e3 / bench::standardOptFtConfig().cost.unitsPerSecond;
    std::vector<double> speedupFt, speedupHybrid;
    std::vector<double> invariantShares, rollbackShares;
    for (const auto &row : rows) {
        const core::OptFtResult &result = row.result;
        const core::RunCost &opt = result.optFt;
        json.metric(result.name, "fasttrack", "modeled_ms",
                    result.fastTrack.total() * msPerUnit);
        json.metric(result.name, "hybrid-ft", "modeled_ms",
                    result.hybridFt.total() * msPerUnit);
        json.metric(result.name, "optft", "modeled_ms",
                    opt.total() * msPerUnit);
        json.metric(result.name, "optft", "speedup_vs_fasttrack",
                    result.speedupVsFastTrack);
        json.metric(result.name, "optft", "rollbacks",
                    double(result.misSpeculations));

        table.addRow({result.name + (result.staticallyRaceFree ? " *" : ""),
                      fmtDouble(row.paperBaseline, 2),
                      fmtDouble(result.fastTrack.normalized(), 1),
                      fmtDouble(result.hybridFt.normalized(), 1),
                      fmtDouble(opt.normalized(), 1),
                      breakdown(opt, {opt.framework, opt.invariants,
                                      opt.analysis, opt.rollback}),
                      fmtSpeedup(result.speedupVsFastTrack),
                      fmtSpeedup(result.speedupVsHybrid),
                      std::to_string(result.racesObserved),
                      std::to_string(result.misSpeculations)});

        if (!result.staticallyRaceFree) {
            speedupFt.push_back(result.speedupVsFastTrack);
            speedupHybrid.push_back(result.speedupVsHybrid);
            invariantShares.push_back(opt.invariants / opt.base);
            rollbackShares.push_back(opt.rollback / opt.base);
        }
        if (!result.raceReportsMatch) {
            std::printf("SOUNDNESS VIOLATION in %s: optimistic reports "
                        "differ from FastTrack\n",
                        result.name.c_str());
            return false;
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
    return true;
}

/**
 * Table 1: end-to-end OptFT costs for the nine benchmarks not proven
 * race-free: offline static and profiling times, break-even versus
 * hybrid and traditional FastTrack, and the speedups.  Paper: break-
 * even within minutes for most; montecarlo never beats hybrid FT.
 */
void
table1(const RaceRows &rows)
{
    bench::banner(
        "Table 1: OptFT end-to-end analysis times and break-even",
        "break-even within minutes for most; montecarlo never; "
        "speedups up to 3.6x/9.8x");

    TextTable table({"testname", "trad static", "profile", "opt static",
                     "breakeven vs HybFT", "breakeven vs TradFT",
                     "speedup vs HybFT", "speedup vs TradFT"});
    bench::JsonReport json("table1_optft_breakeven");
    auto breakeven = [](double t) {
        return t < 0 ? std::string("-") : fmtTime(t);
    };
    for (const auto &row : rows) {
        const core::OptFtResult &result = row.result;
        if (result.staticallyRaceFree)
            continue;
        json.metric(result.name, "optft", "trad_static_s",
                    result.soundStaticSeconds);
        json.metric(result.name, "optft", "profile_s",
                    result.profileSeconds);
        json.metric(result.name, "optft", "opt_static_s",
                    result.predStaticSeconds);
        json.metric(result.name, "optft", "breakeven_vs_hybrid_s",
                    result.breakEvenVsHybrid);
        json.metric(result.name, "optft", "breakeven_vs_fasttrack_s",
                    result.breakEvenVsFastTrack);
        json.metric(result.name, "optft", "speedup_vs_hybrid",
                    result.speedupVsHybrid);
        json.metric(result.name, "optft", "speedup_vs_fasttrack",
                    result.speedupVsFastTrack);

        table.addRow({result.name,
                      fmtTime(result.soundStaticSeconds),
                      fmtTime(result.profileSeconds),
                      fmtTime(result.predStaticSeconds),
                      breakeven(result.breakEvenVsHybrid),
                      breakeven(result.breakEvenVsFastTrack),
                      fmtSpeedup(result.speedupVsHybrid),
                      fmtSpeedup(result.speedupVsFastTrack)});
    }

    std::printf("%s\n", table.str().c_str());
    std::printf("(times are modeled seconds from the deterministic "
                "cost model; '-' = never breaks even)\n");
    std::printf("(Break-even: baseline execution time T at which "
                "profiling + predicated static + optimistic dynamic "
                "costs drop below the competitor's total)\n");
    json.write();
}

/**
 * Figure 6: normalized runtimes of the traditional hybrid slicer and
 * OptSlice, with the OptSlice cost breakdown (invariant checks,
 * slicing instrumentation, rollbacks).  Paper: 1.2x (nginx) to 78.5x
 * (zlib), average 8.3x; pure Giri exhausts resources and is not run.
 */
bool
figure6(const SliceRows &rows)
{
    bench::banner("Figure 6: OptSlice normalized runtimes (dynamic "
                  "slicing)",
                  "speedups 1.2x-78.5x over traditional hybrid, avg "
                  "8.3x; zlib largest, nginx/perl smallest");

    TextTable table({"benchmark", "base(s)", "Trad. Hybrid", "OptSlice",
                     "OptSlice inv/slice/rb", "speedup", "rollbacks",
                     "endpoints"});
    bench::JsonReport json("fig6_optslice_runtimes");
    // Modeled milliseconds, as in Figure 5.
    const double msPerUnit =
        1e3 / bench::standardOptSliceConfig().cost.unitsPerSecond;
    std::vector<double> speedups;
    for (const auto &row : rows) {
        const core::OptSliceResult &result = row.result;
        const core::RunCost &opt = result.optimistic;
        json.metric(result.name, "hybrid", "modeled_ms",
                    result.hybrid.total() * msPerUnit);
        json.metric(result.name, "optslice", "modeled_ms",
                    opt.total() * msPerUnit);
        json.metric(result.name, "optslice", "dyn_speedup",
                    result.dynSpeedup);
        json.metric(result.name, "optslice", "rollbacks",
                    double(result.misSpeculations));

        table.addRow({result.name,
                      fmtDouble(row.paperBaseline, 2),
                      fmtDouble(result.hybrid.normalized(), 1),
                      fmtDouble(opt.normalized(), 1),
                      breakdown(opt, {opt.invariants, opt.analysis,
                                      opt.rollback}),
                      fmtSpeedup(result.dynSpeedup),
                      std::to_string(result.misSpeculations),
                      std::to_string(result.endpoints)});
        speedups.push_back(result.dynSpeedup);

        if (!result.sliceResultsMatch) {
            std::printf("SOUNDNESS VIOLATION in %s: optimistic slices "
                        "differ from hybrid slices\n",
                        result.name.c_str());
            return false;
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
    return true;
}

/** Record and print the slice pass's shared-cache counts: every memo
 *  section (profile observations, static race results, Andersen
 *  solves, slice sets), not Andersen alone. */
void
sharedCacheCounts(bench::JsonReport &json,
                  const service::SharedCacheStats &cache)
{
    json.metric("aggregate", "shared-cache", "cache_hits",
                double(cache.hits));
    json.metric("aggregate", "shared-cache", "cache_misses",
                double(cache.misses));
    std::printf("shared cache (all sections): %llu hits, %llu misses\n",
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses));
}

/**
 * Table 2: end-to-end slicing costs: the most accurate analysis type
 * (CS/CI) that completes for the sound and predicated points-to and
 * slicing analyses, their modeled times, profiling time, break-even
 * versus traditional hybrid slicing, and the dynamic speedup.  Paper:
 * likely invariants let vim/nginx run CS; break-even under three
 * minutes everywhere.
 */
void
table2(const SliceRows &rows, const service::SharedCacheStats &cache)
{
    bench::banner(
        "Table 2: OptSlice end-to-end analysis times and break-even",
        "predicated analyses run CS where sound ones cannot; "
        "break-even <= ~3 minutes");

    TextTable table({"testname", "trad pts AT/t", "trad slice AT/t",
                     "profile", "opt pts AT/t", "opt slice AT/t",
                     "breakeven", "dyn speedup"});
    auto cell = [](const core::AnalysisPick &pick) {
        return std::string(pick.contextSensitive ? "CS " : "CI ") +
               fmtTime(pick.seconds);
    };
    bench::JsonReport json("table2_optslice_breakeven");
    for (const auto &row : rows) {
        const core::OptSliceResult &result = row.result;
        json.metric(result.name, "sound", "pts_s", result.soundPts.seconds);
        json.metric(result.name, "sound", "slice_s",
                    result.soundSlice.seconds);
        json.metric(result.name, "optimistic", "pts_s",
                    result.optPts.seconds);
        json.metric(result.name, "optimistic", "slice_s",
                    result.optSlice.seconds);
        json.metric(result.name, "optimistic", "profile_s",
                    result.profileSeconds);
        json.metric(result.name, "optimistic", "breakeven_s",
                    result.breakEven);
        json.metric(result.name, "optimistic", "dyn_speedup",
                    result.dynSpeedup);

        table.addRow({result.name, cell(result.soundPts),
                      cell(result.soundSlice), fmtTime(result.profileSeconds),
                      cell(result.optPts), cell(result.optSlice),
                      result.breakEven < 0 ? std::string("-")
                                           : fmtTime(result.breakEven),
                      fmtSpeedup(result.dynSpeedup)});
    }

    std::printf("%s\n", table.str().c_str());
    std::printf("(AT = analysis type: the most accurate of CS/CI that "
                "completes within budget; times are modeled seconds)\n");
    sharedCacheCounts(json, cache);
    json.write();
}

/**
 * Figure 9: load/store may-alias rates of the sound ("Base Static")
 * and predicated ("Optimistic Static") points-to analyses, both over
 * the optimistic analysis's access set (accesses in likely-visited
 * blocks).  Paper: predicated analysis cuts alias rates sharply on
 * several benchmarks (vim 0.12 -> 0.002) and never raises them.
 */
bool
figure9(const SliceRows &rows, const service::SharedCacheStats &cache)
{
    bench::banner("Figure 9: points-to alias rates, base vs optimistic",
                  "optimistic alias rates drop, never rise");

    TextTable table({"benchmark", "base static", "optimistic static",
                     "reduction"});
    bench::JsonReport json("fig9_alias_rates");
    for (const auto &row : rows) {
        const core::OptSliceResult &result = row.result;
        const double reduction =
            result.soundAliasRate > 0
                ? result.soundAliasRate / std::max(result.optAliasRate,
                                                   1e-9)
                : 1.0;
        table.addRow({result.name, fmtDouble(result.soundAliasRate, 4),
                      fmtDouble(result.optAliasRate, 4),
                      fmtSpeedup(reduction)});
        json.metric(result.name, "base", "alias_rate",
                    result.soundAliasRate);
        json.metric(result.name, "optimistic", "alias_rate",
                    result.optAliasRate);
        if (result.optAliasRate > result.soundAliasRate + 1e-12) {
            std::printf("REGRESSION: %s optimistic alias rate above "
                        "base\n",
                        result.name.c_str());
            return false;
        }
    }

    std::printf("%s\n", table.str().c_str());
    std::printf("(alias rate = probability a random load/store pair "
                "may alias, over the optimistic access set)\n");
    sharedCacheCounts(json, cache);
    json.write();
    return true;
}

/**
 * Figure 10: static slice sizes (instructions) of the sound and
 * predicated slicers over the selected endpoints.  Paper: the
 * optimistic slicer shrinks slices by one to two orders of magnitude.
 */
void
figure10(const SliceRows &rows)
{
    bench::banner("Figure 10: static slice sizes, base vs optimistic",
                  "1-2 orders of magnitude reduction");

    TextTable table({"benchmark", "base static", "optimistic static",
                     "reduction"});
    bench::JsonReport json("fig10_slice_sizes");
    std::vector<double> reductions;
    for (const auto &row : rows) {
        const core::OptSliceResult &result = row.result;
        const double reduction =
            result.soundSliceSize / std::max(result.optSliceSize, 1.0);
        reductions.push_back(reduction);
        table.addRow({result.name, fmtDouble(result.soundSliceSize, 0),
                      fmtDouble(result.optSliceSize, 0),
                      fmtSpeedup(reduction)});
        json.metric(result.name, "base", "slice_size",
                    result.soundSliceSize);
        json.metric(result.name, "optimistic", "slice_size",
                    result.optSliceSize);
    }

    std::printf("%s\n", table.str().c_str());
    std::printf("average reduction: %.1fx\n", bench::mean(reductions));
    json.write();
}

} // namespace

int
main()
{
    // One job per benchmark: build the workload and evaluate its test
    // set; jobs run batched over OHA_THREADS workers.
    const RaceRows race = bench::evalCorpus(
        workloads::raceWorkloadNames(), [](const std::string &name) {
            const auto workload = workloads::makeRaceWorkload(
                name, bench::kRaceProfileRuns, bench::kRaceTestRuns);
            return Row<core::OptFtResult>{
                workload.paperBaselineSeconds,
                core::runOptFt(workload, bench::standardOptFtConfig())};
        });
    // The shared-cache counts cover the slice pass alone.
    analysis::resetAndersenCache();
    const SliceRows slice = bench::evalCorpus(
        workloads::sliceWorkloadNames(), [](const std::string &name) {
            const auto workload = workloads::makeSliceWorkload(
                name, bench::kSliceProfileRuns, bench::kSliceTestRuns);
            return Row<core::OptSliceResult>{
                workload.paperBaselineSeconds,
                core::runOptSlice(workload,
                                  bench::standardOptSliceConfig())};
        });
    const service::SharedCacheStats cache =
        service::SharedCache::instance().stats();

    if (!figure5(race))
        return 1;
    table1(race);
    if (!figure6(slice))
        return 1;
    table2(slice, cache);
    if (!figure9(slice, cache))
        return 1;
    figure10(slice);
    return 0;
}
