/**
 * @file
 * Static-phase microbenchmark: constraint-solver throughput and
 * end-to-end static-analysis wall time, pre- vs post-overhaul.
 *
 * Like microbench_shadow, this measures real wall time of THIS
 * implementation (the figure/table harnesses report modeled costs),
 * making it the regression observable for the predicated static
 * analysis hot path.  Two comparisons per workload:
 *
 *   solver        one Andersen solve, reference (pre-overhaul FIFO
 *                 full-propagation) vs delta (difference propagation,
 *                 offline constraint reduction, least-recently-fired
 *                 worklist); events = solver work units;
 *   static-phase  a Figure 7/8-style calibration sweep: the whole
 *                 static phase (sound + predicated detector or slicer
 *                 stack plus the calibration / ranking solves) re-run
 *                 once per profiling-campaign size, exactly as the
 *                 sweep harnesses re-run it per sweep point.  Pre is
 *                 the pre-overhaul shape: reference solver, every
 *                 solve and every slice from scratch at every point.
 *                 Post is the production shape: delta solver with all
 *                 static results routed through the memo cache, so
 *                 sweep points whose invariant sets have converged
 *                 reuse whole detector outputs and slice sets.  The
 *                 cache is reset per repetition, so each rep measures
 *                 a cold sweep, not a warmed-over one.
 *
 * Both static-phase shapes run the pipeline's budgets: the CS
 * points-to attempts at the default context budget
 * (analysis::kDefaultMaxContexts, CI fallback on overflow) and every
 * static slice at core::OptSliceConfig::sliceWorkBudget.
 *
 * Each measurement is best-of-N; BENCH_microbench_static.json carries
 * the samples plus the aggregate end-to-end speedup.
 * OHA_BENCH_SMOKE=1 (CI) shrinks repetitions.
 */

#include "bench_common.h"

#include <cstdlib>

#include "analysis/andersen_cache.h"
#include "analysis/race_detector.h"
#include "analysis/slicer.h"
#include "core/optslice.h"
#include "profile/profiler.h"
#include "workloads/workloads.h"

using namespace oha;

namespace {

constexpr std::uint64_t kSliceWorkBudget =
    core::OptSliceConfig::sliceWorkBudget;

bool
smokeMode()
{
    const char *env = std::getenv("OHA_BENCH_SMOKE");
    return env && *env && *env != '0';
}

struct Sample
{
    double bestMs = 0;
    std::uint64_t events = 0; ///< solver work units (0 if untracked)
};

template <typename RunOnce>
Sample
measure(RunOnce runOnce)
{
    const int kReps = smokeMode() ? 2 : 5;
    Sample sample;
    for (int rep = 0; rep < kReps; ++rep) {
        const double t0 = bench::nowMs();
        const std::uint64_t events = runOnce();
        const double ms = bench::nowMs() - t0;
        if (rep == 0 || ms < sample.bestMs)
            sample.bestMs = ms;
        sample.events = events;
    }
    return sample;
}

/** The sweep's invariant sets: one campaign per profiling-run count,
 *  exactly as Figures 7/8 sample them.  Later points converge to the
 *  same set, which is precisely what the memo layer exploits. */
std::vector<inv::InvariantSet>
sweepInvariants(const workloads::Workload &workload)
{
    std::vector<inv::InvariantSet> sweep;
    for (std::size_t runs : {1u, 2u, 4u, 8u}) {
        prof::ProfilingCampaign campaign(*workload.module, {});
        campaign.addRunsUntilConverged(workload.profilingSet, runs,
                                       runs + 1);
        sweep.push_back(campaign.invariants());
    }
    return sweep;
}

/** One Andersen solve (predicated CI — the detector's configuration). */
std::uint64_t
solveOnce(const workloads::Workload &workload,
          const inv::InvariantSet &invariants, bool reference)
{
    analysis::AndersenOptions options;
    options.invariants = &invariants;
    options.referenceSolver = reference;
    const analysis::AndersenResult result =
        analysis::runAndersen(*workload.module, options);
    return result.workUnits;
}

/**
 * The OptFT static phase across a calibration sweep: per sweep point,
 * sound detector, predicated detector, and the lock-elision
 * calibration's points-to solve.  @p post routes everything through
 * the static-result memo on the delta solver — the sound detector is
 * computed once for the whole sweep, converged predicated points hit
 * whole-detector entries, and the calibration solve hits the
 * predicated detector's Andersen entry.  Pre recomputes every piece
 * at every point on the reference solver.
 */
std::uint64_t
racePhaseOnce(const workloads::Workload &workload,
              const std::vector<inv::InvariantSet> &sweep, bool post)
{
    const ir::Module &module = *workload.module;
    std::uint64_t units = 0;
    if (post)
        analysis::resetAndersenCache();
    for (const inv::InvariantSet &invariants : sweep) {
        analysis::AndersenOptions aopts;
        aopts.invariants = &invariants;
        if (post) {
            const auto detectors = support::runBatch(
                2,
                [&](std::size_t i) {
                    return analysis::runStaticRaceDetectorMemo(
                        workload.module,
                        i == 0 ? nullptr : &invariants);
                },
                0);
            units += detectors[0]->workUnits + detectors[1]->workUnits;
            units += analysis::runAndersenMemo(workload.module, aopts)
                         ->workUnits;
        } else {
            units += analysis::runStaticRaceDetector(module, nullptr,
                                                     nullptr, true)
                         .workUnits;
            units += analysis::runStaticRaceDetector(module, &invariants,
                                                     nullptr, true)
                         .workUnits;
            aopts.referenceSolver = true;
            units += analysis::runAndersen(module, aopts).workUnits;
        }
    }
    return units;
}

/**
 * The OptSlice static phase across a calibration sweep: per sweep
 * point, sound CS and predicated CS points-to (CI fallback on budget
 * overflow), the CI ranking solve, and a sound + predicated slice
 * from every Output, all at the pipeline's budgets.  Pre solves and
 * slices everything from scratch at every point on the reference
 * solver; post routes points-to AND slice sets through the memo (the
 * ranking CI is served from the sound CS solve's pre-pass, converged
 * points reuse stored slices).
 */
std::uint64_t
slicePhaseOnce(const workloads::Workload &workload,
               const std::vector<inv::InvariantSet> &sweep, bool post)
{
    const ir::Module &module = *workload.module;
    std::vector<InstrId> endpoints;
    for (InstrId id = 0; id < module.numInstrs(); ++id)
        if (module.instr(id).op == ir::Opcode::Output)
            endpoints.push_back(id);

    std::uint64_t units = 0;
    if (post)
        analysis::resetAndersenCache();
    for (const inv::InvariantSet &invariants : sweep) {
        auto sliceAllDirect = [&](const analysis::AndersenResult &pts,
                                  const inv::InvariantSet *inv) {
            analysis::SlicerOptions options;
            options.invariants = inv;
            options.maxWork = kSliceWorkBudget;
            const analysis::StaticSlicer slicer(module, pts, options);
            for (InstrId endpoint : endpoints)
                units += slicer.slice(endpoint).workUnits;
        };
        auto sliceAllMemo = [&](const analysis::AndersenResult &pts,
                                const inv::InvariantSet *inv,
                                bool pickedCs) {
            const auto slices = analysis::sliceSetMemo(
                workload.module, inv,
                kSliceWorkBudget ^ (pickedCs ? 1ull << 63 : 0),
                endpoints, [&]() {
                    analysis::SliceSetResult out;
                    analysis::SlicerOptions options;
                    options.invariants = inv;
                    options.maxWork = kSliceWorkBudget;
                    const analysis::StaticSlicer slicer(module, pts,
                                                        options);
                    const auto results = support::runBatch(
                        endpoints.size(),
                        [&](std::size_t e) {
                            return slicer.slice(endpoints[e]);
                        },
                        0);
                    out.contextSensitive = pickedCs;
                    out.complete = true;
                    for (auto &slice : results) {
                        out.workUnits += slice.workUnits;
                        out.slices.push_back(
                            std::move(slice.instructions));
                    }
                    return out;
                });
            units += slices->workUnits;
        };

        analysis::AndersenOptions soundCs, predCs, ciOptions, predCi;
        soundCs.contextSensitive = true;
        predCs.contextSensitive = true;
        predCs.invariants = &invariants;
        predCi.invariants = &invariants;
        if (post) {
            auto sound =
                analysis::runAndersenMemo(workload.module, soundCs);
            units += sound->workUnits;
            bool soundCsPicked = sound->completed;
            if (!soundCsPicked) { // CS budget overflow: CI fallback
                sound =
                    analysis::runAndersenMemo(workload.module, ciOptions);
                units += sound->workUnits;
            }
            auto pred = analysis::runAndersenMemo(workload.module, predCs);
            units += pred->workUnits;
            bool predCsPicked = pred->completed;
            if (!predCsPicked) {
                pred = analysis::runAndersenMemo(workload.module, predCi);
                units += pred->workUnits;
            }
            units += analysis::runAndersenMemo(workload.module, ciOptions)
                         ->workUnits;
            sliceAllMemo(*sound, nullptr, soundCsPicked);
            sliceAllMemo(*pred, &invariants, predCsPicked);
        } else {
            soundCs.referenceSolver = true;
            predCs.referenceSolver = true;
            ciOptions.referenceSolver = true;
            predCi.referenceSolver = true;
            auto sound = analysis::runAndersen(module, soundCs);
            units += sound.workUnits;
            if (!sound.completed) {
                sound = analysis::runAndersen(module, ciOptions);
                units += sound.workUnits;
            }
            auto pred = analysis::runAndersen(module, predCs);
            units += pred.workUnits;
            if (!pred.completed) {
                pred = analysis::runAndersen(module, predCi);
                units += pred.workUnits;
            }
            units += analysis::runAndersen(module, ciOptions).workUnits;
            sliceAllDirect(sound, nullptr);
            sliceAllDirect(pred, &invariants);
        }
    }
    return units;
}

} // namespace

int
main()
{
    bench::banner("Microbench: predicated static-analysis throughput",
                  "optimistic hybrid analysis must keep the predicated "
                  "static phase cheap enough to amortize (Section 5, "
                  "Table 2)");

    bench::JsonReport json("microbench_static");
    TextTable table(
        {"workload", "variant", "wall ms", "work units", "units/sec"});

    auto row = [&](const std::string &name, const char *variant,
                   const Sample &sample) {
        const double perSec =
            sample.bestMs > 0
                ? double(sample.events) / (sample.bestMs / 1000.0)
                : 0;
        table.addRow({name, variant, fmtDouble(sample.bestMs, 2),
                      std::to_string(sample.events),
                      fmtDouble(perSec / 1e6, 2) + "M"});
        json.add(name, variant, sample.bestMs, sample.events);
    };

    double preMs = 0, postMs = 0;

    for (const std::string &name : workloads::raceWorkloadNames()) {
        const auto workload = workloads::makeRaceWorkload(name, 8, 1);
        const std::vector<inv::InvariantSet> sweep =
            sweepInvariants(workload);
        const inv::InvariantSet &invariants = sweep.back();
        row(name, "solver-reference",
            measure([&] { return solveOnce(workload, invariants, true); }));
        row(name, "solver-delta",
            measure(
                [&] { return solveOnce(workload, invariants, false); }));
        const Sample pre = measure(
            [&] { return racePhaseOnce(workload, sweep, false); });
        const Sample post = measure(
            [&] { return racePhaseOnce(workload, sweep, true); });
        row(name, "static-phase-pre", pre);
        row(name, "static-phase-post", post);
        preMs += pre.bestMs;
        postMs += post.bestMs;
    }

    for (const std::string &name : workloads::sliceWorkloadNames()) {
        const auto workload = workloads::makeSliceWorkload(name, 8, 1);
        const std::vector<inv::InvariantSet> sweep =
            sweepInvariants(workload);
        const inv::InvariantSet &invariants = sweep.back();
        row(name, "solver-reference",
            measure([&] { return solveOnce(workload, invariants, true); }));
        row(name, "solver-delta",
            measure(
                [&] { return solveOnce(workload, invariants, false); }));
        const Sample pre = measure(
            [&] { return slicePhaseOnce(workload, sweep, false); });
        const Sample post = measure(
            [&] { return slicePhaseOnce(workload, sweep, true); });
        row(name, "static-phase-pre", pre);
        row(name, "static-phase-post", post);
        preMs += pre.bestMs;
        postMs += post.bestMs;
    }

    const double speedup = postMs > 0 ? preMs / postMs : 0;
    std::printf("%s\n", table.str().c_str());
    std::printf("end-to-end static phase: pre %.1f ms, post %.1f ms, "
                "speedup %.2fx\n",
                preMs, postMs, speedup);
    json.metric("aggregate", "static-phase", "pre_ms", preMs);
    json.metric("aggregate", "static-phase", "post_ms", postMs);
    json.metric("aggregate", "static-phase", "speedup", speedup);

    json.write();
    return 0;
}
