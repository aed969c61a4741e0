/**
 * @file
 * Trace capture/replay microbenchmark: real wall time for the trace
 * subsystem against live interpretation, per workload and per path.
 * The pipelines run every input live; these series keep the price of
 * the capture and replay engines on record.
 *
 * Two layers of measurement:
 *
 *  1. Event level (best-of-N): for each workload's first testing
 *     input, the cost of (a) recording the trace once, (b) running a
 *     full-plan analysis on a live interpreter, and (c) replaying the
 *     recorded trace through the same analysis.  Replay skips guest
 *     evaluation but decodes the stream, which on the pre-decoded
 *     interpreter costs more than running the program, so (c) is
 *     slower than (b) even before (a) is paid; the `replay_speedup`
 *     metric is (b)/(c) wall time.
 *
 *  2. Fused vs separate replay: three FastTrack configurations of
 *     one testing input — full, hybrid, and optimistic with its
 *     invariant checker — replayed as three
 *     attachment groups of one decode pass versus three separate
 *     replays.  Results are identical (checked); `fused_speedup` is
 *     separate/fused wall time.
 *
 * OHA_BENCH_SMOKE=1 shrinks corpora and repetitions for CI smoke
 * runs.  JSON: BENCH_microbench_trace.json.
 */

#include "bench_common.h"

#include <cstdlib>

#include "analysis/race_detector.h"
#include "dyn/fasttrack.h"
#include "dyn/giri.h"
#include "dyn/invariant_checker.h"
#include "dyn/plans.h"
#include "exec/trace.h"
#include "profile/profiler.h"
#include "workloads/workloads.h"

using namespace oha;

namespace {

bool
smokeMode()
{
    const char *env = std::getenv("OHA_BENCH_SMOKE");
    return env && *env && *env != '0';
}

struct Sample
{
    double bestMs = 0;
    std::uint64_t events = 0;

    double
    eventsPerSec() const
    {
        return bestMs > 0 ? double(events) / (bestMs / 1000.0) : 0;
    }
};

/** Best-of-@p reps wall time of one deterministic measurement. */
template <typename RunOnce>
Sample
measure(int reps, RunOnce runOnce)
{
    Sample sample;
    for (int rep = 0; rep < reps; ++rep) {
        const double t0 = bench::nowMs();
        const std::uint64_t events = runOnce();
        const double ms = bench::nowMs() - t0;
        if (rep == 0 || ms < sample.bestMs)
            sample.bestMs = ms;
        sample.events = events;
    }
    return sample;
}

} // namespace

int
main()
{
    bench::banner("Microbench: trace capture and replay",
                  "rollback is deterministic re-execution (Section 2.3); "
                  "what capturing the event stream once and replaying "
                  "it per analysis would cost instead");

    const bool smoke = smokeMode();
    const int kReps = smoke ? 2 : 5;
    const std::size_t profileRuns = smoke ? 4 : bench::kRaceProfileRuns;

    bench::JsonReport json("microbench_trace");
    TextTable table({"workload", "variant", "wall ms", "events",
                     "events/sec"});
    auto row = [&](const std::string &name, const char *variant,
                   const Sample &sample) {
        table.addRow({name, variant, fmtDouble(sample.bestMs, 2),
                      std::to_string(sample.events),
                      fmtDouble(sample.eventsPerSec() / 1e6, 2) + "M"});
        json.add(name, variant, sample.bestMs, sample.events);
    };

    // ---- Event level: live FastTrack vs replayed FastTrack ----------
    std::vector<std::string> raceNames = workloads::raceWorkloadNames();
    std::vector<std::string> sliceNames = workloads::sliceWorkloadNames();
    if (smoke) {
        raceNames.resize(std::min<std::size_t>(raceNames.size(), 2));
        sliceNames.resize(std::min<std::size_t>(sliceNames.size(), 1));
    }

    std::vector<double> replaySpeedups;
    for (const std::string &name : raceNames) {
        const auto workload = workloads::makeRaceWorkload(name, 1, 1);
        const ir::Module &module = *workload.module;
        const auto &input = workload.testingSet.front();
        const auto plan = dyn::fullFastTrackPlan(module);

        const Sample record = measure(kReps, [&] {
            const auto trace = exec::recordRun(module, input);
            return trace.result.totalEvents.total();
        });
        row(name, "record", record);

        const Sample live = measure(kReps, [&] {
            dyn::FastTrack tool;
            exec::Interpreter interp(module, input);
            interp.attach(&tool, &plan);
            const auto result = interp.run();
            if (tool.races().size() > 1u << 20)
                std::abort();
            return result.delivered[0].total();
        });
        row(name, "fasttrack-live", live);

        const exec::RecordedTrace trace = exec::recordRun(module, input);
        const Sample replay = measure(kReps, [&] {
            dyn::FastTrack tool;
            exec::TraceReplayer replayer(module, trace);
            replayer.attach(&tool, &plan);
            const auto result = replayer.run();
            if (tool.races().size() > 1u << 20)
                std::abort();
            return result.delivered[0].total();
        });
        row(name, "fasttrack-replay", replay);

        const double speedup =
            replay.bestMs > 0 ? live.bestMs / replay.bestMs : 0;
        json.metric(name, "fasttrack", "replay_speedup", speedup);
        replaySpeedups.push_back(speedup);
    }

    for (const std::string &name : sliceNames) {
        const auto workload = workloads::makeSliceWorkload(name, 1, 1);
        const ir::Module &module = *workload.module;
        const auto &input = workload.testingSet.front();
        const auto plan = dyn::fullGiriPlan(module);

        const Sample live = measure(kReps, [&] {
            dyn::GiriSlicer tool(module);
            exec::Interpreter interp(module, input);
            interp.attach(&tool, &plan);
            const auto result = interp.run();
            if (tool.traceLength() > 1ull << 40)
                std::abort();
            return result.delivered[0].total();
        });
        row(name, "giri-live", live);

        const exec::RecordedTrace trace = exec::recordRun(module, input);
        const Sample replay = measure(kReps, [&] {
            dyn::GiriSlicer tool(module);
            exec::TraceReplayer replayer(module, trace);
            replayer.attach(&tool, &plan);
            const auto result = replayer.run();
            if (tool.traceLength() > 1ull << 40)
                std::abort();
            return result.delivered[0].total();
        });
        row(name, "giri-replay", replay);

        const double speedup =
            replay.bestMs > 0 ? live.bestMs / replay.bestMs : 0;
        json.metric(name, "giri", "replay_speedup", speedup);
        replaySpeedups.push_back(speedup);
    }

    std::printf("%s\n", table.str().c_str());

    // ---- Fused vs separate replay: one decode, three configurations -
    // Full, hybrid and optimistic (+ checker) FastTrack over one
    // capture.
    TextTable fusedTable({"workload", "separate ms", "fused ms",
                          "fused speedup"});
    std::vector<double> fusedSpeedups;
    for (const std::string &name : raceNames) {
        const auto workload =
            workloads::makeRaceWorkload(name, profileRuns, 1);
        const ir::Module &module = *workload.module;
        prof::ProfilingCampaign campaign(module, {});
        campaign.addRunsUntilConverged(workload.profilingSet, profileRuns,
                                       6);
        const inv::InvariantSet &invariants = campaign.invariants();
        const auto sound = analysis::runStaticRaceDetector(module, nullptr);
        const auto predicated =
            analysis::runStaticRaceDetector(module, &invariants);
        const exec::InstrumentationPlan plans[] = {
            dyn::fullFastTrackPlan(module),
            dyn::hybridFastTrackPlan(module, sound.racyAccesses),
            dyn::optimisticFastTrackPlan(module, predicated.racyAccesses,
                                         invariants)};
        dyn::CheckerConfig checkerConfig;
        checkerConfig.callContexts = false;
        const exec::RecordedTrace trace =
            exec::recordRun(module, workload.testingSet.front());

        // Replays the three configurations, fused or one pass each;
        // returns the summed race count (the cross-check) and adds up
        // events decoded.
        std::uint64_t decoded = 0;
        auto replay = [&](bool fused) {
            dyn::FastTrack tools[3];
            dyn::InvariantChecker checker(module, invariants,
                                          checkerConfig);
            std::vector<exec::RunResult> results;
            if (fused) {
                exec::TraceReplayer replayer(module, trace);
                for (std::size_t c = 0; c < 3; ++c) {
                    const auto group = c == 0 ? 0 : replayer.addGroup();
                    replayer.attach(group, &tools[c], &plans[c]);
                }
                checker.setControl(&replayer.control(2));
                replayer.attach(2, &checker, &checker.plan());
                results = replayer.runGroups();
                decoded = results[0].totalEvents.total();
            } else {
                decoded = 0;
                for (std::size_t c = 0; c < 3; ++c) {
                    exec::TraceReplayer replayer(module, trace);
                    replayer.attach(&tools[c], &plans[c]);
                    if (c == 2) {
                        checker.setControl(&replayer);
                        replayer.attach(&checker, &checker.plan());
                    }
                    results.push_back(replayer.run());
                    decoded += results.back().totalEvents.total();
                }
            }
            std::uint64_t races = 0;
            for (std::size_t c = 0; c < 3; ++c)
                races += tools[c].races().size() + results[c].steps;
            return races;
        };
        if (replay(true) != replay(false))
            std::abort(); // fused and separate replays must agree
        const Sample separate = measure(kReps, [&] {
            replay(false);
            return decoded;
        });
        const Sample fused = measure(kReps, [&] {
            replay(true);
            return decoded;
        });
        row(name, "separate-replay-x3", separate);
        row(name, "fused-replay-x3", fused);
        const double speedup =
            fused.bestMs > 0 ? separate.bestMs / fused.bestMs : 0;
        json.metric(name, "fasttrack", "fused_speedup", speedup);
        fusedSpeedups.push_back(speedup);
        fusedTable.addRow({name, fmtDouble(separate.bestMs, 2),
                           fmtDouble(fused.bestMs, 2),
                           fmtDouble(speedup, 2)});
    }
    std::printf("%s\n", fusedTable.str().c_str());
    std::printf("mean fused-replay speedup (3 configurations): %.2fx\n\n",
                bench::mean(fusedSpeedups));
    json.metric("aggregate", "fasttrack", "mean_fused_speedup",
                bench::mean(fusedSpeedups));

    std::printf("mean replay speedup (single analysis): %.2fx\n",
                bench::mean(replaySpeedups));

    json.write();
    return 0;
}
