/**
 * @file
 * Record-once/analyze-many microbenchmark: real wall time for the
 * trace capture/replay subsystem against live interpretation, per
 * workload and per path.
 *
 * Three layers of measurement:
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
 *  2. Fused vs separate replay: the three FastTrack configurations
 *     runOptFt analyzes per testing input — full, hybrid, and
 *     optimistic with its invariant checker — replayed as three
 *     attachment groups of one decode pass versus three separate
 *     replays.  Results are identical (checked); `fused_speedup` is
 *     separate/fused wall time.
 *
 *  3. Pipeline level: end-to-end runOptFt (Figure 5 workloads) and
 *     runOptSlice (Figure 6 workloads) on the default live path
 *     (useTraceReplay off: one interpreter pass per input per round,
 *     every configuration an attachment group of it) vs record-once
 *     (useTraceReplay on: each input recorded once, every round
 *     replays the capture).  Results are byte-identical (pinned by
 *     trace_replay_parity_test).  `interp_step_ratio` is live over
 *     record-once interpretedSteps: both interpret each input once for
 *     the first round, and the live path once more per repair round
 *     that re-runs it, so the ratio is 1 without repairs.
 *     `e2e_speedup` is record-once over live wall time (above 1: the
 *     live path is faster).
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
    bench::banner("Microbench: record-once / analyze-many trace replay",
                  "rollback is deterministic re-execution (Section 2.3); "
                  "capture the event stream once and replay it per "
                  "analysis instead");

    const bool smoke = smokeMode();
    const int kReps = smoke ? 2 : 5;
    const int kPipeReps = smoke ? 1 : 3;
    const std::size_t profileRuns = smoke ? 4 : bench::kRaceProfileRuns;
    const std::size_t testRuns = smoke ? 2 : bench::kRaceTestRuns;
    const std::size_t sliceTestRuns = smoke ? 2 : bench::kSliceTestRuns;

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
    std::string largestName;
    std::uint64_t largestEvents = 0;
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
        if (record.events > largestEvents) {
            largestEvents = record.events;
            largestName = name;
        }

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
    // The per-input shape of runOptFt's reference pass: full, hybrid
    // and optimistic (+ checker) FastTrack over one capture.
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

    if (!largestName.empty()) {
        const auto workload = workloads::makeRaceWorkload(largestName, 1, 1);
        const ir::Module &module = *workload.module;
        const auto &input = workload.testingSet.front();
        const auto plan = dyn::fullFastTrackPlan(module);
        const exec::RecordedTrace trace = exec::recordRun(module, input);

        // ---- Segmented spill capture + mmap-backed replay -----------
        // Force the largest capture through the spill path (~8
        // segments) and price both sides: capture with pwrite spill,
        // replay with per-segment mmap windows.  The resident fraction
        // is what record-once/analyze-many actually holds in RAM.
        exec::TraceStoreOptions spillOptions;
        spillOptions.segmentBytes = std::max<std::size_t>(
            4096, static_cast<std::size_t>(trace.events.sizeBytes() / 8));
        const Sample spillRecord = measure(kReps, [&] {
            const auto spilled =
                exec::recordRun(module, input, spillOptions);
            if (!spilled.events.spilled())
                std::abort(); // the spill path must actually engage
            return spilled.result.totalEvents.total();
        });
        row(largestName, "record-spilled", spillRecord);

        const exec::RecordedTrace spilled =
            exec::recordRun(module, input, spillOptions);
        const Sample spillReplay = measure(kReps, [&] {
            dyn::FastTrack tool;
            exec::TraceReplayer replayer(module, spilled);
            replayer.attach(&tool, &plan);
            const auto result = replayer.run();
            if (tool.races().size() > 1u << 20)
                std::abort();
            return result.delivered[0].total();
        });
        row(largestName, "fasttrack-replay-spilled", spillReplay);

        const double residentFrac =
            spilled.events.sizeBytes() > 0
                ? double(spilled.events.residentBytes()) /
                      double(spilled.events.sizeBytes())
                : 0;
        json.metric(largestName, "trace", "spill_segments",
                    double(spilled.events.numSegments()));
        json.metric(largestName, "trace", "spill_resident_fraction",
                    residentFrac);
        std::printf("spill: %zu segments, %.1f%% of %llu trace bytes "
                    "resident after capture\n\n",
                    spilled.events.numSegments(), 100.0 * residentFrac,
                    static_cast<unsigned long long>(
                        spilled.events.sizeBytes()));
    }

    // ---- Pipeline level: live passes vs record-once ------------------
    TextTable pipeTable({"workload", "pipeline", "live ms", "replay ms",
                         "interp-step ratio", "e2e speedup"});
    std::vector<double> stepRatios;
    std::vector<double> optFtE2e;

    for (const std::string &name : raceNames) {
        const auto workload =
            workloads::makeRaceWorkload(name, profileRuns, testRuns);
        const core::OptFtConfig live = bench::standardOptFtConfig();
        core::OptFtConfig replay = live;
        replay.useTraceReplay = true;

        core::OptFtResult liveResult, replayResult;
        const Sample liveMs = measure(kPipeReps, [&] {
            liveResult = core::runOptFt(workload, live);
            return liveResult.interpretedSteps;
        });
        const Sample replayMs = measure(kPipeReps, [&] {
            replayResult = core::runOptFt(workload, replay);
            return replayResult.interpretedSteps;
        });

        const double ratio =
            replayResult.interpretedSteps > 0
                ? double(liveResult.interpretedSteps) /
                      double(replayResult.interpretedSteps)
                : 0;
        const double e2e =
            liveMs.bestMs > 0 ? replayMs.bestMs / liveMs.bestMs : 0;
        stepRatios.push_back(ratio);
        optFtE2e.push_back(e2e);
        pipeTable.addRow({name, "optft", fmtDouble(liveMs.bestMs, 1),
                          fmtDouble(replayMs.bestMs, 1),
                          fmtDouble(ratio, 2), fmtDouble(e2e, 2)});
        json.add(name, "optft-live", liveMs.bestMs,
                 liveResult.interpretedSteps);
        json.add(name, "optft-replay", replayMs.bestMs,
                 replayResult.interpretedSteps);
        json.metric(name, "optft", "interp_step_ratio", ratio);
        json.metric(name, "optft", "e2e_speedup", e2e);
    }

    for (const std::string &name : sliceNames) {
        const auto workload =
            workloads::makeSliceWorkload(name, profileRuns, sliceTestRuns);
        const core::OptSliceConfig live = bench::standardOptSliceConfig();
        core::OptSliceConfig replay = live;
        replay.useTraceReplay = true;

        core::OptSliceResult liveResult, replayResult;
        const Sample liveMs = measure(kPipeReps, [&] {
            liveResult = core::runOptSlice(workload, live);
            return liveResult.interpretedSteps;
        });
        const Sample replayMs = measure(kPipeReps, [&] {
            replayResult = core::runOptSlice(workload, replay);
            return replayResult.interpretedSteps;
        });

        const double ratio =
            replayResult.interpretedSteps > 0
                ? double(liveResult.interpretedSteps) /
                      double(replayResult.interpretedSteps)
                : 0;
        const double e2e =
            liveMs.bestMs > 0 ? replayMs.bestMs / liveMs.bestMs : 0;
        stepRatios.push_back(ratio);
        pipeTable.addRow({name, "optslice", fmtDouble(liveMs.bestMs, 1),
                          fmtDouble(replayMs.bestMs, 1),
                          fmtDouble(ratio, 2), fmtDouble(e2e, 2)});
        json.add(name, "optslice-live", liveMs.bestMs,
                 liveResult.interpretedSteps);
        json.add(name, "optslice-replay", replayMs.bestMs,
                 replayResult.interpretedSteps);
        json.metric(name, "optslice", "interp_step_ratio", ratio);
        json.metric(name, "optslice", "e2e_speedup", e2e);
    }

    std::printf("%s\n", pipeTable.str().c_str());

    const double meanRatio = bench::mean(stepRatios);
    std::printf("mean replay speedup (single analysis): %.2fx\n",
                bench::mean(replaySpeedups));
    std::printf("mean live/record-once interpreted steps (pipeline): "
                "%.2fx\n",
                meanRatio);
    json.metric("aggregate", "all", "mean_interp_step_ratio", meanRatio);
    // Reported only; timing on shared hosts is too noisy to gate on.
    const double meanE2e = bench::mean(optFtE2e);
    std::printf("mean optft live speedup over record-once: %.2fx\n",
                meanE2e);
    json.metric("aggregate", "optft", "mean_e2e_speedup", meanE2e);

    json.write();
    return 0;
}
