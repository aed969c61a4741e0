/**
 * @file
 * Trace capture/replay microbenchmark: real wall time for the trace
 * subsystem against live interpretation, per workload and per path.
 * The pipelines run every input live; these series keep the price of
 * the capture and replay engines on record.
 *
 * Best-of-N for each workload's first testing input: the cost of
 * (a) recording the trace once, (b) running a full-plan analysis on a
 * live interpreter, and (c) replaying the recorded trace through the
 * same analysis.  Replay skips guest evaluation but decodes the
 * stream, which on the pre-decoded interpreter costs about as much as
 * running the program, so (c) gains nothing over (b) even before (a)
 * is paid; the `replay_speedup` metric is (b)/(c) wall time.
 *
 * OHA_BENCH_SMOKE=1 shrinks corpora and repetitions for CI smoke
 * runs.  JSON: BENCH_microbench_trace.json.
 */

#include "bench_common.h"

#include <cstdlib>

#include "dyn/fasttrack.h"
#include "dyn/giri.h"
#include "dyn/plans.h"
#include "exec/trace.h"
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

    // ---- Live FastTrack vs replayed FastTrack -----------------------
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
    std::printf("mean replay speedup (single analysis): %.2fx\n",
                bench::mean(replaySpeedups));

    json.write();
    return 0;
}
