#include "traced.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <set>

#include "analysis/andersen.h"
#include "analysis/race_detector.h"
#include "analysis/slicer.h"
#include "dyn/fasttrack.h"
#include "dyn/fault_injector.h"
#include "dyn/giri.h"
#include "dyn/invariant_checker.h"
#include "dyn/plans.h"
#include "exec/trace.h"
#include "profile/profiler.h"

namespace perfbench {

using namespace oha;

std::size_t
Tracer::open(const char *name, std::int64_t baselineNs)
{
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : std::int32_t(stack_.back());
    span.op = op_;
    span.baselineNs = baselineNs;
    spans_.push_back(span);
    stack_.push_back(spans_.size() - 1);
    spans_.back().startNs = nowNs();
    return spans_.size() - 1;
}

std::int64_t
Tracer::close(std::size_t index)
{
    const std::int64_t end = nowNs();
    if (stack_.empty() || stack_.back() != index) {
        std::fprintf(stderr, "perfbench: span '%s' closed out of order\n",
                     spans_[index].name);
        std::abort();
    }
    stack_.pop_back();
    spans_[index].endNs = end;
    return spans_[index].durationNs();
}

std::map<std::string, double>
Tracer::selfMs() const
{
    std::vector<std::int64_t> childNs(spans_.size(), 0);
    for (const Span &span : spans_)
        if (span.parent >= 0)
            childNs[span.parent] += span.durationNs();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        out[span.name] +=
            double(span.durationNs() - childNs[i] - span.baselineNs) / 1e6;
    }
    return out;
}

double
Tracer::opMs() const
{
    std::int64_t total = 0;
    for (const Span &span : spans_)
        if (span.parent < 0)
            total += span.durationNs();
    return double(total) / 1e6;
}

double
Tracer::unattributedFrac() const
{
    std::int64_t root = 0;
    std::int64_t covered = 0;
    for (const Span &span : spans_) {
        if (span.parent < 0)
            root += span.durationNs();
        else if (spans_[span.parent].parent < 0)
            covered += span.durationNs();
    }
    return root > 0 ? double(root - covered) / double(root) : 0.0;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    out << "index\tname\top\tparent\tstart_ns\tend_ns\tbaseline_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << i << '\t' << s.name << '\t' << s.op << '\t' << s.parent
            << '\t' << s.startNs << '\t' << s.endNs << '\t' << s.baselineNs
            << '\n';
    }
    return bool(out.flush());
}

namespace {

/** A tool that ignores every event: attached with an empty plan, its
 *  replay costs exactly the decode. */
class NoopTool : public exec::Tool
{
};

/** Replay @p trace through @p tools (each with its plan) under a span,
 *  then run @p readResults inside it; returns the span's duration. */
std::int64_t
replaySpan(Tracer &tracer, const char *name, std::int64_t baselineNs,
           const ir::Module &module, const exec::RecordedTrace &trace,
           const std::vector<std::pair<exec::Tool *,
                                       const exec::InstrumentationPlan *>>
               &tools,
           exec::RunResult *resultOut = nullptr,
           const std::function<void()> &readResults = {})
{
    ScopedSpan span(tracer, name, baselineNs);
    exec::TraceReplayer replayer(module, trace);
    for (const auto &[tool, plan] : tools)
        replayer.attach(tool, plan);
    exec::RunResult result = replayer.run();
    if (readResults)
        readResults();
    const std::int64_t ns = span.close();
    if (resultOut)
        *resultOut = std::move(result);
    return ns;
}

/** Profile the workload's inputs to convergence, as the pipeline does. */
inv::InvariantSet
profile(Tracer &tracer, const workloads::Workload &workload,
        bool callContexts)
{
    ScopedSpan span(tracer, "profile");
    prof::ProfileOptions options;
    options.callContexts = callContexts;
    options.threads = 1;
    prof::ProfilingCampaign campaign(*workload.module, options);
    campaign.addRunsUntilConverged(workload.profilingSet, kProfileRuns,
                                   kConvergenceWindow);
    tracer.count("profile.steps", campaign.profiledSteps());
    tracer.count("profile.runs", campaign.numRuns());
    return campaign.invariants();
}

void
injectFaults(Tracer &tracer, const workloads::Workload &workload,
             inv::InvariantSet &invariants, std::uint64_t faultSeed,
             bool slicing)
{
    if (faultSeed == 0)
        return;
    ScopedSpan span(tracer, "dyn.faults");
    dyn::FaultInjectorOptions options;
    options.seed = faultSeed;
    if (slicing) {
        // The families the OptSlice checker watches (core/optslice.cc).
        options.families = {dyn::ViolationFamily::UnreachableBlock,
                            dyn::ViolationFamily::CalleeSet,
                            dyn::ViolationFamily::CallContext};
    }
    dyn::FaultInjector(*workload.module, options)
        .inject(invariants, workload.testingSet);
}

std::vector<std::unique_ptr<exec::RecordedTrace>>
record(Tracer &tracer, const workloads::Workload &workload)
{
    std::vector<std::unique_ptr<exec::RecordedTrace>> traces;
    for (const exec::ExecConfig &input : workload.testingSet) {
        ScopedSpan span(tracer, "exec.record");
        traces.push_back(std::make_unique<exec::RecordedTrace>(
            exec::recordRun(*workload.module, input)));
        span.close();
        tracer.count("exec.record.steps", traces.back()->result.steps);
        tracer.count("exec.record.trace_bytes",
                     traces.back()->events.sizeBytes());
    }
    return traces;
}

/** Pure-decode replay of @p trace; returns its duration (the tools'
 *  baseline). */
std::int64_t
decodeOnly(Tracer &tracer, const ir::Module &module,
           const exec::RecordedTrace &trace,
           const exec::InstrumentationPlan &emptyPlan)
{
    NoopTool noop;
    exec::RunResult result;
    const std::int64_t ns = replaySpan(tracer, "exec.replay", 0, module,
                                       trace, {{&noop, &emptyPlan}}, &result);
    tracer.count("exec.replay.events", result.totalEvents.total());
    return ns;
}

analysis::AndersenResult
andersen(Tracer &tracer, const ir::Module &module, bool contextSensitive,
         const inv::InvariantSet *invariants, std::int64_t *nsOut = nullptr)
{
    ScopedSpan span(tracer, "analysis.andersen");
    analysis::AndersenOptions options;
    options.contextSensitive = contextSensitive;
    options.invariants = invariants;
    if (contextSensitive)
        options.maxContexts = core::OptSliceConfig{}.csContextBudget;
    analysis::AndersenResult result = analysis::runAndersen(module, options);
    const std::int64_t ns = span.close();
    if (nsOut)
        *nsOut = ns;
    tracer.count("analysis.andersen.work_units", result.workUnits);
    return result;
}

TracedOutcome
traceRace(Tracer &tracer, const Request &request)
{
    std::optional<workloads::Workload> built;
    {
        ScopedSpan span(tracer, "workloads.build");
        built = buildWorkload(request);
    }
    const workloads::Workload &workload = *built;
    const ir::Module &module = *workload.module;

    inv::InvariantSet invariants = profile(tracer, workload, false);
    injectFaults(tracer, workload, invariants, request.faultSeed, false);

    // Sound and predicated detectors, each after the Andersen solve it
    // repeats internally, so the detector's self time excludes it.
    std::int64_t soundPtsNs = 0, predPtsNs = 0;
    andersen(tracer, module, false, nullptr, &soundPtsNs);
    andersen(tracer, module, false, &invariants, &predPtsNs);
    analysis::StaticRaceResult sound, predicated;
    {
        ScopedSpan span(tracer, "analysis.race", soundPtsNs);
        sound = analysis::runStaticRaceDetector(module, nullptr);
    }
    {
        ScopedSpan span(tracer, "analysis.race", predPtsNs);
        predicated = analysis::runStaticRaceDetector(module, &invariants);
    }
    tracer.count("analysis.race.racy_accesses",
                 sound.racyAccesses.size() + predicated.racyAccesses.size());

    const auto traces = record(tracer, workload);

    const exec::InstrumentationPlan empty =
        exec::InstrumentationPlan::none(module);
    const exec::InstrumentationPlan fullPlan = dyn::fullFastTrackPlan(module);
    const exec::InstrumentationPlan hybridPlan =
        dyn::hybridFastTrackPlan(module, sound.racyAccesses);
    const exec::InstrumentationPlan optPlan = dyn::optimisticFastTrackPlan(
        module, predicated.racyAccesses, invariants);
    dyn::CheckerConfig checkerConfig;
    checkerConfig.callContexts = false;

    std::set<std::pair<InstrId, InstrId>> races;
    for (const auto &trace : traces) {
        const std::int64_t decodeNs =
            decodeOnly(tracer, module, *trace, empty);
        {
            dyn::FastTrack full;
            replaySpan(tracer, "dyn.fasttrack", decodeNs, module, *trace,
                       {{&full, &fullPlan}}, nullptr, [&] {
                           const auto pairs = full.racePairs();
                           races.insert(pairs.begin(), pairs.end());
                       });
        }
        {
            dyn::FastTrack hybrid;
            replaySpan(tracer, "dyn.fasttrack", decodeNs, module, *trace,
                       {{&hybrid, &hybridPlan}});
        }
        dyn::FastTrack optimistic;
        const std::int64_t optNs =
            replaySpan(tracer, "dyn.fasttrack", decodeNs, module, *trace,
                       {{&optimistic, &optPlan}});
        // The checker replays the whole stream (no abort control), so
        // its cost is measured over the same events as the tool's.
        dyn::FastTrack checked;
        dyn::InvariantChecker checker(module, invariants, checkerConfig);
        replaySpan(tracer, "dyn.checker", optNs, module, *trace,
                   {{&checked, &optPlan}, {&checker, &checker.plan()}});
        tracer.count("dyn.checker.aborts", checker.violated() ? 1 : 0);
    }

    TracedOutcome outcome;
    outcome.racesObserved = races.size();
    return outcome;
}

/** Static slices of @p endpoints from one points-to result, or nullopt
 *  when a slice exceeds the work budget. */
std::optional<std::vector<std::set<InstrId>>>
sliceAll(Tracer &tracer, const ir::Module &module,
         const analysis::AndersenResult &pts,
         const inv::InvariantSet *invariants,
         const std::vector<InstrId> &endpoints)
{
    ScopedSpan span(tracer, "analysis.slicer");
    analysis::SlicerOptions options;
    options.invariants = invariants;
    options.maxWork = core::OptSliceConfig{}.sliceWorkBudget;
    const analysis::StaticSlicer slicer(module, pts, options);
    std::vector<std::set<InstrId>> slices;
    for (InstrId endpoint : endpoints) {
        analysis::StaticSliceResult slice = slicer.slice(endpoint);
        if (!slice.completed)
            return std::nullopt;
        slices.push_back(std::move(slice.instructions));
    }
    return slices;
}

TracedOutcome
traceSlice(Tracer &tracer, const Request &request)
{
    const core::OptSliceConfig defaults;
    std::optional<workloads::Workload> built;
    {
        ScopedSpan span(tracer, "workloads.build");
        built = buildWorkload(request);
    }
    const workloads::Workload &workload = *built;
    const ir::Module &module = *workload.module;

    inv::InvariantSet invariants = profile(tracer, workload, true);
    injectFaults(tracer, workload, invariants, request.faultSeed, true);

    // Points-to picks: context-sensitive within the context budget,
    // context-insensitive otherwise (core/optslice.cc pickAndersen).
    struct Pick
    {
        analysis::AndersenResult pts;
        bool contextSensitive = false;
    };
    auto pick = [&](const inv::InvariantSet *assumed) {
        Pick out;
        out.pts = andersen(tracer, module, true, assumed);
        out.contextSensitive = out.pts.completed;
        if (!out.contextSensitive)
            out.pts = andersen(tracer, module, false, assumed);
        return out;
    };
    const Pick sound = pick(nullptr);
    const Pick optimistic = pick(&invariants);

    // Endpoints: the outputs with the largest sound CI slices.
    std::optional<analysis::AndersenResult> soundCi;
    if (sound.contextSensitive)
        soundCi = andersen(tracer, module, false, nullptr);
    const analysis::AndersenResult &rankPts =
        soundCi ? *soundCi : sound.pts;
    std::vector<InstrId> endpoints;
    {
        ScopedSpan span(tracer, "analysis.slicer");
        analysis::SlicerOptions rankOptions;
        rankOptions.maxWork = defaults.sliceWorkBudget;
        const analysis::StaticSlicer ranker(module, rankPts, rankOptions);
        std::vector<std::pair<std::size_t, InstrId>> candidates;
        for (InstrId id = 0; id < module.numInstrs(); ++id)
            if (module.instr(id).op == ir::Opcode::Output)
                candidates.push_back(
                    {ranker.slice(id).instructions.size(), id});
        std::sort(candidates.rbegin(), candidates.rend());
        for (const auto &[size, endpoint] : candidates) {
            if (endpoints.size() >= defaults.maxEndpoints)
                break;
            if (size >= defaults.minSliceSize || endpoints.empty())
                endpoints.push_back(endpoint);
        }
    }

    // Slices with the pipeline's fallback ladder: the picked result,
    // then CI, then no static slice at all (full Giri).
    auto slices = [&](const Pick &picked, const inv::InvariantSet *assumed,
                      const analysis::AndersenResult *ci) {
        auto out = sliceAll(tracer, module, picked.pts, assumed, endpoints);
        if (!out && picked.contextSensitive) {
            std::optional<analysis::AndersenResult> fresh;
            if (!ci) {
                fresh = andersen(tracer, module, false, assumed);
                ci = &*fresh;
            }
            out = sliceAll(tracer, module, *ci, assumed, endpoints);
        }
        return out;
    };
    const auto soundSlices =
        slices(sound, nullptr, soundCi ? &*soundCi : nullptr);
    const auto optSlices = slices(optimistic, &invariants, nullptr);

    TracedOutcome outcome;
    std::vector<exec::InstrumentationPlan> hybridPlans, optPlans;
    std::uint64_t sliceInstrs = 0;
    for (std::size_t e = 0; e < endpoints.size(); ++e) {
        hybridPlans.push_back(
            soundSlices ? dyn::sliceGiriPlan(module, (*soundSlices)[e])
                        : dyn::fullGiriPlan(module));
        optPlans.push_back(optSlices
                               ? dyn::sliceGiriPlan(module, (*optSlices)[e])
                               : dyn::fullGiriPlan(module));
        const std::size_t soundSize =
            soundSlices ? (*soundSlices)[e].size() : 0;
        const std::size_t optSize = optSlices ? (*optSlices)[e].size() : 0;
        outcome.soundSliceSize += double(soundSize);
        outcome.optSliceSize += double(optSize);
        sliceInstrs += soundSize + optSize;
    }
    outcome.soundSliceSize /= double(endpoints.size());
    outcome.optSliceSize /= double(endpoints.size());
    tracer.count("analysis.slicer.slice_instrs", sliceInstrs);

    const auto traces = record(tracer, workload);

    const exec::InstrumentationPlan empty =
        exec::InstrumentationPlan::none(module);
    dyn::CheckerConfig checkerConfig;
    checkerConfig.callContexts = invariants.hasCallContexts;
    checkerConfig.guardingLocks = false;
    checkerConfig.singletonThreads = false;
    for (const auto &trace : traces) {
        const std::int64_t decodeNs =
            decodeOnly(tracer, module, *trace, empty);
        for (std::size_t e = 0; e < endpoints.size(); ++e) {
            {
                dyn::GiriSlicer hybrid(module);
                replaySpan(tracer, "dyn.giri", decodeNs, module, *trace,
                           {{&hybrid, &hybridPlans[e]}}, nullptr,
                           [&] { hybrid.slice(endpoints[e]); });
            }
            dyn::GiriSlicer opt(module);
            const std::int64_t optNs =
                replaySpan(tracer, "dyn.giri", decodeNs, module, *trace,
                           {{&opt, &optPlans[e]}}, nullptr,
                           [&] { opt.slice(endpoints[e]); });
            dyn::GiriSlicer checked(module);
            dyn::InvariantChecker checker(module, invariants, checkerConfig);
            replaySpan(tracer, "dyn.checker", optNs, module, *trace,
                       {{&checked, &optPlans[e]},
                        {&checker, &checker.plan()}});
            tracer.count("dyn.checker.aborts", checker.violated() ? 1 : 0);
        }
    }
    return outcome;
}

} // namespace

TracedOutcome
tracedOp(Tracer &tracer, const Request &request)
{
    ScopedSpan op(tracer, "op");
    return request.race ? traceRace(tracer, request)
                        : traceSlice(tracer, request);
}

} // namespace perfbench
