/**
 * @file
 * Figure 11 reproduction: the effect of individual likely invariants
 * on static slice size.  Starting from the sound ("Base") slicer we
 * incrementally enable likely-unreachable code, likely callee sets,
 * and likely-unused call contexts; the last step also switches the
 * analysis to context-sensitive where it now completes within budget
 * (the paper's vim/nginx CI -> CS flip).
 *
 * Paper reference: each invariant shaves slice size; the call-context
 * invariant unlocks CS slicing for the biggest drop.
 */

#include "bench_common.h"

#include "analysis/slicer.h"
#include "profile/profiler.h"

using namespace oha;

namespace {

/** Mean static slice size over @p endpoints under @p invariants. */
std::pair<double, bool>
sliceSizeWith(const ir::Module &module,
              const std::vector<InstrId> &endpoints,
              const inv::InvariantSet *invariants, bool tryContextSensitive)
{
    analysis::AndersenOptions aopts;
    aopts.invariants = invariants;
    aopts.contextSensitive = tryContextSensitive;
    analysis::AndersenResult pts = analysis::runAndersen(module, aopts);
    bool cs = tryContextSensitive;
    if (!pts.completed) {
        aopts.contextSensitive = false;
        pts = analysis::runAndersen(module, aopts);
        cs = false;
    }

    analysis::SlicerOptions sopts;
    sopts.invariants = invariants;
    const analysis::StaticSlicer slicer(module, pts, sopts);
    double sum = 0;
    for (InstrId endpoint : endpoints)
        sum += double(slicer.slice(endpoint).instructions.size());
    return {sum / double(endpoints.size()), cs};
}

} // namespace

int
main()
{
    bench::banner("Figure 11: per-invariant effect on static slice size",
                  "LUC, callee sets, then call contexts each shrink "
                  "slices; contexts unlock CS analysis");

    TextTable table({"benchmark", "base", "+LUC", "+callee sets",
                     "+call contexts", "final AT"});

    bench::JsonReport json("fig11_invariant_ablation");
    for (const auto &name : workloads::sliceWorkloadNames()) {
        const auto workload = workloads::makeSliceWorkload(
            name, bench::kSliceProfileRuns, 2);
        const ir::Module &module = *workload.module;

        prof::ProfileOptions profOptions;
        profOptions.callContexts = true;
        prof::ProfilingCampaign campaign(module, profOptions);
        for (const auto &input : workload.profilingSet)
            campaign.addRun(input);
        const inv::InvariantSet &full = campaign.invariants();

        // Endpoints: all outputs (small modules; matches the other
        // slicing benches' selection closely enough for a trend plot).
        std::vector<InstrId> endpoints;
        for (InstrId id = 0; id < module.numInstrs(); ++id)
            if (module.instr(id).op == ir::Opcode::Output)
                endpoints.push_back(id);

        // Stage 0: sound CI baseline.
        const auto base = sliceSizeWith(module, endpoints, nullptr,
                                        false);

        // Stage 1: + likely-unreachable code.
        inv::InvariantSet luc;
        luc.numBlocks = full.numBlocks;
        luc.visitedBlocks = full.visitedBlocks;
        const auto withLuc =
            sliceSizeWith(module, endpoints, &luc, false);

        // Stage 2: + likely callee sets.
        inv::InvariantSet callees = luc;
        callees.calleeSets = full.calleeSets;
        const auto withCallees =
            sliceSizeWith(module, endpoints, &callees, false);

        // Stage 3: + likely-unused call contexts (CS now attempted).
        const auto withContexts =
            sliceSizeWith(module, endpoints, &full, true);

        table.addRow({name, fmtDouble(base.first, 0),
                      fmtDouble(withLuc.first, 0),
                      fmtDouble(withCallees.first, 0),
                      fmtDouble(withContexts.first, 0),
                      withContexts.second ? "CS" : "CI"});
        json.metric(name, "base", "slice_size", base.first);
        json.metric(name, "luc", "slice_size", withLuc.first);
        json.metric(name, "callee-sets", "slice_size",
                    withCallees.first);
        json.metric(name, "call-contexts", "slice_size",
                    withContexts.first);
    }

    std::printf("%s\n", table.str().c_str());
    std::printf("(cells are mean static slice sizes in instructions "
                "over all endpoints; stages add invariants "
                "cumulatively)\n");
    json.write();
    return 0;
}
