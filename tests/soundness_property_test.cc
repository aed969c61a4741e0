/**
 * @file
 * Whole-system soundness properties, parameterized over benchmark
 * workloads.  These are the contracts the paper's correctness
 * argument rests on:
 *
 *  1. points-to soundness: every address dynamically touched by a
 *     load/store/lock is inside the access's static points-to set;
 *  2. static race soundness: every race FastTrack observes is a
 *     statically-reported may-race pair;
 *  3. static slice soundness: every dynamic slice is contained in the
 *     sound static slice of its endpoint.
 */

#include <gtest/gtest.h>

#include <map>

#include "analysis/race_detector.h"
#include "analysis/slicer.h"
#include "dyn/fasttrack.h"
#include "dyn/giri.h"
#include "dyn/plans.h"
#include "workloads/workloads.h"

namespace oha {
namespace {

/** Records (instr -> set of dynamic (allocSite|global, offset)). */
class AccessRecorder : public exec::Tool
{
  public:
    explicit AccessRecorder(exec::Interpreter &interp) : interp_(interp) {}

    void
    onEvent(const exec::EventCtx &ctx) override
    {
        switch (ctx.instr->op) {
          case ir::Opcode::Load:
          case ir::Opcode::Store:
          case ir::Opcode::Lock:
          case ir::Opcode::Unlock: {
            const InstrId site = interp_.objectAllocSite(ctx.obj);
            // Globals have object id == global id and no alloc site.
            observed_[ctx.instr->id].insert(
                {site, site == kNoInstr ? ctx.obj : 0, ctx.off});
            break;
          }
          default:
            break;
        }
    }

    struct DynTarget
    {
        InstrId allocSite;      ///< kNoInstr for globals
        std::uint32_t globalId; ///< valid when allocSite == kNoInstr
        std::uint32_t offset;

        bool
        operator<(const DynTarget &other) const
        {
            return std::tie(allocSite, globalId, offset) <
                   std::tie(other.allocSite, other.globalId,
                            other.offset);
        }
    };

    const std::map<InstrId, std::set<DynTarget>> &
    observed() const
    {
        return observed_;
    }

  private:
    exec::Interpreter &interp_;
    std::map<InstrId, std::set<DynTarget>> observed_;
};

/** True if the static target set covers the dynamic target. */
bool
covers(const analysis::AndersenResult &pts, const SparseBitSet &targets,
       const AccessRecorder::DynTarget &dyn)
{
    bool found = false;
    targets.forEach([&](analysis::CellId cell) {
        if (found)
            return;
        const auto obj = pts.memory.objectOfCell(cell);
        const auto &object = pts.memory.object(obj);
        const std::uint32_t field = pts.memory.fieldOfCell(cell);
        if (field != dyn.offset)
            return;
        if (dyn.allocSite == kNoInstr) {
            found = object.kind == analysis::AbsObjectKind::Global &&
                    object.srcId == dyn.globalId;
        } else {
            found = object.kind == analysis::AbsObjectKind::AllocSite &&
                    object.srcId == dyn.allocSite;
        }
    });
    return found;
}

class WorkloadSoundness : public ::testing::TestWithParam<std::string>
{
  protected:
    static workloads::Workload
    load(const std::string &name)
    {
        for (const auto &n : workloads::raceWorkloadNames())
            if (n == name)
                return workloads::makeRaceWorkload(name, 2, 3);
        return workloads::makeSliceWorkload(name, 2, 3);
    }
};

TEST_P(WorkloadSoundness, DynamicAccessesWithinStaticPointsTo)
{
    const auto workload = load(GetParam());
    const ir::Module &module = *workload.module;

    for (bool contextSensitive : {false, true}) {
        analysis::AndersenOptions options;
        options.contextSensitive = contextSensitive;
        // redis's sound CS solve clones 8,307 contexts: above the
        // pipelines' default budget, so pin one that lets it complete
        // and keeps it checked here.
        options.maxContexts = 20000;
        const auto pts = analysis::runAndersen(module, options);
        if (!pts.completed)
            continue;

        const auto plan = exec::InstrumentationPlan::all(module);
        exec::Interpreter interp(module, workload.testingSet.front());
        AccessRecorder recorder(interp);
        interp.attach(&recorder, &plan);
        ASSERT_TRUE(interp.run().finished());

        for (const auto &[instr, targets] : recorder.observed()) {
            const SparseBitSet staticTargets =
                pts.pointerTargets(instr);
            for (const auto &dyn : targets) {
                EXPECT_TRUE(covers(pts, staticTargets, dyn))
                    << GetParam() << (contextSensitive ? " CS" : " CI")
                    << ": access i" << instr
                    << " touched an address outside its points-to set";
            }
        }
    }
}

TEST_P(WorkloadSoundness, ObservedRacesAreStaticallyReported)
{
    const auto workload = load(GetParam());
    if (!workload.race)
        GTEST_SKIP() << "race property applies to the race suite";
    const ir::Module &module = *workload.module;

    const auto staticResult =
        analysis::runStaticRaceDetector(module, nullptr);
    const auto plan = dyn::fullFastTrackPlan(module);

    for (const auto &config : workload.testingSet) {
        dyn::FastTrack tool;
        exec::Interpreter interp(module, config);
        interp.attach(&tool, &plan);
        ASSERT_TRUE(interp.run().finished());
        for (const auto &pair : tool.racePairs()) {
            EXPECT_TRUE(staticResult.racyPairs.count(pair))
                << GetParam() << ": dynamic race (" << pair.first << ","
                << pair.second << ") missed by the sound detector";
        }
    }
}

TEST_P(WorkloadSoundness, DynamicSlicesWithinSoundStaticSlices)
{
    const auto workload = load(GetParam());
    if (workload.race)
        GTEST_SKIP() << "slice property applies to the slicing suite";
    const ir::Module &module = *workload.module;

    const auto pts = analysis::runAndersen(module, {});
    const analysis::StaticSlicer slicer(module, pts, {});
    const auto plan = dyn::fullGiriPlan(module);

    dyn::GiriSlicer tool(module);
    exec::Interpreter interp(module, workload.testingSet.front());
    interp.attach(&tool, &plan);
    ASSERT_TRUE(interp.run().finished());

    for (InstrId id = 0; id < module.numInstrs(); ++id) {
        if (module.instr(id).op != ir::Opcode::Output)
            continue;
        const auto staticSlice = slicer.slice(id);
        ASSERT_TRUE(staticSlice.completed);
        for (InstrId dynamicInstr : tool.slice(id)) {
            EXPECT_TRUE(staticSlice.instructions.count(dynamicInstr))
                << GetParam() << ": dynamic slice of endpoint " << id
                << " contains i" << dynamicInstr
                << " missing from the sound static slice";
        }
    }
}

std::vector<std::string>
allNames()
{
    std::vector<std::string> names = workloads::raceWorkloadNames();
    for (const auto &n : workloads::sliceWorkloadNames())
        names.push_back(n);
    return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadSoundness, ::testing::ValuesIn(allNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace oha
