/**
 * @file
 * Full FastTrack as a test oracle.  The pipelines never run the
 * full-FastTrack plan: OptFT prices that baseline from each run's
 * totalEvents and takes the reference races from the sound hybrid
 * run, and lock-elision calibration validates its trials against the
 * hybrid run.  Both rest on two facts, checked here against standalone
 * full-plan runs of every race program's testing and calibration
 * inputs:
 *  - the hybrid plan reports exactly the full plan's races, because
 *    the sound static detector keeps every access that can race;
 *  - the full plan's tool is delivered exactly the run's totalEvents
 *    of the six classes FastTrack is priced on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/race_detector.h"
#include "core/optft.h"
#include "dyn/fasttrack.h"
#include "dyn/plans.h"
#include "exec/interpreter.h"
#include "workloads/workloads.h"

namespace oha {
namespace {

using exec::EventClass;

/** The classes priceFastTrackRun reads from a FastTrack tool. */
constexpr EventClass kFastTrackClasses[] = {
    EventClass::Load, EventClass::Store, EventClass::Lock,
    EventClass::Unlock, EventClass::Spawn, EventClass::Join,
};

struct StandaloneRun
{
    exec::RunResult result;
    std::set<std::pair<InstrId, InstrId>> races;
};

/** One run of @p input with a lone FastTrack tool under @p plan. */
StandaloneRun
runFastTrack(const ir::Module &module, const exec::ExecConfig &input,
             const exec::InstrumentationPlan &plan)
{
    dyn::FastTrack tool;
    exec::Interpreter run(module, input);
    run.attach(&tool, &plan);
    StandaloneRun out{run.run(), {}};
    out.races = tool.racePairs();
    return out;
}

TEST(FullFastTrackOracle, HybridRacesAndTotalEventsMatchFullOnEveryInput)
{
    const std::size_t calibrationRuns =
        core::OptFtConfig{}.customSyncCalibrationRuns;
    std::size_t racyInputs = 0;
    for (const std::string &name : workloads::raceWorkloadNames()) {
        const auto workload = workloads::makeRaceWorkload(name, 8, 4);
        const ir::Module &module = *workload.module;
        const auto sound = analysis::runStaticRaceDetector(module, nullptr);
        const auto fullPlan = dyn::fullFastTrackPlan(module);
        const auto hybridPlan =
            dyn::hybridFastTrackPlan(module, sound.racyAccesses);

        std::vector<std::pair<std::string, const exec::ExecConfig *>>
            inputs;
        for (std::size_t i = 0; i < workload.testingSet.size(); ++i)
            inputs.emplace_back(name + " testing " + std::to_string(i),
                                &workload.testingSet[i]);
        const std::size_t calibration =
            std::min(calibrationRuns, workload.profilingSet.size());
        for (std::size_t i = 0; i < calibration; ++i)
            inputs.emplace_back(name + " calibration " + std::to_string(i),
                                &workload.profilingSet[i]);

        for (const auto &[label, input] : inputs) {
            const StandaloneRun full = runFastTrack(module, *input, fullPlan);
            const StandaloneRun hybrid =
                runFastTrack(module, *input, hybridPlan);
            ASSERT_TRUE(full.result.finished()) << label;
            EXPECT_EQ(hybrid.races, full.races) << label;
            for (const EventClass cls : kFastTrackClasses) {
                EXPECT_EQ(full.result.delivered[0][cls],
                          full.result.totalEvents[cls])
                    << label << " event class " << int(cls);
            }
            racyInputs += !full.races.empty();
        }
    }
    EXPECT_GT(racyInputs, 0u) << "no input raced: the race check is vacuous";
}

} // namespace
} // namespace oha
