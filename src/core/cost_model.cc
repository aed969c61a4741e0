#include "core/cost_model.h"

#include <algorithm>

namespace oha::core {

namespace {

using exec::EventClass;

double
invariantCost(const CostModel &model, const exec::EventCounts &checker,
              std::uint64_t slowContextChecks)
{
    double cost = 0;
    cost += double(checker[EventClass::BlockEnter]) * model.lucCheck;
    // Call-class checker events are callee-set probes and/or context
    // pushes; Ret events are context pops.
    cost += double(checker[EventClass::Call]) *
            std::max(model.calleeCheck, model.contextCheckFast);
    cost += double(checker[EventClass::Ret]) * model.contextCheckFast;
    cost += double(checker[EventClass::Lock]) * model.lockCheck;
    cost += double(checker[EventClass::Spawn]) * model.spawnCheck;
    cost += double(slowContextChecks) * model.contextCheckSlow;
    return cost;
}

} // namespace

RunCost
priceFastTrackRun(const CostModel &model, const exec::RunResult &run,
                  const exec::EventCounts &ftDelivered,
                  const exec::EventCounts *checker,
                  std::uint64_t slowContextChecks)
{
    RunCost cost;
    cost.base = double(run.steps) * model.baseInstr;

    const auto &total = run.totalEvents;
    const std::uint64_t intercepted =
        total[EventClass::Load] + total[EventClass::Store] +
        total[EventClass::Lock] + total[EventClass::Unlock] +
        total[EventClass::Spawn] + total[EventClass::Join];
    cost.framework = double(intercepted) * model.framework;

    cost.analysis =
        double(ftDelivered[EventClass::Load] +
               ftDelivered[EventClass::Store]) *
            model.ftMemCheck +
        double(ftDelivered[EventClass::Lock] +
               ftDelivered[EventClass::Unlock] +
               ftDelivered[EventClass::Spawn] +
               ftDelivered[EventClass::Join]) *
            model.ftSync;

    if (checker)
        cost.invariants = invariantCost(model, *checker,
                                        slowContextChecks);
    return cost;
}

RunCost
priceGiriRun(const CostModel &model, const exec::RunResult &run,
             const exec::EventCounts &giriDelivered,
             const exec::EventCounts *checker,
             std::uint64_t slowContextChecks)
{
    RunCost cost;
    cost.base = double(run.steps) * model.baseInstr;
    cost.analysis = double(giriDelivered.total()) * model.giriEvent;
    if (checker)
        cost.invariants = invariantCost(model, *checker,
                                        slowContextChecks);
    return cost;
}

} // namespace oha::core
