#include "profile/profiler.h"

#include <algorithm>

#include "profile/profilers.h"
#include "support/thread_pool.h"

namespace oha::prof {

ProfilingCampaign::ProfilingCampaign(const ir::Module &module,
                                     ProfileOptions options)
    : module_(module), options_(options),
      plan_(observerPlan(module, options.callContexts))
{
    invariants_.numBlocks = static_cast<std::uint32_t>(module.numBlocks());
    invariants_.hasCallContexts = options.callContexts;
}

bool
ProfilingCampaign::mergeLockObservations(
    const std::vector<std::pair<InstrId, std::vector<exec::ObjectId>>>
        &objects)
{
    // A pair (a, b) is a must-alias candidate in this run if both
    // sites locked exactly one object and it was the same one; it is
    // violated if either site locked several objects or the two
    // singleton objects differ.  Reflexive pairs (a, a) capture
    // "site always locks a single object".  mustAliasLocks stays
    // candidates minus violated, updated only where a pair is new to
    // either set.
    bool changed = false;
    for (std::size_t a = 0; a < objects.size(); ++a) {
        for (std::size_t b = a; b < objects.size(); ++b) {
            const auto pair =
                std::make_pair(objects[a].first, objects[b].first);
            const bool bothSingle = objects[a].second.size() == 1 &&
                                    objects[b].second.size() == 1;
            if (bothSingle &&
                objects[a].second.front() == objects[b].second.front()) {
                if (lockCandidates_.insert(pair).second &&
                    !lockViolated_.count(pair))
                    changed |= invariants_.mustAliasLocks.insert(pair).second;
            } else if (lockViolated_.insert(pair).second) {
                changed |= invariants_.mustAliasLocks.erase(pair) != 0;
            }
        }
    }
    return changed;
}

inv::InvariantSet
ProfilingCampaign::invariantsWithAggressiveLuc(
    std::uint64_t minVisits) const
{
    inv::InvariantSet aggressive = invariants_;
    if (minVisits <= 1)
        return aggressive;
    aggressive.visitedBlocks.clear();
    for (const auto &[block, count] : blockCounts_)
        if (count >= minVisits)
            aggressive.visitedBlocks.insert(block);
    return aggressive;
}

RunObservations
RunObserver::takeObservations(const exec::RunResult &result)
{
    RunObservations run;
    for (std::size_t block = 0; block < blockCounts_.size(); ++block)
        if (blockCounts_[block])
            run.blockCounts.push_back(
                {static_cast<BlockId>(block), blockCounts_[block]});

    run.calleeSets.reserve(callees_.size());
    callees_.forEach(
        [&](std::uint64_t site, const std::vector<FuncId> &funcs) {
            run.calleeSets.push_back({static_cast<InstrId>(site), funcs});
        });
    std::sort(run.calleeSets.begin(), run.calleeSets.end());

    run.callContexts = std::move(contexts_);

    run.lockObjects.reserve(objects_.size());
    objects_.forEach(
        [&](std::uint64_t site, const std::vector<exec::ObjectId> &objs) {
            run.lockObjects.push_back({static_cast<InstrId>(site), objs});
        });
    std::sort(run.lockObjects.begin(), run.lockObjects.end());

    run.spawnCounts.reserve(spawns_.size());
    spawns_.forEach([&](std::uint64_t site, std::uint64_t count) {
        run.spawnCounts.push_back({static_cast<InstrId>(site), count});
    });
    std::sort(run.spawnCounts.begin(), run.spawnCounts.end());

    run.steps = result.steps;
    run.status = result.status;
    return run;
}

exec::InstrumentationPlan
observerPlan(const ir::Module &module, bool callContexts)
{
    exec::InstrumentationPlan plan = exec::InstrumentationPlan::none(module);
    for (BlockId block = 0; block < module.numBlocks(); ++block)
        plan.setBlock(block, true);
    for (InstrId id = 0; id < module.numInstrs(); ++id) {
        switch (module.instr(id).op) {
          case ir::Opcode::ICall:
          case ir::Opcode::Lock:
          case ir::Opcode::Spawn:
            plan.setInstr(id, true);
            break;
          case ir::Opcode::Call:
          case ir::Opcode::Ret:
            plan.setInstr(id, callContexts);
            break;
          default:
            break;
        }
    }
    return plan;
}

RunObservations
ProfilingCampaign::observeRun(const exec::ExecConfig &config) const
{
    RunObserver observer(options_.callContexts);
    exec::Interpreter interp(module_, config);
    interp.attach(&observer, &plan_);
    return observer.takeObservations(interp.run());
}

bool
ProfilingCampaign::mergeRun(const RunObservations &run)
{
    if (run.status != exec::RunResult::Status::Finished) {
        OHA_WARN("profiling run did not finish cleanly (status %d)",
                 static_cast<int>(run.status));
    }

    profiledSteps_ += run.steps;
    runSteps_.push_back(run.steps);

    // Reachable-style invariants: union.  Change is detected from the
    // insert results.
    bool changed = false;
    for (const auto &[block, count] : run.blockCounts) {
        changed |= invariants_.visitedBlocks.insert(block);
        blockCounts_[block] += count;
    }
    for (const auto &[site, funcs] : run.calleeSets) {
        std::set<FuncId> &known = invariants_.calleeSets[site];
        for (FuncId func : funcs)
            changed |= known.insert(func).second;
    }
    if (options_.callContexts)
        changed |= invariants_.callContexts.merge(run.callContexts);

    // Constraint-style invariants: survive only if never violated.
    changed |= mergeLockObservations(run.lockObjects);

    // A site is a singleton while its maximum per-run spawn count is
    // exactly one.
    for (const auto &[site, count] : run.spawnCounts) {
        auto &maxCount = maxSpawnCounts_[site];
        const bool wasSingleton = maxCount == 1;
        maxCount = std::max(maxCount, count);
        if (wasSingleton != (maxCount == 1)) {
            if (wasSingleton)
                invariants_.singletonSpawnSites.erase(site);
            else
                invariants_.singletonSpawnSites.insert(site);
            changed = true;
        }
    }
    return changed;
}

bool
ProfilingCampaign::addRun(const exec::ExecConfig &config)
{
    return mergeRun(observeRun(config));
}

std::size_t
ProfilingCampaign::addRunsUntilConverged(
    const std::vector<exec::ExecConfig> &inputs, std::size_t maxRuns,
    std::size_t convergenceWindow, const Observer &observe)
{
    const std::size_t threads = support::configuredThreads(options_.threads);
    std::size_t unchanged = 0;
    std::size_t consumed = 0;
    while (consumed < inputs.size() && numRuns() < maxRuns &&
           unchanged < convergenceWindow) {
        // Observe one batch of runs concurrently, then merge them in
        // input order.  The batch never reaches past the convergence
        // point: the window can close only on its last run, so every
        // observed run is merged, at any thread count.
        const std::size_t batch =
            std::min({threads, inputs.size() - consumed,
                      maxRuns - numRuns(), convergenceWindow - unchanged});
        const std::size_t base = consumed;
        const auto observations = support::runBatch(
            batch,
            [&, base](std::size_t i)
                -> std::shared_ptr<const RunObservations> {
                const exec::ExecConfig &input = inputs[base + i];
                return observe ? observe(input)
                               : std::make_shared<const RunObservations>(
                                     observeRun(input));
            },
            threads);
        for (const auto &run : observations)
            unchanged = mergeRun(*run) ? 0 : unchanged + 1;
        consumed += batch;
    }
    return numRuns();
}

} // namespace oha::prof
