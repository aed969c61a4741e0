#include "dyn/fault_injector.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "profile/profiler.h"
#include "support/rng.h"

namespace oha::dyn {

std::string
FaultInjection::describe() const
{
    std::string out = "inject ";
    out += violationFamilyName(family);
    out += " @ site " + std::to_string(site);
    if (partner != kNoInstr && partner != site)
        out += " / " + std::to_string(partner);
    if (detail)
        out += " (detail " + std::to_string(detail) + ")";
    return out;
}

std::uint64_t
faultSeedFromEnv()
{
    const char *env = std::getenv("OHA_FAULT_SEED");
    if (!env || !*env)
        return 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(env, &end, 10);
    if (end == env || (end && *end))
        return 0;
    return static_cast<std::uint64_t>(value);
}

FaultInjector::FaultInjector(const ir::Module &module,
                             FaultInjectorOptions options)
    : module_(module), options_(std::move(options))
{
}

std::uint64_t
countIoOps(const std::function<void()> &body)
{
    support::disarmIoFault();
    support::resetIoOpCount();
    body();
    return support::ioOpCount();
}

std::vector<support::IoFaultPlan>
pickIoFaultPoints(std::uint64_t opCount, std::size_t maxPoints,
                  std::uint64_t seed, std::uint32_t opMask, bool crash)
{
    std::vector<support::IoFaultPlan> points;
    if (opCount == 0 || maxPoints == 0)
        return points;

    std::set<std::uint64_t> chosen;
    if (opCount <= maxPoints) {
        for (std::uint64_t k = 0; k < opCount; ++k)
            chosen.insert(k);
    } else {
        // Always probe the edges; fill the rest from the seed.
        chosen.insert(0);
        chosen.insert(opCount - 1);
        Rng rng(seed ^ 0x10fa0175u);
        while (chosen.size() < maxPoints)
            chosen.insert(rng.below(opCount));
    }
    points.reserve(chosen.size());
    for (std::uint64_t k : chosen) {
        support::IoFaultPlan point;
        point.failAfter = k;
        point.opMask = opMask;
        point.crash = crash;
        points.push_back(point);
    }
    return points;
}

namespace {

/** Everything the corpus observably does, aggregated across runs. */
struct CorpusObservations
{
    std::set<BlockId> blocks;
    std::map<InstrId, std::set<FuncId>> calleeTargets;
    std::set<inv::CallContext> contexts;
    /** Sites binding >= 2 distinct objects within a single run. */
    std::set<InstrId> rebindSites;
    /** Normalized (a < b) site pairs observed bound to different
     *  single objects within the same run. */
    std::set<std::pair<InstrId, InstrId>> divergingPairs;
    /** Sites spawning >= 2 threads within a single run. */
    std::set<InstrId> multiSpawnSites;
};

CorpusObservations
observeCorpus(const ir::Module &module, bool wantContexts,
              const std::vector<exec::ExecConfig> &corpus,
              const prof::Observer &observe)
{
    prof::ProfileOptions options;
    options.callContexts = wantContexts;
    options.threads = 1;
    const prof::ProfilingCampaign campaign(module, options);

    CorpusObservations out;
    for (const exec::ExecConfig &input : corpus) {
        const std::shared_ptr<const prof::RunObservations> observed =
            observe ? observe(input)
                    : std::make_shared<const prof::RunObservations>(
                          campaign.observeRun(input));
        const prof::RunObservations &run = *observed;
        for (const auto &[block, count] : run.blockCounts)
            if (count > 0)
                out.blocks.insert(block);
        for (const auto &[site, targets] : run.calleeSets)
            out.calleeTargets[site].insert(targets.begin(), targets.end());
        out.contexts.insert(run.callContexts.begin(),
                            run.callContexts.end());

        // Per-run single-object bindings feed the divergence pairs;
        // multi-object sites are rebinds in their own right.
        std::vector<std::pair<InstrId, exec::ObjectId>> singleBound;
        for (const auto &[site, objects] : run.lockObjects) {
            std::set<exec::ObjectId> distinct(objects.begin(),
                                              objects.end());
            if (distinct.size() >= 2)
                out.rebindSites.insert(site);
            else if (distinct.size() == 1)
                singleBound.emplace_back(site, *distinct.begin());
        }
        for (std::size_t i = 0; i < singleBound.size(); ++i) {
            for (std::size_t j = i + 1; j < singleBound.size(); ++j) {
                if (singleBound[i].second == singleBound[j].second)
                    continue;
                InstrId a = singleBound[i].first;
                InstrId b = singleBound[j].first;
                if (a > b)
                    std::swap(a, b);
                out.divergingPairs.insert({a, b});
            }
        }

        for (const auto &[site, count] : run.spawnCounts)
            if (count >= 2)
                out.multiSpawnSites.insert(site);
    }
    return out;
}

/** Pick one element of a sorted candidate vector, seed-deterministic. */
template <typename T>
const T *
pick(const std::vector<T> &candidates, Rng &rng)
{
    if (candidates.empty())
        return nullptr;
    return &candidates[rng.below(candidates.size())];
}

} // namespace

bool
FaultInjector::wantsCallContexts() const
{
    return std::find(options_.families.begin(), options_.families.end(),
                     ViolationFamily::CallContext) != options_.families.end();
}

std::vector<FaultInjection>
FaultInjector::inject(inv::InvariantSet &invariants,
                      const std::vector<exec::ExecConfig> &corpus,
                      const prof::Observer &observe) const
{
    const CorpusObservations seen =
        observeCorpus(module_, wantsCallContexts(), corpus, observe);

    Rng rng(options_.seed);
    std::vector<FaultInjection> applied;

    for (ViolationFamily family : options_.families) {
        switch (family) {
          case ViolationFamily::UnreachableBlock: {
            // Un-visit a block the corpus executes: the checker hooks
            // it as likely-unreachable and must fire.
            std::vector<BlockId> candidates;
            for (BlockId block : seen.blocks)
                if (invariants.blockVisited(block))
                    candidates.push_back(block);
            if (const BlockId *block = pick(candidates, rng)) {
                invariants.visitedBlocks.erase(*block);
                applied.push_back({family, *block, kNoInstr, 0});
            }
            break;
          }
          case ViolationFamily::CalleeSet: {
            // Drop a callee the corpus resolves at a checked site.
            std::vector<std::pair<InstrId, FuncId>> candidates;
            for (const auto &[site, targets] : seen.calleeTargets) {
                auto it = invariants.calleeSets.find(site);
                if (it == invariants.calleeSets.end())
                    continue;
                for (FuncId target : targets)
                    if (it->second.count(target))
                        candidates.push_back({site, target});
            }
            if (const auto *cand = pick(candidates, rng)) {
                invariants.calleeSets[cand->first].erase(cand->second);
                applied.push_back(
                    {family, cand->first, kNoInstr, cand->second});
            }
            break;
          }
          case ViolationFamily::CallContext: {
            // Forget a context the corpus pushes.  Only chains the
            // invariant set actually holds are viable (the checker
            // compares against the profiled hashes).
            if (!invariants.hasCallContexts)
                break;
            std::vector<inv::CallContext> candidates;
            for (const inv::CallContext &context : seen.contexts)
                if (!context.empty() &&
                    invariants.callContexts.count(context))
                    candidates.push_back(context);
            if (const inv::CallContext *context = pick(candidates, rng)) {
                invariants.callContexts.erase(*context);
                invariants.rehashContexts();
                applied.push_back({family, context->back(), kNoInstr,
                                   inv::contextHash(*context)});
            }
            break;
          }
          case ViolationFamily::MustAliasLock: {
            // Assert must-alias where the corpus observably disagrees:
            // prefer a site that re-binds within one run (reflexive
            // pair), else a pair of sites bound to different objects.
            std::vector<std::pair<InstrId, InstrId>> candidates;
            for (InstrId site : seen.rebindSites)
                if (!invariants.mustAliasLocks.count({site, site}))
                    candidates.push_back({site, site});
            if (candidates.empty()) {
                for (const auto &pair : seen.divergingPairs)
                    if (!invariants.mustAliasLocks.count(pair))
                        candidates.push_back(pair);
            }
            if (const auto *pair = pick(candidates, rng)) {
                invariants.mustAliasLocks.insert(*pair);
                applied.push_back({family, pair->first, pair->second, 0});
            }
            break;
          }
          case ViolationFamily::SingletonSpawn: {
            // Assert spawn-once at a site the corpus spawns from twice.
            std::vector<InstrId> candidates;
            for (InstrId site : seen.multiSpawnSites)
                if (!invariants.singletonSpawnSites.count(site))
                    candidates.push_back(site);
            if (const InstrId *site = pick(candidates, rng)) {
                invariants.singletonSpawnSites.insert(*site);
                applied.push_back({family, *site, kNoInstr, 0});
            }
            break;
          }
          case ViolationFamily::None:
          case ViolationFamily::ElidedLockRace:
            break; // not injectable at the invariant level
        }
    }
    return applied;
}

} // namespace oha::dyn
