#include "analysis/race_detector.h"

#include <algorithm>
#include <deque>
#include <map>
#include <string>

#include "analysis/andersen_cache.h"
#include "analysis/callgraph.h"
#include "analysis/constraint_diff.h"
#include "analysis/lockset.h"
#include "analysis/mhp.h"
#include "support/thread_pool.h"

namespace oha::analysis {

namespace {

/** Compute the set of cells reachable by more than one thread. */
SparseBitSet
escapedCells(const ir::Module &module, const AndersenResult &andersen,
             const CallGraph &callGraph)
{
    SparseBitSet escaped;
    std::deque<CellId> work;

    auto escapeCell = [&](CellId cell) {
        if (escaped.insert(cell))
            work.push_back(cell);
    };
    auto escapeObjectOf = [&](CellId cell) {
        const AbsObjectId obj = andersen.memory.objectOfCell(cell);
        const AbsObject &o = andersen.memory.object(obj);
        for (std::uint32_t f = 0; f < o.size; ++f)
            escapeCell(o.baseCell + f);
    };

    // Seeds: every global cell, and everything a spawn argument may
    // point to.
    for (AbsObjectId obj = 0; obj < andersen.memory.numObjects(); ++obj) {
        const AbsObject &o = andersen.memory.object(obj);
        if (o.kind == AbsObjectKind::Global)
            for (std::uint32_t f = 0; f < o.size; ++f)
                escapeCell(o.baseCell + f);
    }
    for (InstrId site : callGraph.spawnSites()) {
        const ir::Instruction &spawn = module.instr(site);
        for (ir::Reg arg : spawn.args) {
            andersen.ptsAllContexts(spawn.func, arg)
                .forEach([&](CellId cell) { escapeObjectOf(cell); });
        }
    }

    // Closure: anything stored in an escaped cell escapes.
    while (!work.empty()) {
        const CellId cell = work.front();
        work.pop_front();
        andersen.cellPts(cell).forEach(
            [&](CellId target) { escapeObjectOf(target); });
    }
    return escaped;
}

/** A memory access worth considering: live, targets escape. */
struct Access
{
    InstrId id;
    bool isStore;
    SparseBitSet targets;
};

std::vector<Access>
collectAccesses(const ir::Module &module, const AndersenResult &pts,
                const SparseBitSet &escaped,
                const inv::InvariantSet *invariants)
{
    std::vector<Access> accesses;
    for (InstrId id = 0; id < module.numInstrs(); ++id) {
        const ir::Instruction &ins = module.instr(id);
        if (!ins.isMemAccess())
            continue;
        if (invariants && !invariants->blockVisited(ins.block))
            continue;
        SparseBitSet targets = pts.pointerTargets(id);
        targets.intersectWith(escaped);
        if (targets.empty())
            continue;
        accesses.push_back(
            {id, ins.op == ir::Opcode::Store, std::move(targets)});
    }
    return accesses;
}

/**
 * Likely-guarding-locks check for one candidate pair: true (and the
 * used alias pair reported through @p gA/@p gB) when some pair of
 * held locks must-alias under @p invariants.
 */
bool
pairGuarded(const LocksetAnalysis &locksets,
            const inv::InvariantSet &invariants, InstrId a, InstrId b,
            InstrId &gA, InstrId &gB)
{
    const auto &heldA = locksets.locksHeldAt(a);
    const auto &heldB = locksets.locksHeldAt(b);
    for (InstrId la : heldA) {
        for (InstrId lb : heldB) {
            if (invariants.locksMustAlias(la, lb)) {
                gA = std::min(la, lb);
                gB = std::max(la, lb);
                return true;
            }
        }
    }
    return false;
}

} // namespace

StaticRaceResult
runStaticRaceDetector(const ir::Module &module,
                      const inv::InvariantSet *invariants,
                      const std::shared_ptr<const ir::Module> &shared,
                      bool referenceSolver)
{
    OHA_ASSERT(!shared || shared.get() == &module,
               "shared must alias module");
    StaticRaceResult result;

    AndersenOptions ptsOptions;
    ptsOptions.invariants = invariants;
    ptsOptions.referenceSolver = referenceSolver;
    std::shared_ptr<const AndersenResult> memoized;
    if (shared)
        memoized = runAndersenMemo(shared, ptsOptions);
    const AndersenResult andersen =
        memoized ? AndersenResult() : runAndersen(module, ptsOptions);
    const AndersenResult &pts = memoized ? *memoized : andersen;
    result.workUnits += pts.workUnits;

    const CallGraph callGraph(module, pts, invariants);
    const MhpAnalysis mhp(module, pts, callGraph, invariants);
    const LocksetAnalysis locksets(module, pts, invariants);

    const SparseBitSet escaped = escapedCells(module, pts, callGraph);

    // Accesses worth considering: live loads/stores whose targets
    // include an escaped cell.
    const std::vector<Access> accesses =
        collectAccesses(module, pts, escaped, invariants);
    result.accessesConsidered = accesses.size();

    // Pair construction: alias ∧ MHP ∧ at least one write, then
    // lockset pruning (predicated only).  Rows of the upper-triangular
    // pair matrix are independent; run them batched and fold the
    // per-row findings in row order (every accumulator is a set or a
    // commutative sum, so the fold matches the serial double loop for
    // any thread count).
    struct RowFindings
    {
        std::uint64_t workUnits = 0;
        std::vector<std::pair<InstrId, InstrId>> candidatePairs;
        std::vector<std::pair<InstrId, InstrId>> racyPairs;
        std::vector<std::pair<InstrId, InstrId>> usedLockAliases;
    };
    const std::vector<RowFindings> rows = support::runBatch(
        accesses.size(), [&](std::size_t i) {
            RowFindings row;
            for (std::size_t j = i; j < accesses.size(); ++j) {
                ++row.workUnits;
                const Access &a = accesses[i];
                const Access &b = accesses[j];
                if (!a.isStore && !b.isStore)
                    continue;
                if (!a.targets.intersects(b.targets))
                    continue;
                if (!mhp.mayHappenInParallel(a.id, b.id))
                    continue;
                row.candidatePairs.push_back(
                    {std::min(a.id, b.id), std::max(a.id, b.id)});

                if (invariants) {
                    // Likely-guarding-locks pruning: some held pair
                    // must must-alias.
                    InstrId gA = kNoInstr, gB = kNoInstr;
                    if (pairGuarded(locksets, *invariants, a.id, b.id,
                                    gA, gB)) {
                        row.usedLockAliases.push_back({gA, gB});
                        continue;
                    }
                }

                row.racyPairs.push_back(
                    {std::min(a.id, b.id), std::max(a.id, b.id)});
            }
            return row;
        });
    for (const RowFindings &row : rows) {
        result.workUnits += row.workUnits;
        result.candidatePairs.insert(row.candidatePairs.begin(),
                                     row.candidatePairs.end());
        for (const auto &pair : row.racyPairs) {
            result.racyPairs.insert(pair);
            result.racyAccesses.insert(pair.first);
            result.racyAccesses.insert(pair.second);
        }
        result.usedLockAliases.insert(row.usedLockAliases.begin(),
                                      row.usedLockAliases.end());
    }

    // Record which singleton assumptions mattered: any invariant
    // singleton site that is not statically provable must be checked
    // at runtime.  (Checking all of them is cheap; we report the set
    // the MHP analysis consumed.)
    if (invariants) {
        for (InstrId site : invariants->singletonSpawnSites)
            if (mhp.singletonSites().count(site))
                result.usedSingletonSites.insert(site);
    }

    return result;
}

namespace {

/** (caller name, callee name) pairs of every resolved call/spawn
 *  connection — the function-level call structure MHP regions and
 *  escape seeding depend on. */
std::set<std::pair<std::string, std::string>>
callEdgeNames(const ir::Module &module, const AndersenResult &pts)
{
    std::set<std::pair<std::string, std::string>> names;
    for (const auto &[edge, calleeCtx] : pts.callEdges()) {
        const auto &[ctx, site, callee] = edge;
        (void)site;
        (void)calleeCtx;
        names.insert({module.function(pts.contexts[ctx].func)->name(),
                      module.function(callee)->name()});
    }
    return names;
}

/** True if any live Spawn/Join of @p module sits in a function the
 *  predicate rejects. */
template <typename Reject>
bool
spawnStructureRejected(const ir::Module &module,
                       const inv::InvariantSet *invariants,
                       const Reject &reject)
{
    for (InstrId id = 0; id < module.numInstrs(); ++id) {
        const ir::Instruction &ins = module.instr(id);
        if (ins.op != ir::Opcode::Spawn && ins.op != ir::Opcode::Join)
            continue;
        if (invariants && !invariants->blockVisited(ins.block))
            continue;
        if (reject(ins.func))
            return true;
    }
    return false;
}

/** True if anything spawns @p target or takes its address — the
 *  syntactic half of MhpAnalysis's re-entrancy test for the ordering
 *  function (the call-edge half is compared via the call graphs). */
bool
spawnsOrTakesAddressOf(const ir::Module &module, FuncId target)
{
    for (InstrId id = 0; id < module.numInstrs(); ++id) {
        const ir::Instruction &ins = module.instr(id);
        if ((ins.op == ir::Opcode::Spawn ||
             ins.op == ir::Opcode::FuncAddr) &&
            ins.callee == target)
            return true;
    }
    return false;
}

} // namespace

StaticRaceResult
runStaticRaceDetectorIncremental(
    const std::shared_ptr<const ir::Module> &module,
    const inv::InvariantSet *invariants,
    const RaceIncrementalInput &input, bool *usedIncremental)
{
    bool localUsed = false;
    if (!usedIncremental)
        usedIncremental = &localUsed;
    *usedIncremental = false;

    OHA_ASSERT(module && input.baseModule && input.baseRace &&
               input.diff);
    const ir::Module &next = *module;
    const ir::Module &base = *input.baseModule;
    const ConstraintDiff &diff = *input.diff;
    const inv::InvariantSet *baseInv = input.baseInvariants.get();

    auto fallback = [&] {
        return runStaticRaceDetector(next, invariants, module);
    };
    if (!diff.usable)
        return fallback();

    // Points-to for both versions through the memo: the next side
    // takes the lineage-patched incremental path; the base side is a
    // warm hit whenever the base detector's solve is still cached.
    AndersenOptions nextOptions;
    nextOptions.invariants = invariants;
    const std::shared_ptr<const AndersenResult> nextPts =
        runAndersenMemo(module, nextOptions);
    AndersenOptions baseOptions;
    baseOptions.invariants = baseInv;
    const std::shared_ptr<const AndersenResult> basePts =
        runAndersenMemo(input.baseModule, baseOptions);
    if (!nextPts->completed || !basePts->completed)
        return fallback();

    // Cross-version identity and the dirty region: functions whose
    // constraints, points-to values or invariant slice may differ.
    const VersionMap vmap = buildVersionMap(base, next);
    const std::vector<std::uint32_t> ctxMap = mapContexts(
        base, next, vmap, basePts->contexts, nextPts->contexts);
    const std::vector<CellId> cellMap =
        mapCells(basePts->memory, nextPts->memory, vmap, ctxMap);
    const std::vector<bool> dirty = unionDirtyClosure(
        base, *basePts, next, *nextPts, diff, baseInv, invariants);

    // ---- Global structure guards --------------------------------------
    // MHP verdicts for clean pairs carry over only when the global
    // thread structure is version-stable.  MHP never reads points-to
    // values directly, so the guards are body/invariant-slice level,
    // not node-taint level: the ordering (entry) function's body and
    // invariant slice are unchanged (regions depend on its spawn/join
    // positions), its re-entrancy determination is identical on both
    // sides, every live Spawn/Join sits in a body- and slice-stable
    // function, the function-level call structure is identical, and
    // the thread-escape set translates exactly.  Any drift falls back
    // to the full pair matrix (still cheap — the points-to phase above
    // was incremental).
    const std::set<std::string> seedNames = diff.seedNames();
    const ir::Function *nextMain = next.functionByName("main");
    const ir::Function *baseMain = base.functionByName("main");
    if (!nextMain || !baseMain ||
        !vmap.bodyUnchanged[baseMain->id()] ||
        vmap.funcMap[baseMain->id()] != nextMain->id() ||
        seedNames.count("main"))
        return fallback();
    if (spawnsOrTakesAddressOf(base, baseMain->id()) !=
        spawnsOrTakesAddressOf(next, nextMain->id()))
        return fallback();
    std::vector<char> nextUnchanged(dirty.size(), 0);
    for (FuncId f = 0; f < vmap.funcMap.size(); ++f)
        if (vmap.bodyUnchanged[f])
            nextUnchanged[vmap.funcMap[f]] = 1;
    auto baseFuncRejected = [&](FuncId f) {
        return !vmap.bodyUnchanged[f] ||
               seedNames.count(base.function(f)->name()) != 0;
    };
    auto nextFuncRejected = [&](FuncId f) {
        return !nextUnchanged[f] ||
               seedNames.count(next.function(f)->name()) != 0;
    };
    if (spawnStructureRejected(base, baseInv, baseFuncRejected) ||
        spawnStructureRejected(next, invariants, nextFuncRejected))
        return fallback();
    if (callEdgeNames(base, *basePts) != callEdgeNames(next, *nextPts))
        return fallback();

    const CallGraph baseCallGraph(base, *basePts, baseInv);
    const CallGraph callGraph(next, *nextPts, invariants);
    if (baseCallGraph.isCalleeSomewhere(baseMain->id()) !=
        callGraph.isCalleeSomewhere(nextMain->id()))
        return fallback();
    const SparseBitSet escapedBase =
        escapedCells(base, *basePts, baseCallGraph);
    const SparseBitSet escaped = escapedCells(next, *nextPts, callGraph);
    SparseBitSet escapedTranslated;
    if (!translateCellSet(escapedBase, cellMap, escapedTranslated) ||
        !(escapedTranslated == escaped))
        return fallback();

    // ---- Patched pair construction ------------------------------------
    StaticRaceResult result;
    result.workUnits += nextPts->workUnits;

    const MhpAnalysis mhp(next, *nextPts, callGraph, invariants);
    const LocksetAnalysis locksets(next, *nextPts, invariants);
    const std::vector<Access> accesses =
        collectAccesses(next, *nextPts, escaped, invariants);
    result.accessesConsidered = accesses.size();

    // Clean-pair candidates carry over from the base run, mapped
    // through the cross-version instruction map.
    std::set<std::pair<InstrId, InstrId>> candidates;
    for (const auto &[x, y] : input.baseRace->candidatePairs) {
        ++result.workUnits;
        const InstrId nx = vmap.instrMap[x];
        const InstrId ny = vmap.instrMap[y];
        if (nx == kNoInstr || ny == kNoInstr)
            continue;
        if (dirty[next.instr(nx).func] || dirty[next.instr(ny).func])
            continue;
        candidates.insert({std::min(nx, ny), std::max(nx, ny)});
    }
    // Pairs touching a dirty function are evaluated in full — this
    // rectangle (dirty × all) is the only surviving slice of the
    // O(accesses²) matrix.
    for (std::size_t i = 0; i < accesses.size(); ++i) {
        for (std::size_t j = i; j < accesses.size(); ++j) {
            const Access &a = accesses[i];
            const Access &b = accesses[j];
            if (!dirty[next.instr(a.id).func] &&
                !dirty[next.instr(b.id).func])
                continue;
            ++result.workUnits;
            if (!a.isStore && !b.isStore)
                continue;
            if (!a.targets.intersects(b.targets))
                continue;
            if (!mhp.mayHappenInParallel(a.id, b.id))
                continue;
            candidates.insert(
                {std::min(a.id, b.id), std::max(a.id, b.id)});
        }
    }

    // Lock-guard pruning depends on the NEW invariant set, so it is
    // re-evaluated for every candidate, clean or dirty.
    for (const auto &pair : candidates) {
        result.candidatePairs.insert(pair);
        if (invariants) {
            InstrId gA = kNoInstr, gB = kNoInstr;
            if (pairGuarded(locksets, *invariants, pair.first,
                            pair.second, gA, gB)) {
                result.usedLockAliases.insert({gA, gB});
                continue;
            }
        }
        result.racyPairs.insert(pair);
        result.racyAccesses.insert(pair.first);
        result.racyAccesses.insert(pair.second);
    }

    if (invariants) {
        for (InstrId site : invariants->singletonSpawnSites)
            if (mhp.singletonSites().count(site))
                result.usedSingletonSites.insert(site);
    }

    *usedIncremental = true;
    return result;
}

} // namespace oha::analysis
