#include "analysis/race_detector.h"

#include <algorithm>
#include <deque>

#include "analysis/andersen_cache.h"
#include "analysis/callgraph.h"
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

} // namespace oha::analysis
