#include "analysis/constraint_diff.h"

#include <algorithm>
#include <deque>
#include <map>
#include <tuple>

namespace oha::analysis {

namespace {

bool
blockLive(const inv::InvariantSet *inv, const ir::BasicBlock &block)
{
    return !inv || inv->blockVisited(block.id());
}

bool
generatesConstraint(ir::Opcode op)
{
    switch (op) {
      case ir::Opcode::Alloc:
      case ir::Opcode::GlobalAddr:
      case ir::Opcode::FuncAddr:
      case ir::Opcode::Assign:
      case ir::Opcode::Gep:
      case ir::Opcode::Load:
      case ir::Opcode::Store:
      case ir::Opcode::Call:
      case ir::Opcode::ICall:
      case ir::Opcode::Spawn:
      case ir::Opcode::Join:
      case ir::Opcode::Ret:
        return true;
      default:
        return false;
    }
}

std::size_t
countConstraints(const ir::Module &module, const std::string &name,
                 const inv::InvariantSet *inv)
{
    const ir::Function *func = module.functionByName(name);
    if (!func)
        return 0;
    std::size_t count = 0;
    for (const auto &block : func->blocks()) {
        if (!blockLive(inv, *block))
            continue;
        for (const ir::Instruction &instr : block->instructions())
            if (generatesConstraint(instr.op))
                ++count;
    }
    return count;
}

bool
hasLiveSpawnOrJoin(const ir::Module &module, const std::string &name,
                   const inv::InvariantSet *inv)
{
    const ir::Function *func = module.functionByName(name);
    if (!func)
        return false;
    for (const auto &block : func->blocks()) {
        if (!blockLive(inv, *block))
            continue;
        for (const ir::Instruction &instr : block->instructions())
            if (instr.op == ir::Opcode::Spawn ||
                instr.op == ir::Opcode::Join)
                return true;
    }
    return false;
}

/**
 * Per-function slice of an invariant set, expressed in next-side ids
 * so the base summary (translated through the VersionMap) and the
 * next summary compare directly.  kNoInstr / kNoFunc mark facts whose
 * ids do not translate (they reference changed functions); the next
 * side never contains those sentinels, so any untranslatable fact
 * makes the summaries differ, which is the conservative outcome.
 */
struct InvariantSlice
{
    std::vector<char> blockBits;
    std::map<InstrId, std::set<FuncId>> callees;
    std::set<InstrId> singletons;
    std::set<InstrId> elidable;
    std::set<std::pair<InstrId, InstrId>> lockAliases;

    bool
    operator==(const InvariantSlice &other) const
    {
        return blockBits == other.blockBits && callees == other.callees &&
               singletons == other.singletons &&
               elidable == other.elidable &&
               lockAliases == other.lockAliases;
    }
};

/**
 * Build per-function invariant slices for @p module under @p inv.
 * @p toNextInstr / @p toNextFunc translate ids into next-side space
 * (identity for the next module itself).
 */
std::map<std::string, InvariantSlice>
invariantSlices(const ir::Module &module, const inv::InvariantSet &inv,
                const std::vector<InstrId> *toNextInstr,
                const std::vector<FuncId> *toNextFunc)
{
    auto mapInstr = [&](InstrId id) {
        return toNextInstr ? (*toNextInstr)[id] : id;
    };
    auto mapFunc = [&](FuncId id) {
        return toNextFunc ? (*toNextFunc)[id] : id;
    };

    std::map<std::string, InvariantSlice> slices;
    for (const auto &func : module.functions()) {
        InvariantSlice &slice = slices[func->name()];
        for (const auto &block : func->blocks())
            slice.blockBits.push_back(inv.blockVisited(block->id()) ? 1 : 0);
    }
    for (const auto &[site, targets] : inv.calleeSets) {
        const ir::Instruction &instr = module.instr(site);
        InvariantSlice &slice =
            slices[module.function(instr.func)->name()];
        std::set<FuncId> mapped;
        for (FuncId target : targets)
            mapped.insert(mapFunc(target));
        slice.callees[mapInstr(site)] = std::move(mapped);
    }
    for (InstrId site : inv.singletonSpawnSites) {
        const ir::Instruction &instr = module.instr(site);
        slices[module.function(instr.func)->name()].singletons.insert(
            mapInstr(site));
    }
    for (InstrId site : inv.elidableLockSites) {
        const ir::Instruction &instr = module.instr(site);
        slices[module.function(instr.func)->name()].elidable.insert(
            mapInstr(site));
    }
    for (const auto &[a, b] : inv.mustAliasLocks) {
        InstrId ma = mapInstr(a);
        InstrId mb = mapInstr(b);
        if (ma > mb)
            std::swap(ma, mb);
        const std::pair<InstrId, InstrId> pair{ma, mb};
        slices[module.function(module.instr(a).func)->name()]
            .lockAliases.insert(pair);
        slices[module.function(module.instr(b).func)->name()]
            .lockAliases.insert(pair);
    }
    return slices;
}

} // namespace

VersionMap
buildVersionMap(const ir::Module &base, const ir::Module &next)
{
    VersionMap map;
    map.funcMap.assign(base.numFunctions(), kNoFunc);
    map.bodyUnchanged.assign(base.numFunctions(), 0);
    map.instrMap.assign(base.numInstrs(), kNoInstr);
    map.blockMap.assign(base.numBlocks(), kNoBlock);

    for (const auto &func : base.functions()) {
        const ir::Function *other = next.functionByName(func->name());
        if (!other)
            continue;
        map.funcMap[func->id()] = other->id();
        if (base.functionFingerprint(func->id()) !=
            next.functionFingerprint(other->id()))
            continue;
        // Identical canonical text implies identical shape; the checks
        // below only guard against a (dual-64-bit) fingerprint
        // collision, in which case the function is treated as changed.
        const auto &baseBlocks = func->blocks();
        const auto &nextBlocks = other->blocks();
        if (baseBlocks.size() != nextBlocks.size())
            continue;
        bool shapeOk = true;
        for (std::size_t i = 0; i < baseBlocks.size() && shapeOk; ++i)
            shapeOk = baseBlocks[i]->instructions().size() ==
                      nextBlocks[i]->instructions().size();
        if (!shapeOk)
            continue;
        map.bodyUnchanged[func->id()] = 1;
        for (std::size_t i = 0; i < baseBlocks.size(); ++i) {
            map.blockMap[baseBlocks[i]->id()] = nextBlocks[i]->id();
            const auto &baseInstrs = baseBlocks[i]->instructions();
            const auto &nextInstrs = nextBlocks[i]->instructions();
            for (std::size_t j = 0; j < baseInstrs.size(); ++j)
                map.instrMap[baseInstrs[j].id] = nextInstrs[j].id;
        }
    }
    return map;
}

ConstraintDiff
lowerToConstraints(const ir::Module &base, const ir::Module &next,
                   const ir::ModuleDiff &diff,
                   const inv::InvariantSet *baseInv,
                   const inv::InvariantSet *nextInv)
{
    ConstraintDiff lowered;
    lowered.structural = diff;
    lowered.globalsChanged = diff.globalsChanged;
    lowered.hasCallContextsEither =
        (baseInv && baseInv->hasCallContexts) ||
        (nextInv && nextInv->hasCallContexts);
    lowered.seeds.insert(diff.changed.begin(), diff.changed.end());

    const bool mixedPredication = (baseInv == nullptr) != (nextInv == nullptr);
    if (baseInv && nextInv) {
        const VersionMap map = buildVersionMap(base, next);
        const auto baseSlices =
            invariantSlices(base, *baseInv, &map.instrMap, &map.funcMap);
        const auto nextSlices =
            invariantSlices(next, *nextInv, nullptr, nullptr);
        for (const std::string &name : diff.unchanged) {
            const auto baseIt = baseSlices.find(name);
            const auto nextIt = nextSlices.find(name);
            const bool equal = baseIt != baseSlices.end() &&
                               nextIt != nextSlices.end() &&
                               baseIt->second == nextIt->second;
            if (!equal)
                lowered.seeds.insert(name);
        }
    }

    const std::set<std::string> seedNames = lowered.seedNames();
    for (const std::string &name : seedNames) {
        lowered.constraintsRemoved += countConstraints(base, name, baseInv);
        lowered.constraintsAdded += countConstraints(next, name, nextInv);
        if (hasLiveSpawnOrJoin(base, name, baseInv) ||
            hasLiveSpawnOrJoin(next, name, nextInv))
            lowered.spawnStructureTouched = true;
    }

    lowered.usable = !lowered.globalsChanged && !mixedPredication;
    return lowered;
}

NodeTaint
nodeTaintClosure(const ir::Module &module, const AndersenResult &pts,
                 const ConstraintDiff &diff, const inv::InvariantSet *inv)
{
    NodeTaint taint;
    const std::size_t numCtxs = pts.contexts.size();
    taint.regs.resize(numCtxs);

    // Private node space: cells first, then numRegs+1 slots per
    // context instance (the last one the return node).
    const std::uint32_t numCells = pts.memory.numCells();
    std::vector<std::uint32_t> nodeBase(numCtxs, 0);
    std::uint32_t total = numCells;
    for (const ContextInstance &ctx : pts.contexts) {
        nodeBase[ctx.id] = total;
        total += module.function(ctx.func)->numRegs() + 1;
    }
    auto reg = [&](std::uint32_t ctx, ir::Reg r) {
        return nodeBase[ctx] + r;
    };
    auto ret = [&](std::uint32_t ctx) {
        return nodeBase[ctx] +
               module.function(pts.contexts[ctx].func)->numRegs();
    };

    // The closure only ever visits the tainted region, which a small
    // edit keeps small — so the value-flow graph is materialized on
    // demand, one context at a time, instead of eagerly for the whole
    // module.  The edge *relation* is identical to an eager build; only
    // construction order differs, so the reachable set is unchanged.
    std::vector<std::vector<std::uint32_t>> out(total);
    auto edge = [&](std::uint32_t from, std::uint32_t to) {
        if (from != to)
            out[from].push_back(to);
    };

    std::vector<char> mark(total, 0);
    std::deque<std::uint32_t> queue;
    auto push = [&](std::uint32_t node) {
        if (!mark[node]) {
            mark[node] = 1;
            queue.push_back(node);
        }
    };

    // Cheap O(instructions) indexes — none of these walk a pts set.
    // Call edges grouped by (caller context, site), and reversed so a
    // callee context finds its return-value destinations.
    std::map<std::pair<std::uint32_t, InstrId>,
             std::vector<std::uint32_t>>
        callees;
    std::vector<std::vector<std::pair<std::uint32_t, InstrId>>>
        callersOf(numCtxs);
    for (const auto &[key, calleeCtx] : pts.callEdges()) {
        callees[{std::get<0>(key), std::get<1>(key)}].push_back(
            calleeCtx);
        callersOf[calleeCtx].push_back(
            {std::get<0>(key), std::get<1>(key)});
    }

    // Spawned functions (live spawns) feed every join destination.
    std::set<FuncId> spawned;
    std::vector<std::uint32_t> joinDests;
    for (InstrId id = 0; id < module.numInstrs(); ++id) {
        const ir::Instruction &ins = module.instr(id);
        if (!blockLive(inv, *module.block(ins.block)))
            continue;
        if (ins.op == ir::Opcode::Spawn)
            spawned.insert(ins.callee);
        else if (ins.op == ir::Opcode::Join && ins.dest != ir::kNoReg)
            for (std::uint32_t ctx : pts.instancesOf(ins.func))
                joinDests.push_back(reg(ctx, ins.dest));
    }
    std::vector<char> isSpawnedFunc(module.numFunctions(), 0);
    for (FuncId f : spawned)
        isSpawnedFunc[f] = 1;

    // Loads grouped by the identity of their pointer's (hash-consed)
    // final set: when a cell is tainted, only distinct sets are probed
    // for membership instead of walking every set up front.
    std::map<const SparseBitSet *, std::vector<std::uint32_t>>
        loadsBySet;
    for (const ContextInstance &inst : pts.contexts) {
        const std::uint32_t ctx = inst.id;
        const ir::Function *func = module.function(inst.func);
        for (const auto &block : func->blocks()) {
            if (!blockLive(inv, *block))
                continue;
            for (const ir::Instruction &ins : block->instructions())
                if (ins.op == ir::Opcode::Load)
                    loadsBySet[&pts.pts(ctx, ins.a)].push_back(
                        reg(ctx, ins.dest));
        }
    }

    // Materialize the edges sourced at @p ctx's reg/ret nodes: its own
    // instructions (store edges walk the final pts sets — a superset
    // of every edge the solve actually fired), argument passing into
    // its callees, and its return value into its callers (and into
    // every join destination when it is spawned).
    std::vector<char> materialized(numCtxs, 0);
    auto materialize = [&](std::uint32_t ctx) {
        if (materialized[ctx])
            return;
        materialized[ctx] = 1;
        const ir::Function *func =
            module.function(pts.contexts[ctx].func);
        for (const auto &block : func->blocks()) {
            if (!blockLive(inv, *block))
                continue;
            for (const ir::Instruction &ins : block->instructions()) {
                switch (ins.op) {
                  case ir::Opcode::Assign:
                  case ir::Opcode::Gep:
                  case ir::Opcode::Load:
                    edge(reg(ctx, ins.a), reg(ctx, ins.dest));
                    break;
                  case ir::Opcode::Store:
                    pts.pts(ctx, ins.a).forEach([&](CellId cell) {
                        edge(reg(ctx, ins.b), cell);
                        // A re-pointed store stops feeding old cells.
                        edge(reg(ctx, ins.a), cell);
                    });
                    break;
                  case ir::Opcode::Call:
                  case ir::Opcode::Spawn:
                  case ir::Opcode::ICall: {
                    auto it = callees.find({ctx, ins.id});
                    if (it == callees.end())
                        break;
                    for (std::uint32_t calleeCtx : it->second) {
                        const ir::Function *callee = module.function(
                            pts.contexts[calleeCtx].func);
                        const std::size_t n = std::min<std::size_t>(
                            ins.args.size(), callee->numParams());
                        for (std::size_t i = 0; i < n; ++i)
                            edge(reg(ctx, ins.args[i]),
                                 reg(calleeCtx,
                                     static_cast<ir::Reg>(i)));
                        if (ins.op == ir::Opcode::ICall) {
                            // A shrinking function-pointer set can
                            // remove this resolution entirely: the
                            // callee\'s params and the destination
                            // then lose its contribution.
                            for (std::size_t i = 0; i < n; ++i)
                                edge(reg(ctx, ins.a),
                                     reg(calleeCtx,
                                         static_cast<ir::Reg>(i)));
                            if (ins.dest != ir::kNoReg)
                                edge(reg(ctx, ins.a),
                                     reg(ctx, ins.dest));
                        }
                    }
                    break;
                  }
                  case ir::Opcode::Ret:
                    if (ins.a != ir::kNoReg)
                        edge(reg(ctx, ins.a), ret(ctx));
                    break;
                  default:
                    break;
                }
            }
        }
        for (const auto &[callerCtx, site] : callersOf[ctx]) {
            const ir::Instruction &ins = module.instr(site);
            if (ins.dest != ir::kNoReg && ins.op != ir::Opcode::Spawn)
                edge(ret(ctx), reg(callerCtx, ins.dest));
        }
        if (isSpawnedFunc[pts.contexts[ctx].func])
            for (std::uint32_t dest : joinDests)
                edge(ret(ctx), dest);
    };

    // The join edge set itself depends on the spawn structure.
    if (diff.spawnStructureTouched)
        for (std::uint32_t dest : joinDests)
            push(dest);

    // Seeds: every node of every context of a seed function.
    std::vector<char> seedFunc(module.numFunctions(), 0);
    for (const std::string &name : diff.seedNames()) {
        const ir::Function *func = module.functionByName(name);
        if (func)
            seedFunc[func->id()] = 1;
    }
    for (const ContextInstance &inst : pts.contexts) {
        if (!seedFunc[inst.func])
            continue;
        const unsigned numRegs = module.function(inst.func)->numRegs();
        for (unsigned r = 0; r <= numRegs; ++r)
            push(nodeBase[inst.id] + r);
    }

    // Which context a reg/ret node belongs to, for lazy
    // materialization (binary search over the nodeBase partition).
    std::vector<std::uint32_t> ctxByBase(numCtxs);
    for (std::uint32_t c = 0; c < numCtxs; ++c)
        ctxByBase[c] = c;
    std::sort(ctxByBase.begin(), ctxByBase.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return nodeBase[a] < nodeBase[b];
              });
    auto ctxOfNode = [&](std::uint32_t node) {
        auto it = std::upper_bound(
            ctxByBase.begin(), ctxByBase.end(), node,
            [&](std::uint32_t n, std::uint32_t c) {
                return n < nodeBase[c];
            });
        OHA_ASSERT(it != ctxByBase.begin());
        return *(it - 1);
    };

    // Frontier rounds instead of node-at-a-time BFS, so each distinct
    // load-pointer set is probed once per round for all newly tainted
    // cells.  BFS reachability is round-order independent, and marking
    // is idempotent, so the map's pointer-keyed order does not matter.
    std::vector<std::uint32_t> frontier, frontierCells;
    while (!queue.empty()) {
        frontier.assign(queue.begin(), queue.end());
        queue.clear();
        frontierCells.clear();
        for (std::uint32_t u : frontier) {
            if (u < numCells)
                frontierCells.push_back(u);
            else
                materialize(ctxOfNode(u)); // grows out[]
        }
        if (!frontierCells.empty()) {
            // Cell out-edges: every load whose pointer's final set
            // contains a tainted frontier cell reads from it.
            for (const auto &[set, dests] : loadsBySet) {
                for (std::uint32_t cell : frontierCells) {
                    if (set->contains(cell)) {
                        for (std::uint32_t dest : dests)
                            push(dest);
                        break;
                    }
                }
            }
        }
        for (std::uint32_t u : frontier)
            for (std::uint32_t v : out[u])
                push(v);
    }

    for (std::uint32_t cell = 0; cell < numCells; ++cell)
        if (mark[cell])
            taint.cells.insert(cell);
    for (const ContextInstance &inst : pts.contexts) {
        const unsigned numRegs = module.function(inst.func)->numRegs();
        std::vector<char> &flags = taint.regs[inst.id];
        flags.assign(numRegs + 1, 0);
        for (unsigned r = 0; r <= numRegs; ++r)
            flags[r] = mark[nodeBase[inst.id] + r];
    }
    return taint;
}

std::vector<bool>
constraintTaintClosure(const ir::Module &module, const AndersenResult &pts,
                       const ConstraintDiff &diff,
                       const inv::InvariantSet *inv)
{
    const NodeTaint taint = nodeTaintClosure(module, pts, diff, inv);
    std::vector<bool> tainted(module.numFunctions(), false);
    for (const std::string &name : diff.seedNames()) {
        const ir::Function *func = module.functionByName(name);
        if (func)
            tainted[func->id()] = true;
    }
    for (const ContextInstance &inst : pts.contexts) {
        for (const char flag : taint.regs[inst.id]) {
            if (flag) {
                tainted[inst.func] = true;
                break;
            }
        }
    }
    return tainted;
}

std::vector<std::uint32_t>
mapContexts(const ir::Module &base, const ir::Module &next,
            const VersionMap &map,
            const std::vector<ContextInstance> &baseCtxs,
            const std::vector<ContextInstance> &nextCtxs)
{
    (void)base;
    (void)next;
    std::map<std::tuple<FuncId, inv::CallContext, bool>, std::uint32_t>
        index;
    for (const ContextInstance &ctx : nextCtxs)
        index[{ctx.func, ctx.chain, ctx.fallback}] = ctx.id;

    std::vector<std::uint32_t> ctxMap(baseCtxs.size(), ~0u);
    for (const ContextInstance &ctx : baseCtxs) {
        if (ctx.func >= map.funcMap.size())
            continue;
        const FuncId nextFunc = map.funcMap[ctx.func];
        if (nextFunc == kNoFunc)
            continue;
        inv::CallContext chain;
        chain.reserve(ctx.chain.size());
        bool ok = true;
        for (InstrId site : ctx.chain) {
            if (site == kNoInstr) {
                chain.push_back(kNoInstr); // fallback marker
                continue;
            }
            const InstrId mapped =
                site < map.instrMap.size() ? map.instrMap[site] : kNoInstr;
            if (mapped == kNoInstr) {
                ok = false;
                break;
            }
            chain.push_back(mapped);
        }
        if (!ok)
            continue;
        auto it = index.find({nextFunc, chain, ctx.fallback});
        if (it != index.end())
            ctxMap[ctx.id] = it->second;
    }
    return ctxMap;
}

std::vector<CellId>
mapCells(const MemoryModel &baseMem, const MemoryModel &nextMem,
         const VersionMap &map, const std::vector<std::uint32_t> &ctxMap)
{
    std::map<std::tuple<int, std::uint32_t, std::uint32_t>, AbsObjectId>
        index;
    for (AbsObjectId id = 0; id < nextMem.numObjects(); ++id) {
        const AbsObject &obj = nextMem.object(id);
        index[{static_cast<int>(obj.kind), obj.srcId, obj.contextId}] = id;
    }

    std::vector<CellId> cellMap(baseMem.numCells(), kNoCell);
    for (AbsObjectId id = 0; id < baseMem.numObjects(); ++id) {
        const AbsObject &obj = baseMem.object(id);
        std::uint32_t srcId = obj.srcId;
        std::uint32_t contextId = obj.contextId;
        switch (obj.kind) {
          case AbsObjectKind::Global:
            break; // identity: caller rejected globalsChanged
          case AbsObjectKind::Function:
            srcId = srcId < map.funcMap.size() ? map.funcMap[srcId]
                                               : kNoFunc;
            if (srcId == kNoFunc)
                continue;
            break;
          case AbsObjectKind::AllocSite:
            srcId = srcId < map.instrMap.size() ? map.instrMap[srcId]
                                                : kNoInstr;
            if (srcId == kNoInstr)
                continue;
            if (contextId != 0) {
                contextId = contextId < ctxMap.size() ? ctxMap[contextId]
                                                      : ~0u;
                if (contextId == ~0u)
                    continue;
            }
            break;
        }
        auto it =
            index.find({static_cast<int>(obj.kind), srcId, contextId});
        if (it == index.end())
            continue;
        const AbsObject &other = nextMem.object(it->second);
        if (other.size != obj.size)
            continue;
        for (std::uint32_t field = 0; field < obj.size; ++field)
            cellMap[obj.baseCell + field] = other.baseCell + field;
    }
    return cellMap;
}

bool
translateCellSet(const SparseBitSet &in, const std::vector<CellId> &cellMap,
                 SparseBitSet &out)
{
    out.clear();
    bool ok = true;
    in.forEach([&](std::uint32_t cell) {
        const CellId mapped =
            cell < cellMap.size() ? cellMap[cell] : kNoCell;
        if (mapped == kNoCell)
            ok = false;
        else
            out.insert(mapped);
    });
    return ok;
}

std::vector<bool>
unionDirtyClosure(const ir::Module &base, const AndersenResult &basePts,
                  const ir::Module &next, const AndersenResult &nextPts,
                  const ConstraintDiff &diff, const inv::InvariantSet *baseInv,
                  const inv::InvariantSet *nextInv)
{
    const std::vector<bool> baseTaint =
        constraintTaintClosure(base, basePts, diff, baseInv);
    std::vector<bool> dirty =
        constraintTaintClosure(next, nextPts, diff, nextInv);

    const VersionMap map = buildVersionMap(base, next);
    std::vector<bool> hasCleanBase(next.numFunctions(), false);
    for (const auto &func : base.functions()) {
        const FuncId nextFunc = map.funcMap[func->id()];
        if (nextFunc == kNoFunc)
            continue;
        if (map.bodyUnchanged[func->id()] && !baseTaint[func->id()])
            hasCleanBase[nextFunc] = true;
    }
    for (FuncId func = 0; func < next.numFunctions(); ++func)
        if (!hasCleanBase[func])
            dirty[func] = true;
    return dirty;
}

} // namespace oha::analysis
