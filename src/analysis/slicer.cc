#include "analysis/slicer.h"

#include <algorithm>
#include <tuple>

namespace oha::analysis {

template <typename T>
StaticSlicer::FlatLists<T>
StaticSlicer::FlatLists<T>::group(
    std::size_t numKeys,
    const std::vector<std::pair<std::uint32_t, T>> &pairs)
{
    FlatLists lists;
    lists.offsets.assign(numKeys + 1, 0);
    for (const auto &[key, item] : pairs)
        ++lists.offsets[key + 1];
    for (std::size_t k = 0; k < numKeys; ++k)
        lists.offsets[k + 1] += lists.offsets[k];
    lists.items.resize(pairs.size());
    std::vector<std::uint32_t> next(lists.offsets.begin(),
                                    lists.offsets.end() - 1);
    for (const auto &[key, item] : pairs)
        lists.items[next[key]++] = item;
    return lists;
}

StaticSlicer::StaticSlicer(const ir::Module &module,
                           const AndersenResult &andersen,
                           SlicerOptions options)
    : module_(module), andersen_(andersen), options_(options)
{
    OHA_ASSERT(andersen.completed,
               "slicer requires a completed points-to result");

    live_.resize(module.numInstrs());
    for (InstrId id = 0; id < module.numInstrs(); ++id) {
        live_[id] = !options_.invariants ||
                    options_.invariants->blockVisited(module.instr(id).block);
    }

    // finalize() numbers a function's instructions consecutively,
    // from its entry block on, so (func, instr) packs densely as
    // instr - funcFirst_[func].
    const std::size_t numFuncs = module.numFunctions();
    funcFirst_.assign(numFuncs, 0);
    std::vector<std::size_t> funcSize(numFuncs, 0);
    regBase_.assign(numFuncs + 1, 0);
    std::vector<std::pair<std::uint32_t, InstrId>> defs, rets;
    for (const auto &func : module.functions()) {
        const FuncId f = func->id();
        funcFirst_[f] = func->entry()->instructions().front().id;
        regBase_[f + 1] = regBase_[f] + func->numRegs();
        for (const auto &block : func->blocks()) {
            for (const ir::Instruction &ins : block->instructions()) {
                ++funcSize[f];
                if (!live_[ins.id])
                    continue;
                if (ins.dest != ir::kNoReg)
                    defs.push_back({regBase_[f] + ins.dest, ins.id});
                if (ins.op == ir::Opcode::Ret)
                    rets.push_back({f, ins.id});
                if (ins.op == ir::Opcode::Spawn)
                    spawnSites_.push_back(ins.id);
            }
        }
    }
    defs_ = FlatLists<InstrId>::group(regBase_[numFuncs], defs);
    retsOf_ = FlatLists<InstrId>::group(numFuncs, rets);

    const std::size_t numCtx = andersen.contexts.size();
    ctxBase_.resize(numCtx);
    for (const ContextInstance &inst : andersen.contexts) {
        ctxBase_[inst.id] = numNodes_;
        numNodes_ += 2 * funcSize[inst.func];
    }

    // Stores indexed by target cell, per context instance.
    std::vector<std::pair<CellId, CtxInstr>> stores;
    for (const ContextInstance &inst : andersen.contexts) {
        const ir::Function *func = module.function(inst.func);
        for (const auto &block : func->blocks()) {
            for (const ir::Instruction &ins : block->instructions()) {
                if (ins.op != ir::Opcode::Store || !live_[ins.id])
                    continue;
                andersen.pts(inst.id, ins.a).forEach([&](CellId cell) {
                    stores.push_back({cell, {inst.id, ins.id}});
                });
            }
        }
    }
    cellStores_ =
        FlatLists<CtxInstr>::group(andersen.memory.numCells(), stores);

    // callEdges() is ordered by (callerCtx, site, callee), so each
    // caller's forward list comes out sorted by site.
    std::vector<std::pair<std::uint32_t, CtxInstr>> reverse;
    std::vector<std::pair<std::uint32_t, std::pair<InstrId, std::uint32_t>>>
        forward;
    for (const auto &[key, calleeCtx] : andersen.callEdges()) {
        const auto &[callerCtx, site, callee] = key;
        (void)callee;
        reverse.push_back({calleeCtx, {callerCtx, site}});
        forward.push_back({callerCtx, {site, calleeCtx}});
    }
    reverseCalls_ = FlatLists<CtxInstr>::group(numCtx, reverse);
    forwardCalls_ =
        FlatLists<std::pair<InstrId, std::uint32_t>>::group(numCtx, forward);

    // Flow-sensitive load/store filtering is only sound in a function
    // that executes at most once per analyzed run: in a re-entered
    // function a store placed *after* a load still feeds the next
    // invocation's load through shared memory.  The entry function
    // qualifies when nothing calls, spawns or takes its address.
    const FuncId mainId = module.entryFunction()->id();
    flowSensitiveFunc_ = mainId;
    for (InstrId id = 0; id < module.numInstrs(); ++id) {
        const ir::Instruction &ins = module.instr(id);
        const bool referencesMain =
            (ins.op == ir::Opcode::Call || ins.op == ir::Opcode::Spawn ||
             ins.op == ir::Opcode::FuncAddr) &&
            ins.callee == mainId;
        if (referencesMain) {
            flowSensitiveFunc_ = kNoFunc;
            break;
        }
    }
}

StaticSliceResult
StaticSlicer::slice(InstrId endpoint) const
{
    StaticSliceResult result;

    // Call instructions play two roles and are tracked as two nodes:
    // as *argument providers* for a callee's parameters (only the
    // argument defs matter) and as *value producers* for their
    // destination register (the callee's returns matter too).
    // Conflating the roles would drag every target of a hot indirect
    // call site into any slice that crosses one of its callees.
    std::vector<bool> visited(numNodes_);
    std::vector<bool> inSlice(module_.numInstrs());
    // FIFO worklist: a vector read from the front, since every node
    // is pushed at most once.
    std::vector<std::tuple<std::uint32_t, InstrId, bool>> work;
    std::size_t head = 0;

    auto pushNode = [&](std::uint32_t ctx, InstrId instr,
                        bool valueRole) {
        if (!live_[instr])
            return;
        const std::size_t node =
            ctxBase_[ctx] +
            2 * (instr - funcFirst_[module_.instr(instr).func]) +
            (valueRole ? 1 : 0);
        if (visited[node])
            return;
        visited[node] = true;
        work.push_back({ctx, instr, valueRole});
        inSlice[instr] = true;
    };

    // Callee instances reached from @p ctx through call site @p site.
    auto calleesAt = [&](std::uint32_t ctx, InstrId site) {
        const auto edges = forwardCalls_[ctx];
        const auto first = std::lower_bound(
            edges.begin(), edges.end(), site,
            [](const auto &edge, InstrId s) { return edge.first < s; });
        auto last = first;
        while (last != edges.end() && last->first == site)
            ++last;
        return std::span(first, last);
    };

    // The endpoint exists once per context instance of its function.
    const ir::Instruction &endIns = module_.instr(endpoint);
    for (std::uint32_t ctx : andersen_.instancesOf(endIns.func))
        pushNode(ctx, endpoint, true);

    std::vector<ir::Reg> uses;
    while (head < work.size()) {
        if (result.workUnits > options_.maxWork) {
            result.completed = false;
            break;
        }
        const auto [ctx, instrId, valueRole] = work[head++];
        const ir::Instruction &ins = module_.instr(instrId);
        const ir::Function *func = module_.function(ins.func);

        // 1. Register uses -> local defs; parameters -> call sites.
        ins.usedRegs(uses);
        for (ir::Reg reg : uses) {
            ++result.workUnits;
            for (InstrId def : defs_[regBase_[ins.func] + reg])
                pushNode(ctx, def, true);
            if (reg < func->numParams()) {
                for (const auto &[callerCtx, site] : reverseCalls_[ctx])
                    pushNode(callerCtx, site, false);
            }
        }

        // 2. Opcode-specific backward edges.
        switch (ins.op) {
          case ir::Opcode::Load: {
            andersen_.pts(ctx, ins.a).forEach([&](CellId cell) {
                for (const auto &[sctx, sid] : cellStores_[cell]) {
                    ++result.workUnits;
                    const ir::Instruction &store = module_.instr(sid);
                    if (sctx == ctx && store.func == ins.func &&
                        ins.func == flowSensitiveFunc_) {
                        // Flow-sensitive filter (single-invocation
                        // function only): the store must be able to
                        // precede the load.
                        if (!module_.cfg(ins.func).mayPrecede(store, ins))
                            continue;
                    }
                    pushNode(sctx, sid, true);
                }
            });
            break;
          }
          case ir::Opcode::Call:
          case ir::Opcode::ICall: {
            if (!valueRole)
                break; // argument-provider role: args only
            // The call's value comes from the callee's returns.
            for (const auto &[site, calleeCtx] : calleesAt(ctx, instrId)) {
                (void)site;
                const FuncId callee = andersen_.contexts[calleeCtx].func;
                for (InstrId ret : retsOf_[callee])
                    pushNode(calleeCtx, ret, true);
            }
            break;
          }
          case ir::Opcode::Join: {
            // The join's value is some spawned thread's return value.
            for (InstrId site : spawnSites_) {
                const ir::Instruction &spawn = module_.instr(site);
                for (std::uint32_t spawnerCtx :
                     andersen_.instancesOf(spawn.func)) {
                    for (const auto &[s, rootCtx] :
                         calleesAt(spawnerCtx, site)) {
                        (void)s;
                        for (InstrId ret : retsOf_[spawn.callee])
                            pushNode(rootCtx, ret, true);
                    }
                }
            }
            break;
          }
          default:
            break;
        }
    }

    for (InstrId id = 0; id < inSlice.size(); ++id)
        if (inSlice[id])
            result.instructions.insert(result.instructions.end(), id);
    return result;
}

} // namespace oha::analysis
