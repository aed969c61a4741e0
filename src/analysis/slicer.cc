#include "analysis/slicer.h"

#include <deque>
#include <unordered_set>

namespace oha::analysis {

namespace {

std::size_t
indexInBlock(const ir::Module &module, const ir::Instruction &ins)
{
    return ins.id - module.block(ins.block)->instructions().front().id;
}

} // namespace

StaticSlicer::StaticSlicer(const ir::Module &module,
                           const AndersenResult &andersen,
                           SlicerOptions options)
    : module_(module), andersen_(andersen), options_(options)
{
    OHA_ASSERT(andersen.completed,
               "slicer requires a completed points-to result");

    defs_.resize(module.numFunctions());
    retsOf_.resize(module.numFunctions());

    for (const auto &func : module.functions()) {
        for (const auto &block : func->blocks()) {
            if (!live(block->id()))
                continue;
            for (const ir::Instruction &ins : block->instructions()) {
                if (ins.dest != ir::kNoReg)
                    defs_[func->id()][ins.dest].push_back(ins.id);
                if (ins.op == ir::Opcode::Ret)
                    retsOf_[func->id()].push_back(ins.id);
                if (ins.op == ir::Opcode::Spawn)
                    spawnSites_.push_back(ins.id);
            }
        }
    }

    // Stores indexed by target cell, per context instance.
    for (const ContextInstance &inst : andersen.contexts) {
        const ir::Function *func = module.function(inst.func);
        for (const auto &block : func->blocks()) {
            if (!live(block->id()))
                continue;
            for (const ir::Instruction &ins : block->instructions()) {
                if (ins.op != ir::Opcode::Store)
                    continue;
                andersen.pts(inst.id, ins.a).forEach([&](CellId cell) {
                    cellStores_[cell].push_back({inst.id, ins.id});
                });
            }
        }
    }

    for (const auto &[key, calleeCtx] : andersen.callEdges()) {
        const auto &[callerCtx, site, callee] = key;
        (void)callee;
        reverseCalls_[calleeCtx].push_back({callerCtx, site});
        forwardCalls_[{callerCtx, site}].push_back(calleeCtx);
    }

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

bool
StaticSlicer::live(BlockId block) const
{
    return !options_.invariants || options_.invariants->blockVisited(block);
}

const ir::Cfg &
StaticSlicer::cfgOf(FuncId func) const
{
    std::lock_guard<std::mutex> lock(cfgMutex_);
    auto it = cfgs_.find(func);
    if (it == cfgs_.end()) {
        it = cfgs_.emplace(func, std::make_unique<ir::Cfg>(
                                     *module_.function(func)))
                 .first;
    }
    return *it->second;
}

StaticSliceResult
StaticSlicer::slice(InstrId endpoint) const
{
    StaticSliceResult result;
    const std::uint64_t numInstrs = module_.numInstrs();

    // Call instructions play two roles and are tracked as two nodes:
    // as *argument providers* for a callee's parameters (only the
    // argument defs matter) and as *value producers* for their
    // destination register (the callee's returns matter too).
    // Conflating the roles would drag every target of a hot indirect
    // call site into any slice that crosses one of its callees.
    std::unordered_set<std::uint64_t> visited;
    std::deque<std::tuple<std::uint32_t, InstrId, bool>> work;

    auto pushNode = [&](std::uint32_t ctx, InstrId instr,
                        bool valueRole) {
        const ir::Instruction &ins = module_.instr(instr);
        if (!live(ins.block))
            return;
        const std::uint64_t node =
            (ctx * numInstrs + instr) * 2 + (valueRole ? 1 : 0);
        if (visited.insert(node).second) {
            work.push_back({ctx, instr, valueRole});
            result.instructions.insert(instr);
        }
    };

    // The endpoint exists once per context instance of its function.
    const ir::Instruction &endIns = module_.instr(endpoint);
    for (std::uint32_t ctx : andersen_.instancesOf(endIns.func))
        pushNode(ctx, endpoint, true);

    std::vector<ir::Reg> uses;
    while (!work.empty()) {
        if (result.workUnits > options_.maxWork) {
            result.completed = false;
            break;
        }
        const auto [ctx, instrId, valueRole] = work.front();
        work.pop_front();
        const ir::Instruction &ins = module_.instr(instrId);
        const ir::Function *func = module_.function(ins.func);

        // 1. Register uses -> local defs; parameters -> call sites.
        ins.usedRegs(uses);
        for (ir::Reg reg : uses) {
            ++result.workUnits;
            auto defIt = defs_[ins.func].find(reg);
            if (defIt != defs_[ins.func].end()) {
                for (InstrId def : defIt->second)
                    pushNode(ctx, def, true);
            }
            if (reg < func->numParams()) {
                auto rcIt = reverseCalls_.find(ctx);
                if (rcIt != reverseCalls_.end()) {
                    for (const auto &[callerCtx, site] : rcIt->second)
                        pushNode(callerCtx, site, false);
                }
            }
        }

        // 2. Opcode-specific backward edges.
        switch (ins.op) {
          case ir::Opcode::Load: {
            andersen_.pts(ctx, ins.a).forEach([&](CellId cell) {
                auto it = cellStores_.find(cell);
                if (it == cellStores_.end())
                    return;
                for (const auto &[sctx, sid] : it->second) {
                    ++result.workUnits;
                    const ir::Instruction &store = module_.instr(sid);
                    if (sctx == ctx && store.func == ins.func &&
                        ins.func == flowSensitiveFunc_) {
                        // Flow-sensitive filter (single-invocation
                        // function only): the store must be able to
                        // precede the load.
                        if (!cfgOf(ins.func).mayPrecede(
                                store.block, indexInBlock(module_, store),
                                ins.block, indexInBlock(module_, ins))) {
                            continue;
                        }
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
            auto it = forwardCalls_.find({ctx, instrId});
            if (it != forwardCalls_.end()) {
                for (std::uint32_t calleeCtx : it->second) {
                    const FuncId callee =
                        andersen_.contexts[calleeCtx].func;
                    for (InstrId ret : retsOf_[callee])
                        pushNode(calleeCtx, ret, true);
                }
            }
            break;
          }
          case ir::Opcode::Join: {
            // The join's value is some spawned thread's return value.
            for (InstrId site : spawnSites_) {
                const ir::Instruction &spawn = module_.instr(site);
                for (std::uint32_t spawnerCtx :
                     andersen_.instancesOf(spawn.func)) {
                    auto it = forwardCalls_.find({spawnerCtx, site});
                    if (it == forwardCalls_.end())
                        continue;
                    for (std::uint32_t rootCtx : it->second)
                        for (InstrId ret : retsOf_[spawn.callee])
                            pushNode(rootCtx, ret, true);
                }
            }
            break;
          }
          default:
            break;
        }
    }

    result.nodesVisited = visited.size();
    return result;
}

} // namespace oha::analysis
