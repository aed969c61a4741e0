#include "analysis/mhp.h"

#include "support/thread_pool.h"

namespace oha::analysis {

MhpAnalysis::MhpAnalysis(const ir::Module &module,
                         const AndersenResult &andersen,
                         const CallGraph &callGraph,
                         const inv::InvariantSet *invariants)
    : module_(module)
{
    (void)andersen;
    spawnSites_ = callGraph.spawnSites();
    funcRegions_.resize(module.numFunctions());

    const FuncId mainId = module.entryFunction()->id();
    for (FuncId f : callGraph.reachableFrom(mainId))
        funcRegions_[f].insert(0);
    for (std::size_t i = 0; i < spawnSites_.size(); ++i) {
        const ir::Instruction &spawn = module_.instr(spawnSites_[i]);
        for (FuncId f : callGraph.reachableFrom(spawn.callee))
            funcRegions_[f].insert(static_cast<RegionId>(i + 1));
    }

    // Match each spawn to a join in the same function whose handle
    // register is defined solely by that spawn (through Assign
    // chains).  Sites are independent; compute the matches batched
    // and record them in site order.
    const std::vector<InstrId> joins = support::runBatch(
        spawnSites_.size(), [&](std::size_t s) -> InstrId {
            const InstrId site = spawnSites_[s];
            const ir::Instruction &spawn = module_.instr(site);
            const ir::Function *func = module_.function(spawn.func);

            // Gather defs per register once per function.
            std::map<ir::Reg, std::vector<const ir::Instruction *>> defs;
            for (const auto &block : func->blocks())
                for (const ir::Instruction &ins : block->instructions())
                    if (ins.dest != ir::kNoReg)
                        defs[ins.dest].push_back(&ins);

            auto traceToSpawn =
                [&](ir::Reg reg) -> const ir::Instruction * {
                for (int depth = 0; depth < 8; ++depth) {
                    auto it = defs.find(reg);
                    if (it == defs.end() || it->second.size() != 1)
                        return nullptr;
                    const ir::Instruction *def = it->second.front();
                    if (def->op == ir::Opcode::Spawn)
                        return def;
                    if (def->op == ir::Opcode::Assign) {
                        reg = def->a;
                        continue;
                    }
                    return nullptr;
                }
                return nullptr;
            };

            InstrId match = kNoInstr;
            for (const auto &block : func->blocks()) {
                for (const ir::Instruction &ins :
                     block->instructions()) {
                    if (ins.op != ir::Opcode::Join)
                        continue;
                    const ir::Instruction *src = traceToSpawn(ins.a);
                    if (src && src->id == site) {
                        match = ins.id;
                        break;
                    }
                }
            }
            return match;
        });
    for (std::size_t s = 0; s < spawnSites_.size(); ++s)
        if (joins[s] != kNoInstr)
            joinOf_[spawnSites_[s]] = joins[s];

    // Ordering claims like "access must precede spawn" are only sound
    // inside a function that executes at most once: re-entering the
    // function re-runs the "earlier" access after the spawn.  main
    // qualifies when nothing calls, spawns, or takes its address.
    orderingFunc_ = mainId;
    if (callGraph.isCalleeSomewhere(mainId))
        orderingFunc_ = kNoFunc;
    for (InstrId id = 0;
         orderingFunc_ != kNoFunc && id < module.numInstrs(); ++id) {
        const ir::Instruction &ins = module.instr(id);
        if ((ins.op == ir::Opcode::Spawn ||
             ins.op == ir::Opcode::FuncAddr) &&
            ins.callee == mainId) {
            orderingFunc_ = kNoFunc;
        }
    }

    // Single-shot spawn sites.  Statically provable only in the
    // trivial case: the spawn sits in non-re-entrant main outside any
    // CFG cycle.  The likely-singleton-thread invariant supplies the
    // rest.
    for (InstrId site : spawnSites_) {
        const ir::Instruction &spawn = module_.instr(site);
        if (spawn.func == orderingFunc_ &&
            !module_.cfg(spawn.func).reaches(spawn.block, spawn.block)) {
            singleton_.insert(site);
        }
        if (invariants && invariants->singletonSpawnSites.count(site))
            singleton_.insert(site);
    }
}

bool
MhpAnalysis::mustPrecedeInFunction(InstrId a, InstrId b) const
{
    const ir::Instruction &ia = module_.instr(a);
    const ir::Instruction &ib = module_.instr(b);
    // Sound only in the single-invocation entry function: a re-entered
    // function runs its "earlier" instructions again, after b.
    if (ia.func != ib.func || ia.func != orderingFunc_)
        return false;
    // "a can never execute after b": rule out b-to-a control flow
    // (a shared loop block allows either order).
    return a != b && !module_.cfg(ia.func).mayPrecede(ib, ia);
}

bool
MhpAnalysis::dominatesInFunction(InstrId a, InstrId b) const
{
    const ir::Instruction &ia = module_.instr(a);
    const ir::Instruction &ib = module_.instr(b);
    if (ia.func != ib.func)
        return false;
    if (ia.block == ib.block)
        return a < b; // ids ascend within a block
    return module_.cfg(ia.func).dominates(ia.block, ib.block);
}

bool
MhpAnalysis::orderedRegions(RegionId ra, InstrId ia, RegionId rb,
                            InstrId ib) const
{
    if (ra == rb) {
        if (ra == 0)
            return true; // both on the main thread
        // Same spawn site: ordered only when the site provably
        // creates a single thread.
        return singleton_.count(spawnSites_[ra - 1]) > 0;
    }
    if (rb == 0)
        return orderedRegions(rb, ib, ra, ia);

    const InstrId siteB = spawnSites_[rb - 1];
    if (ra == 0) {
        // Main-thread access vs. thread of siteB.
        if (mustPrecedeInFunction(ia, siteB))
            return true;
        const InstrId joinB = matchedJoin(siteB);
        if (joinB != kNoInstr && singleton_.count(siteB) &&
            dominatesInFunction(joinB, ia)) {
            return true;
        }
        return false;
    }

    // Thread vs. thread: ordered when one side's join dominates the
    // other side's spawn (both single-shot; sound in any function —
    // the joined singleton thread has retired once the join ran, and
    // the dominated spawn can only execute afterwards).
    const InstrId siteA = spawnSites_[ra - 1];
    const InstrId joinA = matchedJoin(siteA);
    if (joinA != kNoInstr && singleton_.count(siteA) &&
        singleton_.count(siteB) && dominatesInFunction(joinA, siteB)) {
        return true;
    }
    const InstrId joinB = matchedJoin(siteB);
    if (joinB != kNoInstr && singleton_.count(siteB) &&
        singleton_.count(siteA) && dominatesInFunction(joinB, siteA)) {
        return true;
    }
    return false;
}

bool
MhpAnalysis::mayHappenInParallel(InstrId a, InstrId b) const
{
    const auto &regionsA = funcRegions_[module_.instr(a).func];
    const auto &regionsB = funcRegions_[module_.instr(b).func];
    if (regionsA.empty() || regionsB.empty())
        return false; // unreachable code never runs
    for (RegionId ra : regionsA)
        for (RegionId rb : regionsB)
            if (!orderedRegions(ra, a, rb, b))
                return true;
    return false;
}

} // namespace oha::analysis
