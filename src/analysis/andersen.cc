#include "analysis/andersen.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "support/flat_map.h"
#include "support/union_find.h"

namespace oha::analysis {

// ---------------------------------------------------------------------
// AndersenResult queries
// ---------------------------------------------------------------------

/**
 * Flattened-query memo.  Results are immutable after solving, so an
 * entry, once computed, is valid forever; the mutex only serializes
 * the lazy fills so concurrent static-phase clients (parallel lockset
 * dataflow, batched slicers) can share one result object.
 */
struct AndersenResult::QueryCache
{
    std::mutex mutex;
    /** (func << 32 | reg) -> flattened all-contexts set. */
    std::unordered_map<std::uint64_t, SparseBitSet> flat;
};

AndersenResult::AndersenResult()
    : cache_(std::make_unique<QueryCache>())
{}

AndersenResult::~AndersenResult() = default;
AndersenResult::AndersenResult(AndersenResult &&) noexcept = default;
AndersenResult &
AndersenResult::operator=(AndersenResult &&) noexcept = default;

std::size_t
byteSizeEstimate(const AndersenResult &result)
{
    // Deliberately rough: the point is that big results charge the
    // shared cache budget in proportion to their real footprint, not
    // byte-exact accounting.  The hash-consed pts pool dominates.
    std::size_t bytes = sizeof(result);
    bytes += result.regBase_.capacity() * sizeof(std::uint32_t);
    bytes += result.ptsIdx_.capacity() * sizeof(std::uint32_t);
    bytes += result.repr_.capacity() * sizeof(std::uint32_t);
    for (const SparseBitSet &set : result.ptsPool_)
        bytes += set.byteSizeEstimate();
    for (const std::vector<std::uint32_t> &instances :
         result.funcInstances_)
        bytes += sizeof(instances) +
                 instances.capacity() * sizeof(std::uint32_t);
    // Red-black tree node overhead on top of the payload.
    bytes += result.callEdges_.size() *
             (sizeof(std::tuple<std::uint32_t, InstrId, FuncId>) +
              sizeof(std::uint32_t) + 48);
    bytes += result.contexts.capacity() * sizeof(ContextInstance);
    return bytes;
}

std::uint32_t
AndersenResult::nodeOf(std::uint32_t ctx, ir::Reg reg) const
{
    OHA_ASSERT(ctx < regBase_.size());
    return regBase_[ctx] + reg;
}

const SparseBitSet &
AndersenResult::pts(std::uint32_t ctx, ir::Reg reg) const
{
    const std::uint32_t node = repr_[nodeOf(ctx, reg)];
    return ptsPool_[ptsIdx_[node]];
}

const SparseBitSet &
AndersenResult::ptsAllContexts(FuncId func, ir::Reg reg) const
{
    const auto &instances = instancesOf(func);
    // Single-instance functions (every function in CI mode) need no
    // flattening: serve the hash-consed set directly.
    if (instances.size() == 1)
        return pts(instances.front(), reg);

    const std::uint64_t key =
        (static_cast<std::uint64_t>(func) << 32) | reg;
    std::lock_guard<std::mutex> lock(cache_->mutex);
    auto it = cache_->flat.find(key);
    if (it == cache_->flat.end()) {
        SparseBitSet out;
        for (std::uint32_t ctx : instances)
            out.unionWith(pts(ctx, reg));
        it = cache_->flat.emplace(key, std::move(out)).first;
    }
    return it->second;
}

const SparseBitSet &
AndersenResult::pointerTargets(InstrId instr) const
{
    const ir::Instruction &ins = module_->instr(instr);
    OHA_ASSERT(ins.a != ir::kNoReg, "instruction has no pointer operand");
    return ptsAllContexts(ins.func, ins.a);
}

std::vector<FuncId>
AndersenResult::icallTargets(InstrId instr) const
{
    const ir::Instruction &ins = module_->instr(instr);
    OHA_ASSERT(ins.op == ir::Opcode::ICall);
    std::vector<FuncId> out;
    ptsAllContexts(ins.func, ins.a).forEach([&](CellId cell) {
        if (memory.isFunctionCell(cell))
            out.push_back(memory.functionOfCell(cell));
    });
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

const std::vector<std::uint32_t> &
AndersenResult::instancesOf(FuncId func) const
{
    OHA_ASSERT(func < funcInstances_.size());
    return funcInstances_[func];
}

std::uint32_t
AndersenResult::calleeInstance(std::uint32_t ctx, InstrId site,
                               FuncId callee) const
{
    auto it = callEdges_.find({ctx, site, callee});
    return it == callEdges_.end() ? static_cast<std::uint32_t>(-1)
                                  : it->second;
}

double
AndersenResult::aliasRate(const ir::Module &module,
                          const inv::InvariantSet *filter) const
{
    std::vector<SparseBitSet> loads;
    std::vector<SparseBitSet> stores;
    for (InstrId id = 0; id < module.numInstrs(); ++id) {
        const ir::Instruction &ins = module.instr(id);
        if (filter && !filter->blockVisited(ins.block))
            continue;
        if (ins.op == ir::Opcode::Load)
            loads.push_back(pointerTargets(id));
        else if (ins.op == ir::Opcode::Store)
            stores.push_back(pointerTargets(id));
    }
    if (loads.empty() || stores.empty())
        return 0.0;
    std::uint64_t aliasing = 0;
    for (const auto &load : loads)
        for (const auto &store : stores)
            aliasing += load.intersects(store);
    return static_cast<double>(aliasing) /
           (static_cast<double>(loads.size()) *
            static_cast<double>(stores.size()));
}

// ---------------------------------------------------------------------
// Solver
// ---------------------------------------------------------------------

/** Internal constraint-graph builder and worklist solver. */
class AndersenSolver
{
  public:
    AndersenSolver(const ir::Module &module, const AndersenOptions &options,
                   const AndersenResult *ciPrepass)
        : module_(module), options_(options), ciPrepass_(ciPrepass),
          useDelta_(!options.referenceSolver)
    {}

    AndersenResult run();

  private:
    struct GepCons
    {
        std::uint32_t dest;
        std::int64_t delta;
        bool variable;
    };

    struct IcallCons
    {
        std::uint32_t ctx;
        const ir::Instruction *instr;
    };

    // -- construction ------------------------------------------------
    bool blockLive(BlockId block) const;
    bool contextObserved(std::uint32_t chain, InstrId site) const;
    /** The instance of @p func under @p chain (kNone: its
     *  context-insensitive fallback), made if new. */
    std::uint32_t instance(FuncId func, std::uint32_t chain,
                           std::uint32_t parent, InstrId site);
    std::vector<FuncId> staticCallees(std::uint32_t ctx,
                                      const ir::Instruction &ins) const;
    bool buildContexts();
    void allocateNodes();
    void generateConstraints();
    void connectCall(std::uint32_t callerCtx, const ir::Instruction &ins,
                     std::uint32_t calleeCtx);

    // -- solving -----------------------------------------------------
    std::uint32_t find(std::uint32_t node) { return uf_.find(node); }
    void push(std::uint32_t node);
    void addCopyEdge(std::uint32_t from, std::uint32_t to);
    void mergeNodes(std::uint32_t a, std::uint32_t b);
    void hvn();
    void offlineReduce();
    void collapseSccs();
    void solve();
    void solveWavefront();
    void rebuildSchedule();
    void resolveIcallTarget(const IcallCons &icall, CellId cell);
    AndersenResult assembleResult();

    std::uint32_t
    regNode(std::uint32_t ctx, ir::Reg reg) const
    {
        return regBase_[ctx] + reg;
    }

    std::uint32_t
    retNode(std::uint32_t ctx) const
    {
        const FuncId func = contexts_[ctx].func;
        return regBase_[ctx] + module_.function(func)->numRegs();
    }

    const ir::Module &module_;
    const AndersenOptions &options_;
    const AndersenResult *ciPrepass_;

    MemoryModel memory_;
    std::vector<ContextInstance> contexts_;
    std::vector<std::vector<std::uint32_t>> funcInstances_;
    /** The call-site chains of the CS instances. */
    inv::ContextTable chains_;
    /** (func << 32 | chain id) -> instance id. */
    support::FlatMap<std::uint32_t> instanceKey_;
    std::map<std::tuple<std::uint32_t, InstrId, FuncId>, std::uint32_t>
        callEdges_;
    /** (allocSite, ctx) -> abstract object. */
    std::map<std::pair<InstrId, std::uint32_t>, AbsObjectId> allocObjects_;
    std::vector<AbsObjectId> globalObjects_;
    std::vector<AbsObjectId> funcObjects_;

    std::vector<std::uint32_t> regBase_;
    std::uint32_t numNodes_ = 0;

    std::vector<SparseBitSet> pts_;
    std::vector<SparseBitSet> succs_;
    std::vector<std::vector<std::uint32_t>> loadCons_;
    std::vector<std::vector<std::uint32_t>> storeCons_;
    std::vector<std::vector<GepCons>> gepCons_;
    std::vector<std::vector<IcallCons>> icallCons_;
    /** Icall sites already connected to a resolved callee. */
    std::set<std::pair<InstrId, FuncId>> icallConnected_;
    /** Functions appearing in any Spawn (for Join constraints). */
    std::set<FuncId> spawnedFuncs_;

    UnionFind uf_;
    std::deque<std::uint32_t> worklist_;
    std::vector<bool> inWorklist_;
    std::uint64_t workUnits_ = 0;
    bool budgetExceeded_ = false;

    // -- leveled delta-propagation state (unused when
    //    referenceSolver) ---------------------------------------------
    /** Whether to run the leveled delta solver (production) or the
     *  FIFO full-propagation reference path. */
    bool useDelta_ = true;
    /** Bits added to pts_[u] since u last fired. */
    std::vector<SparseBitSet> delta_;
    bool seeded_ = false;
    /** Nodes with (possibly) pending deltas, deduplicated through
     *  inWorklist_; drained and re-filtered at every wave. */
    std::vector<std::uint32_t> readyList_;
    /** Longest-path topological level of each representative over the
     *  condensed copy DAG; valid while !graphDirty_. */
    std::vector<std::uint32_t> level_;
    /** A merge or a level-order-violating new edge invalidated
     *  level_; rebuildSchedule() clears it. */
    bool graphDirty_ = true;
};

bool
AndersenSolver::blockLive(BlockId block) const
{
    return !options_.invariants || options_.invariants->blockVisited(block);
}

bool
AndersenSolver::contextObserved(std::uint32_t chain, InstrId site) const
{
    if (!options_.invariants || !options_.invariants->hasCallContexts)
        return true;
    inv::CallContext context = chains_.chain(chain);
    context.push_back(site);
    return options_.invariants->callContexts.contains(context);
}

std::uint32_t
AndersenSolver::instance(FuncId func, std::uint32_t chain,
                         std::uint32_t parent, InstrId site)
{
    const std::uint64_t key = (std::uint64_t{func} << 32) | chain;
    if (const std::uint32_t *known = instanceKey_.find(key))
        return *known;
    ContextInstance inst;
    inst.id = static_cast<std::uint32_t>(contexts_.size());
    inst.func = func;
    inst.chain = chain;
    inst.parent = parent;
    inst.callSite = site;
    inst.fallback = chain == inv::ContextTable::kNone;
    contexts_.push_back(inst);
    funcInstances_[func].push_back(inst.id);
    return instanceKey_[key] = inst.id;
}

std::vector<FuncId>
AndersenSolver::staticCallees(std::uint32_t ctx,
                              const ir::Instruction &ins) const
{
    (void)ctx;
    switch (ins.op) {
      case ir::Opcode::Call:
      case ir::Opcode::Spawn:
        return {ins.callee};
      case ir::Opcode::ICall: {
        std::vector<FuncId> out;
        if (options_.invariants) {
            // Predicated: likely callee sets resolve the indirection.
            auto it = options_.invariants->calleeSets.find(ins.id);
            if (it != options_.invariants->calleeSets.end())
                out.assign(it->second.begin(), it->second.end());
        } else if (ciPrepass_) {
            // Sound CS: resolved by the CI pre-pass.
            const auto targets = ciPrepass_->icallTargets(ins.id);
            out.assign(targets.begin(), targets.end());
        }
        // Sound CI resolves icalls on the fly during solving instead.
        for (FuncId f : out) {
            if (module_.function(f)->numParams() != ins.args.size())
                OHA_WARN("icall target arity mismatch (func %u)", f);
        }
        return out;
      }
      default:
        return {};
    }
}

bool
AndersenSolver::buildContexts()
{
    const std::size_t numFuncs = module_.numFunctions();
    funcInstances_.assign(numFuncs, {});

    if (!options_.contextSensitive) {
        // CI: exactly one instance per function, empty chain.
        for (FuncId f = 0; f < numFuncs; ++f)
            instance(f, inv::ContextTable::kRoot, 0, kNoInstr);
        // Call edges are still recorded so clients can navigate.
        for (FuncId f = 0; f < numFuncs; ++f) {
            for (const auto &block : module_.function(f)->blocks()) {
                if (!blockLive(block->id()))
                    continue;
                for (const ir::Instruction &ins : block->instructions()) {
                    for (FuncId callee : staticCallees(f, ins))
                        callEdges_[{f, ins.id, callee}] = callee;
                }
            }
        }
        return true;
    }

    // CS: BFS expansion from main (and from every spawn site).
    std::deque<std::uint32_t> work;
    const FuncId mainId = module_.entryFunction()->id();
    work.push_back(instance(mainId, inv::ContextTable::kRoot, 0, kNoInstr));

    // Track per-instance ancestor functions for recursion folding.
    auto ancestorWithFunc = [&](std::uint32_t ctx,
                                FuncId func) -> std::uint32_t {
        std::uint32_t cur = ctx;
        while (true) {
            if (contexts_[cur].func == func)
                return cur;
            if (contexts_[cur].chain == inv::ContextTable::kRoot ||
                contexts_[cur].fallback)
                return static_cast<std::uint32_t>(-1);
            cur = contexts_[cur].parent;
        }
    };

    std::set<std::uint32_t> expanded;
    while (!work.empty()) {
        if (contexts_.size() > options_.maxContexts) {
            budgetExceeded_ = true;
            return false;
        }
        const std::uint32_t ctx = work.front();
        work.pop_front();
        if (!expanded.insert(ctx).second)
            continue;

        const ContextInstance inst = contexts_[ctx];
        const ir::Function *func = module_.function(inst.func);
        for (const auto &block : func->blocks()) {
            if (!blockLive(block->id()))
                continue;
            for (const ir::Instruction &ins : block->instructions()) {
                if (ins.op == ir::Opcode::Spawn) {
                    // Thread roots restart the context chain, matching
                    // the profiler's per-thread call stacks.
                    const std::uint32_t calleeCtx = instance(
                        ins.callee, inv::ContextTable::kRoot, ctx, ins.id);
                    work.push_back(calleeCtx); // skipped if expanded
                    callEdges_[{ctx, ins.id, ins.callee}] = calleeCtx;
                    continue;
                }
                if (ins.op != ir::Opcode::Call &&
                    ins.op != ir::Opcode::ICall) {
                    continue;
                }
                for (FuncId callee : staticCallees(ctx, ins)) {
                    // Recursive call: connect to the enclosing
                    // instance instead of cloning (Section 5.1.2).
                    const std::uint32_t anc = ancestorWithFunc(ctx, callee);
                    if (anc != static_cast<std::uint32_t>(-1)) {
                        callEdges_[{ctx, ins.id, callee}] = anc;
                        continue;
                    }
                    if (inst.fallback || chains_.depth(inst.chain) >=
                                             options_.maxContextDepth) {
                        const std::uint32_t fb = instance(
                            callee, inv::ContextTable::kNone, 0, kNoInstr);
                        callEdges_[{ctx, ins.id, callee}] = fb;
                        work.push_back(fb);
                        continue;
                    }
                    if (!contextObserved(inst.chain, ins.id)) {
                        // Likely-unused call context: prune entirely
                        // (Figure 3, right).
                        continue;
                    }
                    const std::uint32_t calleeCtx =
                        instance(callee, chains_.insert(inst.chain, ins.id),
                                 ctx, ins.id);
                    work.push_back(calleeCtx);
                    callEdges_[{ctx, ins.id, callee}] = calleeCtx;
                }
            }
        }
    }
    return true;
}

void
AndersenSolver::allocateNodes()
{
    // Cells: globals, then functions, then per-context alloc sites.
    for (std::uint32_t g = 0; g < module_.globals().size(); ++g) {
        globalObjects_.push_back(memory_.addObject(
            AbsObjectKind::Global, g, module_.globals()[g].size));
    }
    for (FuncId f = 0; f < module_.numFunctions(); ++f) {
        funcObjects_.push_back(
            memory_.addObject(AbsObjectKind::Function, f, 1));
    }
    for (const ContextInstance &inst : contexts_) {
        const ir::Function *func = module_.function(inst.func);
        for (const auto &block : func->blocks()) {
            if (!blockLive(block->id()))
                continue;
            for (const ir::Instruction &ins : block->instructions()) {
                if (ins.op != ir::Opcode::Alloc)
                    continue;
                allocObjects_[{ins.id, inst.id}] = memory_.addObject(
                    AbsObjectKind::AllocSite, ins.id,
                    std::max<std::uint32_t>(
                        1, static_cast<std::uint32_t>(ins.imm)),
                    inst.id);
            }
        }
    }

    // Node ids: cells first, then per-instance register blocks
    // (numRegs + 1, the extra slot being the return-value node).
    regBase_.resize(contexts_.size());
    std::uint32_t next = memory_.numCells();
    for (const ContextInstance &inst : contexts_) {
        regBase_[inst.id] = next;
        next += module_.function(inst.func)->numRegs() + 1;
    }
    numNodes_ = next;

    pts_.resize(numNodes_);
    succs_.resize(numNodes_);
    loadCons_.resize(numNodes_);
    storeCons_.resize(numNodes_);
    gepCons_.resize(numNodes_);
    icallCons_.resize(numNodes_);
    uf_.reset(numNodes_);
    inWorklist_.assign(numNodes_, false);
    if (useDelta_)
        delta_.resize(numNodes_);
}

void
AndersenSolver::connectCall(std::uint32_t callerCtx,
                            const ir::Instruction &ins,
                            std::uint32_t calleeCtx)
{
    const ir::Function *callee =
        module_.function(contexts_[calleeCtx].func);
    const std::size_t n =
        std::min<std::size_t>(ins.args.size(), callee->numParams());
    for (std::size_t i = 0; i < n; ++i) {
        addCopyEdge(regNode(callerCtx, ins.args[i]),
                    regNode(calleeCtx, static_cast<ir::Reg>(i)));
    }
    if (ins.dest != ir::kNoReg && ins.op != ir::Opcode::Spawn) {
        addCopyEdge(retNode(calleeCtx), regNode(callerCtx, ins.dest));
    }
}

void
AndersenSolver::generateConstraints()
{
    using ir::Opcode;

    // Collect spawned functions first (Join constraints need them).
    for (InstrId id = 0; id < module_.numInstrs(); ++id) {
        const ir::Instruction &ins = module_.instr(id);
        if (ins.op == Opcode::Spawn && blockLive(ins.block))
            spawnedFuncs_.insert(ins.callee);
    }

    for (const ContextInstance &inst : contexts_) {
        const std::uint32_t ctx = inst.id;
        const ir::Function *func = module_.function(inst.func);
        for (const auto &block : func->blocks()) {
            if (!blockLive(block->id()))
                continue;
            for (const ir::Instruction &ins : block->instructions()) {
                switch (ins.op) {
                  case Opcode::Alloc: {
                    const AbsObjectId obj = allocObjects_.at({ins.id, ctx});
                    pts_[regNode(ctx, ins.dest)].insert(
                        memory_.cellOf(obj, 0));
                    break;
                  }
                  case Opcode::GlobalAddr:
                    pts_[regNode(ctx, ins.dest)].insert(memory_.cellOf(
                        globalObjects_[ins.globalId], 0));
                    break;
                  case Opcode::FuncAddr:
                    pts_[regNode(ctx, ins.dest)].insert(
                        memory_.cellOf(funcObjects_[ins.callee], 0));
                    break;
                  case Opcode::Assign:
                    addCopyEdge(regNode(ctx, ins.a),
                                regNode(ctx, ins.dest));
                    break;
                  case Opcode::Gep:
                    gepCons_[regNode(ctx, ins.a)].push_back(
                        {regNode(ctx, ins.dest), ins.imm,
                         ins.b != ir::kNoReg});
                    break;
                  case Opcode::Load:
                    loadCons_[regNode(ctx, ins.a)].push_back(
                        regNode(ctx, ins.dest));
                    break;
                  case Opcode::Store:
                    storeCons_[regNode(ctx, ins.a)].push_back(
                        regNode(ctx, ins.b));
                    break;
                  case Opcode::Call:
                  case Opcode::Spawn:
                  case Opcode::ICall: {
                    bool connectedAny = false;
                    for (FuncId callee : staticCallees(ctx, ins)) {
                        auto it = callEdges_.find({ctx, ins.id, callee});
                        if (it == callEdges_.end())
                            continue; // pruned context
                        connectCall(ctx, ins, it->second);
                        connectedAny = true;
                        icallConnected_.insert({ins.id, callee});
                    }
                    (void)connectedAny;
                    if (ins.op == Opcode::ICall && !ciPrepass_ &&
                        !options_.contextSensitive) {
                        // CI: resolve on the fly as pts(fp) grows —
                        // both in the sound analysis and in predicated
                        // runs whose invariant set carries no likely
                        // callee set for this site (e.g. the Figure 11
                        // ablation with only LUC assumed).
                        const bool coveredByInvariant =
                            options_.invariants &&
                            options_.invariants->calleeSets.count(ins.id);
                        if (!coveredByInvariant) {
                            icallCons_[regNode(ctx, ins.a)].push_back(
                                {ctx, &ins});
                        }
                    }
                    break;
                  }
                  case Opcode::Ret:
                    if (ins.a != ir::kNoReg)
                        addCopyEdge(regNode(ctx, ins.a), retNode(ctx));
                    break;
                  case Opcode::Join:
                    // The joined thread's return value flows into the
                    // join destination; thread identity is resolved
                    // conservatively over every spawned function.
                    if (ins.dest != ir::kNoReg) {
                        for (FuncId f : spawnedFuncs_) {
                            for (std::uint32_t fc : funcInstances_[f]) {
                                addCopyEdge(retNode(fc),
                                            regNode(ctx, ins.dest));
                            }
                        }
                    }
                    break;
                  default:
                    break;
                }
            }
        }
    }
}

void
AndersenSolver::push(std::uint32_t node)
{
    node = find(node);
    if (inWorklist_[node])
        return;
    inWorklist_[node] = true;
    if (useDelta_)
        readyList_.push_back(node);
    else
        worklist_.push_back(node);
}

void
AndersenSolver::addCopyEdge(std::uint32_t from, std::uint32_t to)
{
    from = find(from);
    to = find(to);
    if (from == to)
        return;
    if (!succs_[from].insert(to))
        return;
    ++workUnits_;
    // The wave schedule stays valid as long as every edge climbs in
    // level; a back- or same-level edge forces a re-level (and, if it
    // closed a cycle, a collapse) before the next wave fires.
    if (useDelta_ && !graphDirty_ && level_[to] <= level_[from])
        graphDirty_ = true;
    if (useDelta_) {
        // A new edge must carry the source's full current set — the
        // destination has seen none of it.  The gained bits land in
        // the destination's delta for onward propagation.
        if (pts_[to].unionWithDiff(pts_[from], delta_[to]))
            push(to);
    } else {
        if (pts_[to].unionWith(pts_[from]))
            push(to);
    }
}

void
AndersenSolver::mergeNodes(std::uint32_t a, std::uint32_t b)
{
    a = find(a);
    b = find(b);
    if (a == b)
        return;
    // Deterministic representative: the minimum member id survives.
    // Cycle-collapse outcomes are then a pure function of the graph —
    // independent of merge discovery order and union-find rank
    // evolution — so node naming, and with it the wave order, never
    // depends on how a cycle was found.
    const std::uint32_t keep = std::min(a, b);
    const std::uint32_t drop = keep == a ? b : a;
    uf_.mergeInto(keep, drop);
    graphDirty_ = true;

    // Quiescent merge: both members sit at the fixpoint with equal
    // sets and nothing pending (the usual case for the SCC collapse
    // after the first solve).  The merged node satisfies the union of
    // their constraint lists with that same set already, so it need
    // not re-fire.
    const bool quiescent = useDelta_ && delta_[keep].empty() &&
                           delta_[drop].empty() &&
                           pts_[keep] == pts_[drop];

    pts_[keep].unionWith(pts_[drop]);
    pts_[drop].clear();
    if (useDelta_) {
        if (!quiescent) {
            // Merges are rare; reprocess the merged node in full so
            // its combined constraint lists all see the combined set.
            delta_[keep] = pts_[keep];
        }
        delta_[drop].clear();
    }
    succs_[keep].unionWith(succs_[drop]);
    succs_[drop].clear();
    auto moveInto = [](auto &dst, auto &src) {
        dst.insert(dst.end(), src.begin(), src.end());
        src.clear();
        src.shrink_to_fit();
    };
    moveInto(loadCons_[keep], loadCons_[drop]);
    moveInto(storeCons_[keep], storeCons_[drop]);
    moveInto(gepCons_[keep], gepCons_[drop]);
    moveInto(icallCons_[keep], icallCons_[drop]);
    if (!quiescent)
        push(keep);
}

void
AndersenSolver::hvn()
{
    // Offline variable substitution (HVN).  Nodes whose value is
    // fully determined by identical sets of copy-predecessor labels —
    // and that have no address-taken seeds and are not targets of
    // load/gep constraints — are pointer-equivalent and merged.
    const std::uint32_t n = numNodes_;

    std::vector<bool> indirect(n, false);
    // Cell nodes can be written through stores; load destinations and
    // gep destinations derive pts indirectly.
    for (std::uint32_t i = 0; i < memory_.numCells(); ++i)
        indirect[i] = true;
    for (std::uint32_t u = 0; u < n; ++u) {
        for (std::uint32_t dst : loadCons_[u])
            indirect[dst] = true;
        for (const GepCons &gep : gepCons_[u])
            indirect[gep.dest] = true;
        if (!icallCons_[u].empty())
            indirect[u] = true;
    }
    // Call-connected nodes acquire edges dynamically in sound CI mode;
    // keep icall argument flow conservative by marking params of
    // every function reachable via function pointers as indirect.
    for (std::uint32_t u = 0; u < n; ++u) {
        if (!pts_[u].empty())
            indirect[u] = true; // address-taken seeds
    }

    // Build predecessor lists from copy edges.
    std::vector<std::vector<std::uint32_t>> preds(n);
    for (std::uint32_t u = 0; u < n; ++u)
        succs_[u].forEach(
            [&](std::uint32_t v) { preds[v].push_back(u); });

    // Iterative label refinement to a fixpoint (equivalent to the
    // topological pass on the offline SCC DAG for our acyclic builder
    // graphs; cyclic parts simply converge).
    std::vector<std::uint64_t> label(n);
    std::uint64_t nextFresh = 1;
    for (std::uint32_t u = 0; u < n; ++u)
        label[u] = indirect[u] ? nextFresh++ : 0;

    for (int iter = 0; iter < 8; ++iter) {
        bool changed = false;
        std::unordered_map<std::uint64_t, std::uint64_t> dedup;
        std::vector<std::uint64_t> next(n);
        for (std::uint32_t u = 0; u < n; ++u) {
            if (indirect[u]) {
                next[u] = label[u];
                continue;
            }
            // Hash the multiset of predecessor labels.
            std::vector<std::uint64_t> in;
            in.reserve(preds[u].size());
            for (std::uint32_t p : preds[u])
                in.push_back(label[p]);
            std::sort(in.begin(), in.end());
            in.erase(std::unique(in.begin(), in.end()), in.end());
            std::uint64_t h = 0x9e3779b97f4a7c15ULL + in.size();
            for (std::uint64_t l : in) {
                h ^= l + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
            }
            if (in.empty())
                h = 0; // never points to anything
            auto [it, inserted] = dedup.emplace(h, nextFresh);
            if (inserted)
                ++nextFresh;
            next[u] = it->second;
            if (next[u] != label[u])
                changed = true;
        }
        label = std::move(next);
        if (!changed)
            break;
    }

    // Merge direct nodes with equal labels.
    std::unordered_map<std::uint64_t, std::uint32_t> leader;
    for (std::uint32_t u = 0; u < n; ++u) {
        if (indirect[u] || label[u] == 0)
            continue;
        auto [it, inserted] = leader.emplace(label[u], u);
        if (!inserted)
            mergeNodes(it->second, u);
        ++workUnits_;
    }
}

void
AndersenSolver::offlineReduce()
{
    // Offline constraint reduction, run once between constraint
    // generation and solving: collapse copy-graph cycles that already
    // exist (their members are pointer-equivalent by construction),
    // then rewrite every constraint to union-find representatives and
    // deduplicate.  The online solver then walks a strictly smaller
    // graph and never revisits a constraint HVN/SCC merging proved
    // redundant.
    collapseSccs();

    for (std::uint32_t u = 0; u < numNodes_; ++u) {
        if (find(u) != u)
            continue;
        SparseBitSet canonSuccs;
        succs_[u].forEach([&](std::uint32_t v) {
            v = find(v);
            if (v != u)
                canonSuccs.insert(v);
        });
        succs_[u].swap(canonSuccs);

        auto canon = [&](std::vector<std::uint32_t> &list) {
            for (std::uint32_t &x : list)
                x = find(x);
            std::sort(list.begin(), list.end());
            list.erase(std::unique(list.begin(), list.end()), list.end());
        };
        canon(loadCons_[u]);
        canon(storeCons_[u]);

        auto &geps = gepCons_[u];
        for (GepCons &g : geps)
            g.dest = find(g.dest);
        std::sort(geps.begin(), geps.end(),
                  [](const GepCons &x, const GepCons &y) {
                      return std::tie(x.dest, x.delta, x.variable) <
                             std::tie(y.dest, y.delta, y.variable);
                  });
        geps.erase(std::unique(geps.begin(), geps.end(),
                               [](const GepCons &x, const GepCons &y) {
                                   return x.dest == y.dest &&
                                          x.delta == y.delta &&
                                          x.variable == y.variable;
                               }),
                   geps.end());
    }
}

void
AndersenSolver::collapseSccs()
{
    // Iterative Tarjan over representative copy edges; collapse every
    // multi-node SCC (online cycle detection in the LCD/HCD spirit).
    const std::uint32_t n = numNodes_;
    std::vector<std::uint32_t> index(n, 0), low(n, 0);
    std::vector<bool> onStack(n, false);
    std::vector<std::uint32_t> stack;
    std::uint32_t counter = 1;

    struct DfsFrame
    {
        std::uint32_t node;
        std::vector<std::uint32_t> succ;
        std::size_t next;
    };

    std::vector<DfsFrame> dfs;
    for (std::uint32_t root = 0; root < n; ++root) {
        if (find(root) != root || index[root] != 0)
            continue;
        dfs.push_back({root, {}, 0});
        index[root] = low[root] = counter++;
        stack.push_back(root);
        onStack[root] = true;
        succs_[root].forEach([&](std::uint32_t v) {
            dfs.back().succ.push_back(find(v));
        });

        while (!dfs.empty()) {
            DfsFrame &frame = dfs.back();
            if (frame.next < frame.succ.size()) {
                const std::uint32_t v = find(frame.succ[frame.next++]);
                if (index[v] == 0) {
                    index[v] = low[v] = counter++;
                    stack.push_back(v);
                    onStack[v] = true;
                    dfs.push_back({v, {}, 0});
                    succs_[v].forEach([&](std::uint32_t w) {
                        dfs.back().succ.push_back(find(w));
                    });
                } else if (onStack[v]) {
                    low[frame.node] = std::min(low[frame.node], index[v]);
                }
            } else {
                const std::uint32_t u = frame.node;
                if (low[u] == index[u]) {
                    std::vector<std::uint32_t> scc;
                    while (true) {
                        const std::uint32_t w = stack.back();
                        stack.pop_back();
                        onStack[w] = false;
                        scc.push_back(w);
                        if (w == u)
                            break;
                    }
                    // Collapse to the minimum member id (mergeNodes
                    // keeps the smaller representative, so any merge
                    // order lands on the same survivor).
                    for (std::size_t i = 1; i < scc.size(); ++i)
                        mergeNodes(scc[0], scc[i]);
                }
                dfs.pop_back();
                if (!dfs.empty()) {
                    low[dfs.back().node] =
                        std::min(low[dfs.back().node], low[u]);
                }
            }
        }
    }
}

void
AndersenSolver::solve()
{
    if (useDelta_) {
        solveWavefront();
        return;
    }

    for (std::uint32_t u = 0; u < numNodes_; ++u) {
        if (find(u) == u && !pts_[u].empty())
            push(u);
    }

    std::uint64_t pops = 0;
    const std::uint64_t collapseEvery =
        options_.cycleCollapse ? std::max<std::uint64_t>(numNodes_, 512)
                               : ~0ULL;

    while (!worklist_.empty()) {
        std::uint32_t u = worklist_.front();
        worklist_.pop_front();
        inWorklist_[u] = false;
        if (find(u) != u)
            continue;
        ++pops;
        ++workUnits_;

        if (pops % collapseEvery == 0)
            collapseSccs();

        // Gep constraints: dest ⊇ shift(pts(u)).
        for (const GepCons &gep : gepCons_[u]) {
            SparseBitSet shifted;
            pts_[u].forEach([&](CellId cell) {
                if (memory_.isFunctionCell(cell)) {
                    shifted.insert(cell);
                    return;
                }
                if (gep.variable) {
                    const AbsObjectId obj = memory_.objectOfCell(cell);
                    const AbsObject &o = memory_.object(obj);
                    for (std::uint32_t f = 0; f < o.size; ++f)
                        shifted.insert(o.baseCell + f);
                } else {
                    const CellId target = memory_.shiftCell(cell, gep.delta);
                    if (target != kNoCell)
                        shifted.insert(target);
                }
            });
            const std::uint32_t dest = find(gep.dest);
            ++workUnits_;
            if (pts_[dest].unionWith(shifted))
                push(dest);
        }

        // Load constraints: dest ⊇ *u.
        for (std::uint32_t dst : loadCons_[u]) {
            pts_[u].forEach([&](CellId cell) {
                addCopyEdge(cell, dst);
            });
        }

        // Store constraints: *u ⊇ src.
        for (std::uint32_t src : storeCons_[u]) {
            pts_[u].forEach([&](CellId cell) {
                addCopyEdge(src, cell);
            });
        }

        // On-the-fly icall resolution (sound CI).
        for (const IcallCons &icall : icallCons_[u]) {
            pts_[u].forEach(
                [&](CellId cell) { resolveIcallTarget(icall, cell); });
        }

        // Copy edges.
        SparseBitSet snapshot = succs_[u];
        snapshot.forEach([&](std::uint32_t v) {
            v = find(v);
            if (v == u)
                return;
            ++workUnits_;
            if (pts_[v].unionWith(pts_[u]))
                push(v);
        });
    }
}

void
AndersenSolver::rebuildSchedule()
{
    // Canonicalize the copy graph to union-find representatives, then
    // assign longest-path topological levels (Kahn).  Leveling needs
    // acyclicity: when load/store edges materialized a cycle
    // mid-solve, collapse it to its minimum-id member and re-level.
    // From-scratch solves arrive pre-condensed by offlineReduce, so
    // the collapse branch runs only for genuinely new cycles.
    for (int attempt = 0;; ++attempt) {
        OHA_ASSERT(attempt < 2, "copy graph still cyclic after collapse");
        std::vector<std::uint32_t> indeg(numNodes_, 0);
        std::size_t reps = 0;
        for (std::uint32_t u = 0; u < numNodes_; ++u) {
            if (find(u) != u)
                continue;
            ++reps;
            SparseBitSet canon;
            succs_[u].forEach([&](std::uint32_t v) {
                v = find(v);
                if (v != u)
                    canon.insert(v);
            });
            succs_[u].swap(canon);
            succs_[u].forEach([&](std::uint32_t v) { ++indeg[v]; });
        }
        level_.assign(numNodes_, 0);
        std::vector<std::uint32_t> order;
        order.reserve(reps);
        for (std::uint32_t u = 0; u < numNodes_; ++u) {
            if (find(u) == u && indeg[u] == 0)
                order.push_back(u);
        }
        for (std::size_t head = 0; head < order.size(); ++head) {
            const std::uint32_t u = order[head];
            succs_[u].forEach([&](std::uint32_t v) {
                level_[v] = std::max(level_[v], level_[u] + 1);
                if (--indeg[v] == 0)
                    order.push_back(v);
            });
        }
        if (order.size() == reps)
            break;
        collapseSccs();
    }
    graphDirty_ = false;
}

void
AndersenSolver::solveWavefront()
{
    // Leveled difference propagation.  Ready nodes are grouped by
    // topological level of the condensed copy DAG and the minimum
    // level fires as one wave.  Every copy edge climbs strictly in
    // level, so no firing node is another's copy target: the wave's
    // deltas stay frozen while its targets absorb them.  The wave
    // order is a pure function of the graph, which keeps workUnits —
    // and the modeled static-phase costs derived from them —
    // deterministic; the fixpoint matches the reference solver's.
    if (!seeded_) {
        seeded_ = true;
        for (std::uint32_t u = 0; u < numNodes_; ++u) {
            if (find(u) == u && !pts_[u].empty()) {
                delta_[u] = pts_[u];
                push(u);
            }
        }
    }

    // Per-wave scratch, hoisted so capacity persists across waves.
    std::vector<char> activeMark(numNodes_, 0);
    std::vector<std::uint32_t> active, batch;
    std::vector<SparseBitSet> firedDelta;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> newEdges;
    std::vector<std::vector<std::uint32_t>> matPulls(numNodes_);
    std::vector<std::uint32_t> matTargets;
    std::vector<SparseBitSet> matOuts;

    while (!readyList_.empty()) {
        if (graphDirty_)
            rebuildSchedule();

        // Drain the ready list into the deduplicated active set of
        // representatives with pending deltas.
        active.clear();
        for (std::uint32_t raw : readyList_) {
            inWorklist_[raw] = false;
            const std::uint32_t u = find(raw);
            if (!delta_[u].empty() && !activeMark[u]) {
                activeMark[u] = 1;
                active.push_back(u);
            }
        }
        readyList_.clear();
        if (active.empty())
            break;
        std::sort(active.begin(), active.end());

        std::uint32_t minLevel = ~0u;
        for (std::uint32_t u : active)
            minLevel = std::min(minLevel, level_[u]);
        batch.clear();
        for (std::uint32_t u : active) {
            activeMark[u] = 0;
            if (level_[u] == minLevel)
                batch.push_back(u);
            else
                push(u); // deeper levels wait for a later wave
        }

        // Copy edges, in batch id order.  Targets sit at deeper
        // levels, so every union reads a firing delta no earlier
        // union of this wave has touched.
        for (std::uint32_t u : batch) {
            succs_[u].forEach([&](std::uint32_t v) {
                v = find(v);
                if (v == u)
                    return;
                ++workUnits_;
                if (pts_[v].unionWithDiff(delta_[u], delta_[v]))
                    push(v);
            });
        }

        // Apply the remaining constraints in batch order.  The batch's
        // deltas are consumed first: anything the loop adds back —
        // gep results, full-set transfer along a new edge — is a
        // fresh gain that re-queues its node.
        firedDelta.resize(batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            firedDelta[i].clear();
            firedDelta[i].swap(delta_[batch[i]]);
        }
        newEdges.clear();
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const std::uint32_t u = batch[i];
            const SparseBitSet &d = firedDelta[i];
            ++workUnits_;
            for (const GepCons &gep : gepCons_[u]) {
                SparseBitSet shifted;
                d.forEach([&](CellId cell) {
                    if (memory_.isFunctionCell(cell)) {
                        shifted.insert(cell);
                        return;
                    }
                    if (gep.variable) {
                        const AbsObjectId obj = memory_.objectOfCell(cell);
                        const AbsObject &o = memory_.object(obj);
                        for (std::uint32_t f = 0; f < o.size; ++f)
                            shifted.insert(o.baseCell + f);
                    } else {
                        const CellId target =
                            memory_.shiftCell(cell, gep.delta);
                        if (target != kNoCell)
                            shifted.insert(target);
                    }
                });
                const std::uint32_t dest = find(gep.dest);
                ++workUnits_;
                if (pts_[dest].unionWithDiff(shifted, delta_[dest]))
                    push(dest);
            }
            // Load/store constraints materialize copy edges; record
            // them for the frozen-source transfer below.
            for (std::uint32_t dst : loadCons_[u])
                d.forEach([&](CellId cell) {
                    newEdges.emplace_back(cell, dst);
                });
            for (std::uint32_t src : storeCons_[u])
                d.forEach([&](CellId cell) {
                    newEdges.emplace_back(src, cell);
                });
            for (const IcallCons &icall : icallCons_[u]) {
                d.forEach([&](CellId cell) {
                    resolveIcallTarget(icall, cell);
                });
            }
        }

        // Deduplicate the recorded edges into the copy graph and
        // group the genuinely new ones by destination, in recording
        // order, so the grouping (and the workUnits count) is a pure
        // function of the batch.
        matTargets.clear();
        for (const auto &[fromRaw, toRaw] : newEdges) {
            const std::uint32_t from = find(fromRaw);
            const std::uint32_t to = find(toRaw);
            if (from == to)
                continue;
            if (!succs_[from].insert(to))
                continue;
            ++workUnits_;
            if (!graphDirty_ && level_[to] <= level_[from])
                graphDirty_ = true;
            if (matPulls[to].empty())
                matTargets.push_back(to);
            matPulls[to].push_back(from);
        }

        // A new edge must carry its source's full current set — the
        // destination has seen none of it.  Every source is read
        // before any destination is written (a node may be both), and
        // the gained bits merge in destination order.
        matOuts.resize(matTargets.size());
        for (std::size_t i = 0; i < matTargets.size(); ++i) {
            matOuts[i].clear();
            for (std::uint32_t f : matPulls[matTargets[i]])
                matOuts[i].unionWith(pts_[f]);
        }
        for (std::size_t i = 0; i < matTargets.size(); ++i) {
            const std::uint32_t to = matTargets[i];
            matPulls[to].clear();
            if (pts_[to].unionWithDiff(matOuts[i], delta_[to]))
                push(to);
        }
    }
}

void
AndersenSolver::resolveIcallTarget(const IcallCons &icall, CellId cell)
{
    if (!memory_.isFunctionCell(cell))
        return;
    const FuncId callee = memory_.functionOfCell(cell);
    if (module_.function(callee)->numParams() != icall.instr->args.size())
        return;
    if (!icallConnected_.insert({icall.instr->id, callee}).second)
        return;
    const std::uint32_t calleeCtx = funcInstances_[callee][0];
    callEdges_[{icall.ctx, icall.instr->id, callee}] = calleeCtx;
    connectCall(icall.ctx, *icall.instr, calleeCtx);
}

AndersenResult
AndersenSolver::assembleResult()
{
    AndersenResult result;
    result.module_ = &module_;
    result.completed = true;
    result.memory = std::move(memory_);
    result.contexts = std::move(contexts_);
    result.funcInstances_ = std::move(funcInstances_);
    result.callEdges_ = std::move(callEdges_);
    result.regBase_ = std::move(regBase_);
    result.workUnits = workUnits_;
    result.repr_.resize(numNodes_);
    for (std::uint32_t u = 0; u < numNodes_; ++u)
        result.repr_[u] = uf_.find(u);

    // Hash-cons the final sets: representative nodes intern their set
    // in a pool of unique values (index 0 = the empty set), and every
    // node maps to its representative's pool slot.  A solve produces
    // many identical singleton/duplicate sets; they now share storage.
    result.ptsPool_.emplace_back();
    result.ptsIdx_.assign(numNodes_, 0);
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> interned;
    for (std::uint32_t u = 0; u < numNodes_; ++u) {
        if (result.repr_[u] != u || pts_[u].empty())
            continue;
        std::vector<std::uint32_t> &bucket = interned[pts_[u].hash()];
        std::uint32_t idx = 0;
        for (std::uint32_t cand : bucket) {
            if (result.ptsPool_[cand] == pts_[u]) {
                idx = cand;
                break;
            }
        }
        if (idx == 0) {
            idx = static_cast<std::uint32_t>(result.ptsPool_.size());
            result.ptsPool_.push_back(std::move(pts_[u]));
            bucket.push_back(idx);
        }
        result.ptsIdx_[u] = idx;
    }
    for (std::uint32_t u = 0; u < numNodes_; ++u) {
        if (result.repr_[u] != u)
            result.ptsIdx_[u] = result.ptsIdx_[result.repr_[u]];
    }
    return result;
}

AndersenResult
AndersenSolver::run()
{
    if (!buildContexts()) {
        // Context budget exhausted: the analysis "fails to run" on
        // this program (Table 2 falls back to a cheaper variant).
        AndersenResult result;
        result.module_ = &module_;
        result.completed = false;
        result.workUnits = contexts_.size();
        return result;
    }

    allocateNodes();
    generateConstraints();
    if (options_.useHvn)
        hvn();
    if (useDelta_)
        offlineReduce();
    solve();
    if (options_.cycleCollapse) {
        collapseSccs();
        solve();
    }

    return assembleResult();
}

AndersenResult
runAndersen(const ir::Module &module, const AndersenOptions &options)
{
    OHA_ASSERT(module.finalized());

    // Sound context-sensitive analysis needs indirect calls resolved
    // up front; run a CI pre-pass for that (standard practice).
    if (options.contextSensitive && !options.invariants) {
        AndersenOptions ciOptions = options;
        ciOptions.contextSensitive = false;
        AndersenSolver ciSolver(module, ciOptions, nullptr);
        const AndersenResult ciResult = ciSolver.run();
        AndersenResult result =
            runAndersenPrepassed(module, options, &ciResult);
        result.workUnits += ciResult.workUnits;
        return result;
    }

    AndersenSolver solver(module, options, nullptr);
    return solver.run();
}

AndersenResult
runAndersenPrepassed(const ir::Module &module,
                     const AndersenOptions &options,
                     const AndersenResult *ciPrepass)
{
    OHA_ASSERT(module.finalized());
    AndersenSolver solver(module, options, ciPrepass);
    return solver.run();
}

} // namespace oha::analysis
