#include "dyn/invariant_checker.h"

namespace oha::dyn {

InvariantChecker::InvariantChecker(const ir::Module &module,
                                   const inv::InvariantSet &invariants,
                                   CheckerConfig config)
    : invariants_(invariants), config_(config),
      plan_(exec::InstrumentationPlan::none(module))
{
    // Likely-unreachable code: hook entries of unvisited blocks only —
    // the check is "if you ever get here, mis-speculate".
    if (config_.unreachableCode) {
        for (BlockId block = 0; block < module.numBlocks(); ++block)
            if (!invariants.blockVisited(block))
                plan_.setBlock(block, true);
    }

    for (InstrId id = 0; id < module.numInstrs(); ++id) {
        const ir::Instruction &ins = module.instr(id);
        switch (ins.op) {
          case ir::Opcode::ICall:
            if (config_.calleeSets &&
                invariants.calleeSets.count(ins.id)) {
                plan_.setInstr(id, true);
            }
            if (config_.callContexts)
                plan_.setInstr(id, true);
            break;
          case ir::Opcode::Call:
          case ir::Opcode::Ret:
            if (config_.callContexts)
                plan_.setInstr(id, true);
            break;
          case ir::Opcode::Lock:
            break; // handled below via pair membership
          case ir::Opcode::Spawn:
            if (config_.singletonThreads &&
                invariants.singletonSpawnSites.count(ins.id)) {
                plan_.setInstr(id, true);
            }
            break;
          default:
            break;
        }
    }

    if (config_.guardingLocks) {
        // Collect the pair adjacency in a transient ordered map, then
        // flatten it into the CSR table probed on every Lock event.
        std::map<InstrId, std::vector<InstrId>> adjacency;
        for (const auto &[a, b] : invariants.mustAliasLocks) {
            plan_.setInstr(a, true);
            plan_.setInstr(b, true);
            if (a != b) {
                adjacency[a].push_back(b);
                adjacency[b].push_back(a);
            } else {
                adjacency[a]; // ensure single-object tracking
            }
        }
        pairSites_.reserve(adjacency.size());
        pairOffsets_.reserve(adjacency.size() + 1);
        pairOffsets_.push_back(0);
        for (auto &[site, partners] : adjacency) {
            pairSites_.push_back(site);
            pairPartners_.insert(pairPartners_.end(), partners.begin(),
                                 partners.end());
            pairOffsets_.push_back(
                static_cast<std::uint32_t>(pairPartners_.size()));
        }
        boundLockObject_.reserve(pairSites_.size());
    }

    if (config_.callContexts)
        confirmed_.assign(invariants.callContexts.numIds(), false);
}

void
InvariantChecker::violate(Violation violation)
{
    if (violated_)
        return;
    violated_ = true;
    violation_ = std::move(violation);
    reason_ = violation_.describe();
    if (control_)
        control_->requestAbort("invariant violation: " + reason_,
                               violation_.toAbortMetadata());
}

void
InvariantChecker::onBlockEnter(ThreadId tid, BlockId block)
{
    // Only likely-unreachable blocks are hooked.
    Violation v;
    v.family = ViolationFamily::UnreachableBlock;
    v.site = block;
    v.thread = tid;
    violate(std::move(v));
}

void
InvariantChecker::onThreadStart(ThreadId tid, ThreadId, InstrId)
{
    if (config_.callContexts)
        contextStack(tid).clear();
}

void
InvariantChecker::onEvent(const exec::EventCtx &ctx)
{
    const ir::Instruction &ins = *ctx.instr;

    switch (ins.op) {
      case ir::Opcode::Call:
      case ir::Opcode::ICall: {
        if (ins.op == ir::Opcode::ICall && config_.calleeSets) {
            auto it = invariants_.calleeSets.find(ins.id);
            if (it != invariants_.calleeSets.end() &&
                !it->second.count(ctx.calleeResolved)) {
                Violation v;
                v.family = ViolationFamily::CalleeSet;
                v.site = ins.id;
                v.observed = ctx.calleeResolved;
                v.thread = ctx.tid;
                violate(std::move(v));
                return;
            }
        }
        if (config_.callContexts) {
            using Id = inv::ContextTable::Id;
            const inv::ContextTable &contexts = invariants_.callContexts;
            std::vector<Id> &ids = contextStack(ctx.tid);
            const Id top =
                ids.empty() ? inv::ContextTable::kRoot : ids.back();
            // Contexts deeper than the profiler records are exempt
            // (the profiler skips them symmetrically, by sharing
            // inv::kMaxContextDepth).  Below a kNone frame nothing is
            // known: a miss there has already violated.
            if (top == inv::ContextTable::kNone ||
                ids.size() >= inv::kMaxContextDepth) {
                ids.push_back(inv::ContextTable::kNone);
                break;
            }
            const Id id = contexts.find(top, ins.id);
            ids.push_back(id);
            if (id == inv::ContextTable::kNone || !contexts.present(id)) {
                Violation v;
                v.family = ViolationFamily::CallContext;
                v.site = ins.id;
                v.contextChain = contexts.chain(top);
                v.contextChain.push_back(ins.id);
                v.observed = inv::contextHash(v.contextChain);
                v.thread = ctx.tid;
                violate(std::move(v));
                return;
            }
            confirmed_[id] = true;
        }
        break;
      }
      case ir::Opcode::Ret: {
        if (config_.callContexts) {
            std::vector<inv::ContextTable::Id> &ids = contextStack(ctx.tid);
            if (!ids.empty())
                ids.pop_back();
        }
        break;
      }
      case ir::Opcode::Lock: {
        const auto siteIt = std::lower_bound(pairSites_.begin(),
                                             pairSites_.end(), ins.id);
        if (siteIt == pairSites_.end() || *siteIt != ins.id)
            break;
        // Bindings are stored biased by +1: 0 means "not bound yet"
        // (ObjectId 0 is a real object — the first global).
        const exec::ObjectId biased = ctx.obj + 1;
        exec::ObjectId &bound = boundLockObject_[ins.id];
        if (bound == 0) {
            bound = biased;
        } else if (bound != biased) {
            Violation v;
            v.family = ViolationFamily::MustAliasLock;
            v.site = ins.id;
            v.partner = ins.id;
            v.observed = ctx.obj;
            v.thread = ctx.tid;
            violate(std::move(v));
            return;
        }
        const std::size_t idx = siteIt - pairSites_.begin();
        for (std::uint32_t p = pairOffsets_[idx];
             p < pairOffsets_[idx + 1]; ++p) {
            const InstrId partner = pairPartners_[p];
            const exec::ObjectId *other = boundLockObject_.find(partner);
            if (other && *other != 0 && *other != biased) {
                Violation v;
                v.family = ViolationFamily::MustAliasLock;
                v.site = ins.id;
                v.partner = partner;
                v.observed = ctx.obj;
                v.thread = ctx.tid;
                violate(std::move(v));
                return;
            }
        }
        break;
      }
      case ir::Opcode::Spawn: {
        if (++spawnCounts_[ins.id] > 1) {
            Violation v;
            v.family = ViolationFamily::SingletonSpawn;
            v.site = ins.id;
            v.observed = spawnCounts_[ins.id];
            v.thread = ctx.tid;
            violate(std::move(v));
        }
        break;
      }
      default:
        break;
    }
}

} // namespace oha::dyn
