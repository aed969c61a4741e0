#include "dyn/giri.h"

namespace oha::dyn {

std::uint32_t
GiriSlicer::lookupReg(std::uint64_t frameId, ir::Reg reg)
{
    const std::uint32_t entry = regDef_.get(frameId, reg);
    if (entry == kNoEntry)
        ++missing_;
    return entry;
}

void
GiriSlicer::pushDep(std::uint32_t entry)
{
    if (entry == kNoEntry)
        return;
    // Dedupe: an instruction reading one producer through several
    // operands (x+x, or a load whose address and memory producer
    // coincide) should link to it once.  Entries have a handful of
    // deps, so the linear scan beats any set.
    for (std::uint32_t dep : depsBuf_)
        if (dep == entry)
            return;
    depsBuf_.push_back(entry);
}

std::uint32_t
GiriSlicer::append(InstrId instr)
{
    traceInstr_.push_back(instr);
    depsPool_.insert(depsPool_.end(), depsBuf_.begin(), depsBuf_.end());
    depsOffset_.push_back(depsPool_.size());
    return static_cast<std::uint32_t>(traceInstr_.size() - 1);
}

std::uint32_t
GiriSlicer::threadRetOf(ThreadId tid) const
{
    return tid < threadRet_.size() ? threadRet_[tid] : kNoEntry;
}

void
GiriSlicer::setThreadRet(ThreadId tid, std::uint32_t entry)
{
    if (tid >= threadRet_.size())
        threadRet_.resize(tid + 1, kNoEntry);
    threadRet_[tid] = entry;
}

void
GiriSlicer::onEvent(const exec::EventCtx &ctx)
{
    using ir::Opcode;
    const ir::Instruction &ins = *ctx.instr;

    depsBuf_.clear();
    ins.usedRegs(usesBuf_);
    for (ir::Reg reg : usesBuf_)
        pushDep(lookupReg(ctx.frameId, reg));

    switch (ins.op) {
      case Opcode::Load: {
        if (const std::uint32_t *def =
                memDef_.find(addrKey(ctx.obj, ctx.off)))
            pushDep(*def);
        const std::uint32_t entry = append(ins.id);
        regDef_.set(ctx.frameId, ins.dest, entry);
        break;
      }
      case Opcode::Store: {
        const std::uint32_t entry = append(ins.id);
        memDef_[addrKey(ctx.obj, ctx.off)] = entry;
        break;
      }
      case Opcode::Call:
      case Opcode::ICall: {
        const std::uint32_t entry = append(ins.id);
        // Callee parameters are defined by this call entry.
        const ir::Function *callee =
            module_.function(ctx.calleeResolved);
        for (ir::Reg p = 0; p < callee->numParams(); ++p)
            regDef_.set(ctx.frame2, p, entry);
        break;
      }
      case Opcode::Spawn: {
        const std::uint32_t entry = append(ins.id);
        const ir::Function *callee = module_.function(ins.callee);
        for (ir::Reg p = 0; p < callee->numParams(); ++p)
            regDef_.set(ctx.frame2, p, entry);
        if (ins.dest != ir::kNoReg)
            regDef_.set(ctx.frameId, ins.dest, entry);
        break;
      }
      case Opcode::Ret: {
        const std::uint32_t entry = append(ins.id);
        if (ctx.callInstr) {
            if (ctx.callInstr->dest != ir::kNoReg)
                regDef_.set(ctx.frame2, ctx.callInstr->dest, entry);
        } else {
            setThreadRet(ctx.tid, entry);
        }
        // The frame is gone; frame ids are never reused, so its
        // register table can be recycled.  (If the Ret is elided the
        // table merely stays resident — it is never read again.)
        regDef_.release(ctx.frameId);
        break;
      }
      case Opcode::Join: {
        pushDep(threadRetOf(ctx.otherTid));
        const std::uint32_t entry = append(ins.id);
        if (ins.dest != ir::kNoReg)
            regDef_.set(ctx.frameId, ins.dest, entry);
        break;
      }
      case Opcode::Output: {
        const std::uint32_t entry = append(ins.id);
        outputs_[ins.id].push_back(entry);
        break;
      }
      case Opcode::Br:
      case Opcode::CondBr:
        break; // data-flow slices ignore control dependencies
      default: {
        // Plain value producers (const, binop, gep, alloc, input...).
        const std::uint32_t entry = append(ins.id);
        if (ins.dest != ir::kNoReg)
            regDef_.set(ctx.frameId, ins.dest, entry);
        break;
      }
    }
}

std::set<InstrId>
GiriSlicer::slice(InstrId endpoint) const
{
    return closure(endpoint, nullptr).instrs;
}

GiriSlicer::EndpointSlice
GiriSlicer::slice(InstrId endpoint,
                  const exec::InstrumentationPlan &own) const
{
    return closure(endpoint, &own);
}

GiriSlicer::EndpointSlice
GiriSlicer::closure(InstrId endpoint,
                    const exec::InstrumentationPlan *own) const
{
    EndpointSlice result;
    auto it = outputs_.find(endpoint);
    if (it == outputs_.end())
        return result;

    // Closure over dependency links; visitation order is irrelevant
    // to the resulting set, so a plain stack serves as the worklist.
    std::vector<std::uint8_t> visited(traceInstr_.size(), 0);
    std::vector<std::uint32_t> work;
    for (std::uint32_t entry : it->second) {
        visited[entry] = 1;
        work.push_back(entry);
    }
    while (!work.empty()) {
        const std::uint32_t cur = work.back();
        work.pop_back();
        const InstrId instr = traceInstr_[cur];
        result.instrs.insert(instr);
        if (own && !own->coversInstr(instr))
            ++result.escapes;
        for (std::uint64_t i = depsOffset_[cur]; i < depsOffset_[cur + 1];
             ++i) {
            const std::uint32_t dep = depsPool_[i];
            if (!visited[dep]) {
                visited[dep] = 1;
                work.push_back(dep);
            }
        }
    }
    return result;
}

std::vector<exec::EventCounts>
GiriSlicer::entriesUnder(
    const std::vector<const exec::InstrumentationPlan *> &plans) const
{
    std::vector<std::uint64_t> perInstr(module_.numInstrs(), 0);
    for (const InstrId instr : traceInstr_)
        ++perInstr[instr];
    std::vector<exec::EventCounts> out(plans.size());
    for (InstrId id = 0; id < perInstr.size(); ++id) {
        if (perInstr[id] == 0)
            continue;
        const exec::EventClass cls = exec::eventClassOf(module_.instr(id).op);
        for (std::size_t p = 0; p < plans.size(); ++p)
            if (plans[p]->coversInstr(id))
                out[p][cls] += perInstr[id];
    }
    return out;
}

} // namespace oha::dyn
