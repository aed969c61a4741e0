#include "ir/module.h"

#include "ir/verifier.h"

namespace oha::ir {

void
Module::finalize()
{
    OHA_ASSERT(!finalized_, "module finalized twice");

    InstrId nextInstr = 0;
    instrById_.clear();

    for (auto &func : funcs_) {
        for (auto &block : func->blocks()) {
            for (Instruction &instr : block->instructions()) {
                instr.id = nextInstr++;
                instr.block = block->id();
                instr.func = func->id();
                instrById_.push_back(&instr);
            }
        }
    }

    finalized_ = true;
    verifyModule(*this);
    cfgs_.reserve(funcs_.size());
    for (const auto &func : funcs_)
        cfgs_.emplace_back(*func);
    decoded_ = decodeModule(*this);
    fingerprint_ = computeFingerprint(*this);
}

support::Fingerprint
computeFingerprint(const Module &module)
{
    support::FingerprintHasher hasher;
    hasher.add(module.globals().size());
    for (const GlobalVar &global : module.globals())
        hasher.add(global.name, global.size);
    hasher.add(module.functions().size());
    for (const auto &func : module.functions()) {
        hasher.add(func->name(), func->numParams(), func->numRegs(),
                   func->blocks().size());
        for (const auto &block : func->blocks()) {
            hasher.add(block->label(), block->id(),
                       block->instructions().size());
            for (const Instruction &instr : block->instructions())
                hasher.add(instr.op, instr.binop, instr.dest, instr.a,
                           instr.b, instr.imm, instr.callee, instr.globalId,
                           instr.target, instr.target2, instr.id,
                           instr.args);
        }
    }
    return hasher.finish();
}

} // namespace oha::ir
