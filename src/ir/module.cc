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
}

} // namespace oha::ir
