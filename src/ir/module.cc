#include "ir/module.h"

#include "ir/printer.h"
#include "ir/verifier.h"

namespace oha::ir {

namespace {

/**
 * Same dual-hash construction as the shared-cache fingerprints: an
 * FNV-1a primary plus an independent multiply-add secondary finished
 * with splitmix64.  Duplicated here rather than shared because ir/
 * sits below service/ in the layering.
 */
FunctionFingerprint
hashCanonicalText(const std::string &text)
{
    std::uint64_t primary = 1469598103934665603ULL;
    std::uint64_t secondary = 0x9e3779b97f4a7c15ULL;
    for (unsigned char c : text) {
        primary ^= c;
        primary *= 1099511628211ULL;
        secondary = secondary * 6364136223846793005ULL + c + 1;
    }
    std::uint64_t z = secondary + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return FunctionFingerprint{primary, z};
}

} // namespace

std::string
canonicalFunctionText(const Module &module, const Function &func)
{
    // numRegs is deliberately excluded: builders may reserve unused
    // trailing registers that a print -> parse round-trip drops, and
    // an unused register carries no constraints.
    std::string text = "func " + func.name() + "/" +
                       std::to_string(func.numParams()) + "\n";
    for (const auto &block : func.blocks()) {
        text += block->label();
        text += ":\n";
        for (const Instruction &instr : block->instructions()) {
            text += printInstruction(module, instr);
            text += "\n";
        }
    }
    return text;
}

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
    decoded_ = decodeModule(*this);

    funcFps_.clear();
    funcFps_.reserve(funcs_.size());
    for (auto &func : funcs_)
        funcFps_.push_back(hashCanonicalText(canonicalFunctionText(*this, *func)));
}

} // namespace oha::ir
