#include "ir/verifier.h"

#include <limits>
#include <unordered_set>
#include <vector>

#include "ir/module.h"

namespace oha::ir {

namespace {

void
verifyFunction(const Module &module, const Function &func)
{
    std::unordered_set<BlockId> ownBlocks;
    for (const auto &block : func.blocks())
        ownBlocks.insert(block->id());

    if (func.blocks().empty())
        OHA_FATAL("function '%s' has no blocks", func.name().c_str());
    if (func.numRegs() > kMaxRegisters)
        OHA_FATAL("too many registers in '%s' (%u, limit %u)",
                  func.name().c_str(), func.numRegs(), kMaxRegisters);

    std::vector<Reg> uses;
    for (const auto &block : func.blocks()) {
        const auto &instrs = block->instructions();
        if (instrs.empty()) {
            OHA_FATAL("empty block '%s' in '%s'", block->label().c_str(),
                      func.name().c_str());
        }
        if (!instrs.back().isTerminator()) {
            OHA_FATAL("block '%s' in '%s' lacks a terminator",
                      block->label().c_str(), func.name().c_str());
        }

        for (std::size_t i = 0; i < instrs.size(); ++i) {
            const Instruction &instr = instrs[i];
            if (instr.isTerminator() && i + 1 != instrs.size()) {
                OHA_FATAL("terminator mid-block in '%s' block '%s'",
                          func.name().c_str(), block->label().c_str());
            }

            instr.usedRegs(uses);
            for (Reg reg : uses) {
                if (reg >= func.numRegs()) {
                    OHA_FATAL("register r%u out of range in '%s'",
                              reg, func.name().c_str());
                }
            }
            if (instr.dest != kNoReg && instr.dest >= func.numRegs()) {
                OHA_FATAL("dest register r%u out of range in '%s'",
                          instr.dest, func.name().c_str());
            }

            switch (instr.op) {
              case Opcode::Br:
                if (!ownBlocks.count(instr.target))
                    OHA_FATAL("cross-function branch in '%s'",
                              func.name().c_str());
                break;
              case Opcode::CondBr:
                if (!ownBlocks.count(instr.target) ||
                    !ownBlocks.count(instr.target2)) {
                    OHA_FATAL("cross-function condbr in '%s'",
                              func.name().c_str());
                }
                break;
              case Opcode::Call:
              case Opcode::Spawn:
              case Opcode::FuncAddr: {
                if (instr.callee >= module.numFunctions())
                    OHA_FATAL("bad callee id in '%s'", func.name().c_str());
                if (instr.op != Opcode::FuncAddr) {
                    const Function *callee = module.function(instr.callee);
                    if (instr.args.size() != callee->numParams()) {
                        OHA_FATAL("arity mismatch calling '%s' from '%s'",
                                  callee->name().c_str(),
                                  func.name().c_str());
                    }
                }
                break;
              }
              case Opcode::Alloc:
                if (instr.imm < 0 ||
                    instr.imm > std::numeric_limits<std::uint32_t>::max())
                    OHA_FATAL("alloc size out of range in '%s'",
                              func.name().c_str());
                break;
              case Opcode::GlobalAddr:
                if (instr.globalId >= module.globals().size())
                    OHA_FATAL("bad global id in '%s'", func.name().c_str());
                break;
              default:
                break;
            }
        }
    }
}

} // namespace

void
verifyModule(const Module &module)
{
    OHA_ASSERT(module.finalized(), "verify requires a finalized module");
    if (!module.functionByName("main"))
        OHA_FATAL("module has no main()");
    for (const auto &func : module.functions())
        verifyFunction(module, *func);
}

} // namespace oha::ir
