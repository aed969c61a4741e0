#include "ir/decoded.h"

#include "ir/module.h"

namespace oha::ir {

namespace {

DecodedTarget
targetOf(const Module &module, BlockId block)
{
    return {module.block(block)->instructions().front().id, block};
}

} // namespace

DecodedModule
decodeModule(const Module &module)
{
    static_assert(sizeof(DecodedOp) == 32);
    static_assert(static_cast<Op>(BinOpKind::Add) == Op::Add &&
                  static_cast<Op>(BinOpKind::Ne) == Op::Ne);
    DecodedModule decoded;
    decoded.ops.resize(module.numInstrs());
    for (InstrId id = 0; id < module.numInstrs(); ++id) {
        const Instruction &ins = module.instr(id);
        DecodedOp &op = decoded.ops[id];
        op.dest = ins.dest;
        op.a = ins.a;
        op.b = ins.b;
        auto callArgs = [&](FuncId callee) {
            op.call.callee = callee;
            op.call.argBegin = static_cast<std::uint32_t>(decoded.args.size());
            op.call.argCount = static_cast<std::uint32_t>(ins.args.size());
            decoded.args.insert(decoded.args.end(), ins.args.begin(),
                                ins.args.end());
        };
        switch (ins.op) {
          case Opcode::BinOp:
            op.op = static_cast<Op>(ins.binop);
            break;
          case Opcode::Alloc: op.op = Op::Alloc; op.imm = ins.imm; break;
          case Opcode::ConstInt: op.op = Op::ConstInt; op.imm = ins.imm; break;
          case Opcode::Assign: op.op = Op::Assign; break;
          case Opcode::GlobalAddr:
            op.op = Op::GlobalAddr;
            op.index = ins.globalId;
            break;
          case Opcode::FuncAddr:
            op.op = Op::FuncAddr;
            op.index = ins.callee;
            break;
          case Opcode::Gep:
            op.op = ins.b != kNoReg ? Op::GepReg : Op::GepImm;
            op.imm = ins.imm;
            break;
          case Opcode::Load: op.op = Op::Load; break;
          case Opcode::Store: op.op = Op::Store; break;
          case Opcode::Call: op.op = Op::Call; callArgs(ins.callee); break;
          case Opcode::ICall: op.op = Op::ICall; callArgs(kNoFunc); break;
          case Opcode::Spawn: op.op = Op::Spawn; callArgs(ins.callee); break;
          case Opcode::Ret: op.op = Op::Ret; break;
          case Opcode::Br:
            op.op = Op::Br;
            op.targets[0] = targetOf(module, ins.target);
            break;
          case Opcode::CondBr:
            op.op = Op::CondBr;
            op.targets[0] = targetOf(module, ins.target);
            op.targets[1] = targetOf(module, ins.target2);
            break;
          case Opcode::Lock: op.op = Op::Lock; break;
          case Opcode::Unlock: op.op = Op::Unlock; break;
          case Opcode::Join: op.op = Op::Join; break;
          case Opcode::Output: op.op = Op::Output; break;
          case Opcode::Input: op.op = Op::Input; op.imm = ins.imm; break;
        }
    }
    decoded.functions.reserve(module.numFunctions());
    for (const auto &func : module.functions()) {
        DecodedFunction info;
        info.entry = targetOf(module, func->entry()->id());
        info.numRegs = func->numRegs();
        info.numParams = func->numParams();
        decoded.functions.push_back(info);
    }
    return decoded;
}

} // namespace oha::ir
