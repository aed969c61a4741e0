/**
 * @file
 * The Module: a whole program in OHA IR.
 *
 * A module is built through IRBuilder, then sealed with finalize(),
 * which assigns module-unique instruction ids, builds flat id ->
 * object indexes, verifies the IR and builds each function's CFG.
 * Function and block ids are assigned eagerly at creation so branch
 * targets can be encoded as final BlockIds while building.  After
 * finalize() the module is immutable; analyses and the interpreter
 * rely on stable pointers into it.
 */

#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/cfg.h"
#include "ir/decoded.h"
#include "ir/function.h"
#include "support/common.h"
#include "support/fingerprint.h"

namespace oha::ir {

/** A global variable: a statically-allocated object with @p size cells. */
struct GlobalVar
{
    std::string name;
    std::uint32_t size = 1;
};

/** A whole program. */
class Module
{
  public:
    Module() = default;
    Module(const Module &) = delete;
    Module &operator=(const Module &) = delete;

    /** Create a function; the function named "main" is the entry point. */
    Function *
    addFunction(std::string name, unsigned numParams)
    {
        OHA_ASSERT(!finalized_, "module already finalized");
        auto func = std::make_unique<Function>(std::move(name), numParams);
        func->setId(static_cast<FuncId>(funcs_.size()));
        auto [it, inserted] = byName_.emplace(func->name(), func.get());
        (void)it;
        if (!inserted)
            OHA_FATAL("duplicate function name '%s'", func->name().c_str());
        funcs_.push_back(std::move(func));
        return funcs_.back().get();
    }

    /** Create a block in @p func with a module-unique id. */
    BasicBlock *
    addBlock(Function *func, std::string label)
    {
        OHA_ASSERT(!finalized_, "module already finalized");
        BasicBlock *block = func->addBlock(std::move(label));
        block->setId(static_cast<BlockId>(blockById_.size()));
        blockById_.push_back(block);
        return block;
    }

    /** Declare a global with @p size cells; returns its global id. */
    std::uint32_t
    addGlobal(std::string name, std::uint32_t size = 1)
    {
        OHA_ASSERT(!finalized_, "module already finalized");
        globals_.push_back({std::move(name), size});
        return static_cast<std::uint32_t>(globals_.size() - 1);
    }

    /**
     * Seal the module: assign instruction ids, build indexes, verify
     * structural well-formedness and take the fingerprint.  Fatal on
     * malformed IR.
     */
    void finalize();

    bool finalized() const { return finalized_; }

    /** Value identity, the caches' key (available after finalize()). */
    const support::Fingerprint &
    fingerprint() const
    {
        OHA_ASSERT(finalized_);
        return fingerprint_;
    }

    const std::vector<std::unique_ptr<Function>> &
    functions() const
    {
        return funcs_;
    }

    const std::vector<GlobalVar> &globals() const { return globals_; }

    /** Function named @p name, or nullptr. */
    Function *
    functionByName(const std::string &name) const
    {
        auto it = byName_.find(name);
        return it == byName_.end() ? nullptr : it->second;
    }

    /** The entry function ("main"); verifyModule rejects a module
     *  without one. */
    Function *
    entryFunction() const
    {
        Function *func = functionByName("main");
        OHA_ASSERT(func != nullptr, "module has no main()");
        return func;
    }

    std::size_t numInstrs() const { return instrById_.size(); }
    std::size_t numBlocks() const { return blockById_.size(); }
    std::size_t numFunctions() const { return funcs_.size(); }

    const Instruction &
    instr(InstrId id) const
    {
        OHA_ASSERT(id < instrById_.size());
        return *instrById_[id];
    }

    BasicBlock *
    block(BlockId id) const
    {
        OHA_ASSERT(id < blockById_.size());
        return blockById_[id];
    }

    Function *
    function(FuncId id) const
    {
        OHA_ASSERT(id < funcs_.size());
        return funcs_[id].get();
    }

    /** The CFG of function @p id (available after finalize()). */
    const Cfg &
    cfg(FuncId id) const
    {
        OHA_ASSERT(finalized_ && id < cfgs_.size());
        return cfgs_[id];
    }

    /** The interpreter's op table (available after finalize()). */
    const DecodedModule &
    decoded() const
    {
        OHA_ASSERT(finalized_);
        return decoded_;
    }

  private:
    bool finalized_ = false;
    std::vector<std::unique_ptr<Function>> funcs_;
    std::vector<GlobalVar> globals_;
    std::unordered_map<std::string, Function *> byName_;
    std::vector<const Instruction *> instrById_;
    std::vector<BasicBlock *> blockById_;
    /** One CFG per function, indexed by FuncId. */
    std::vector<Cfg> cfgs_;
    DecodedModule decoded_;
    support::Fingerprint fingerprint_;
};

/** Hash every field that defines @p module, never a pointer;
 *  finalize() stores the result as Module::fingerprint(). */
support::Fingerprint computeFingerprint(const Module &module);

} // namespace oha::ir
