/**
 * @file
 * Per-function control-flow graph utilities: predecessor/successor
 * lists and an intra-procedural may-reach relation.
 *
 * The static slicer (Section 5.1.1) is flow-sensitive when resolving
 * load/store edges: a store only feeds a load if the store's block may
 * precede the load's block on some CFG path.  Cfg::mayPrecede()
 * answers that query.  Module::finalize() builds one Cfg per function
 * (Module::cfg()), which every analysis shares.
 */

#pragma once

#include <vector>

#include "ir/function.h"
#include "support/sparse_bit_set.h"

namespace oha::ir {

/** CFG view over one function (blocks indexed locally). */
class Cfg
{
  public:
    explicit Cfg(const Function &func);

    /** Successor block ids of @p block. */
    const std::vector<BlockId> &successors(BlockId block) const;

    /** Predecessor block ids of @p block. */
    const std::vector<BlockId> &predecessors(BlockId block) const;

    /**
     * True if control can flow from the end of @p from to the start
     * of @p to along one or more CFG edges (not reflexive unless the
     * block is on a cycle).
     */
    bool reaches(BlockId from, BlockId to) const;

    /** Blocks reachable from the function entry. */
    const SparseBitSet &reachableFromEntry() const { return fromEntry_; }

    /**
     * True if every path from the function entry to @p to passes
     * through @p from (classic dominance; reflexive).  Used by the
     * static MHP analysis to prove "access always follows this join".
     */
    bool dominates(BlockId from, BlockId to) const;

    /**
     * True if @p first may execute before @p second in some run of
     * the function: earlier in the same block, or in a block that may
     * reach the other's.  Both belong to this function, in a finalized
     * module (instruction ids ascend within a block).
     */
    bool
    mayPrecede(const Instruction &first, const Instruction &second) const
    {
        if (first.block == second.block && first.id < second.id)
            return true;
        return reaches(first.block, second.block);
    }

  private:
    std::size_t localIndex(BlockId block) const;

    /** Bit @p col of row @p row of the n x n bit matrix @p matrix. */
    bool
    bit(const std::vector<std::uint64_t> &matrix, std::size_t row,
        std::size_t col) const
    {
        return (matrix[row * rowWords_ + col / 64] >> (col % 64)) & 1;
    }

    /** local_[block - firstBlock_] = the block's index in the
     *  function, or kNoLocal for blocks of other functions. */
    static constexpr std::uint32_t kNoLocal = ~std::uint32_t{0};
    BlockId firstBlock_ = 0;
    std::vector<std::uint32_t> local_;
    std::vector<std::vector<BlockId>> succs_;
    std::vector<std::vector<BlockId>> preds_;
    /** Words per row of the reach_ and dom_ bit matrices. */
    std::size_t rowWords_ = 0;
    /** Row i of reach_: local indices reachable from block i. */
    std::vector<std::uint64_t> reach_;
    /** Row i of dom_: local indices dominating block i. */
    std::vector<std::uint64_t> dom_;
    SparseBitSet fromEntry_;
};

} // namespace oha::ir
