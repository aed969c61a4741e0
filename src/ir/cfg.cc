#include "ir/cfg.h"

#include <algorithm>

namespace oha::ir {

Cfg::Cfg(const Function &func)
{
    const std::size_t n = func.blocks().size();
    succs_.resize(n);
    preds_.resize(n);

    // Local indices by block id, over the span of the function's ids
    // (its blocks are normally numbered consecutively).
    if (n > 0) {
        const auto [lo, hi] = std::minmax_element(
            func.blocks().begin(), func.blocks().end(),
            [](const auto &a, const auto &b) { return a->id() < b->id(); });
        firstBlock_ = (*lo)->id();
        local_.assign((*hi)->id() - firstBlock_ + 1, kNoLocal);
    }
    for (std::size_t i = 0; i < n; ++i)
        local_[func.blocks()[i]->id() - firstBlock_] =
            static_cast<std::uint32_t>(i);

    for (std::size_t i = 0; i < n; ++i) {
        succs_[i] = func.blocks()[i]->successors();
        for (BlockId succ : succs_[i])
            preds_[localIndex(succ)].push_back(func.blocks()[i]->id());
    }

    // Transitive closure by a search from each block.  Functions in
    // this IR are small (tens of blocks), so the quadratic closure is
    // cheap and the bit-matrix answers are O(1) afterwards.
    rowWords_ = (n + 63) / 64;
    reach_.assign(n * rowWords_, 0);
    std::vector<std::size_t> work;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t *row = reach_.data() + i * rowWords_;
        auto visitSuccessors = [&](std::size_t from) {
            for (BlockId succ : succs_[from]) {
                const std::size_t si = localIndex(succ);
                const std::uint64_t bit = 1ULL << (si % 64);
                if (!(row[si / 64] & bit)) {
                    row[si / 64] |= bit;
                    work.push_back(si);
                }
            }
        };
        visitSuccessors(i);
        while (!work.empty()) {
            const std::size_t cur = work.back();
            work.pop_back();
            visitSuccessors(cur);
        }
    }

    // Iterative dominator computation: dom(entry) = {entry},
    // dom(b) = {b} ∪ ⋂ dom(p) over the predecessors p the entry
    // reaches; an unreachable block b gets {b}.
    std::vector<std::uint64_t> all(rowWords_, ~0ULL);
    if (n % 64 != 0)
        all.back() = (1ULL << (n % 64)) - 1;
    dom_.reserve(n * rowWords_);
    for (std::size_t i = 0; i < n; ++i)
        dom_.insert(dom_.end(), all.begin(), all.end());
    if (n > 0) {
        std::fill_n(dom_.begin(), rowWords_, 0);
        dom_[0] = 1;
    }
    std::vector<std::uint64_t> next(rowWords_);
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t i = 1; i < n; ++i) {
            std::fill(next.begin(), next.end(), 0);
            if (bit(reach_, 0, i)) {
                next = all;
                for (BlockId pred : preds_[i]) {
                    const std::size_t p = localIndex(pred);
                    if (p != 0 && !bit(reach_, 0, p))
                        continue;
                    const std::uint64_t *predRow =
                        dom_.data() + p * rowWords_;
                    for (std::size_t w = 0; w < rowWords_; ++w)
                        next[w] &= predRow[w];
                }
            }
            next[i / 64] |= 1ULL << (i % 64);
            const auto row = dom_.begin() + i * rowWords_;
            if (!std::equal(next.begin(), next.end(), row)) {
                std::copy(next.begin(), next.end(), row);
                changed = true;
            }
        }
    }

    // fromEntry_ is exposed publicly, so it stores BlockIds (not the
    // local indices reach_ uses internally).
    for (std::size_t i = 0; i < n; ++i)
        if (i == 0 || bit(reach_, 0, i))
            fromEntry_.insert(func.blocks()[i]->id());
}

std::size_t
Cfg::localIndex(BlockId block) const
{
    const BlockId slot = block - firstBlock_; // wraps below the span
    const std::uint32_t local =
        slot < local_.size() ? local_[slot] : kNoLocal;
    OHA_ASSERT(local != kNoLocal, "block not in this function");
    return local;
}

const std::vector<BlockId> &
Cfg::successors(BlockId block) const
{
    return succs_[localIndex(block)];
}

const std::vector<BlockId> &
Cfg::predecessors(BlockId block) const
{
    return preds_[localIndex(block)];
}

bool
Cfg::reaches(BlockId from, BlockId to) const
{
    return bit(reach_, localIndex(from), localIndex(to));
}

bool
Cfg::dominates(BlockId from, BlockId to) const
{
    return bit(dom_, localIndex(to), localIndex(from));
}

} // namespace oha::ir
