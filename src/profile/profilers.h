/**
 * @file
 * The per-run profiling tool (Sections 4.2 and 5.2) and the narrow
 * plan it runs under.
 *
 * RunObserver is one interpreter Tool that records, during a single
 * execution, every behaviour a likely invariant is learned from:
 *  - block visit counts (likely-unreachable code);
 *  - the targets of each indirect call (likely callee sets);
 *  - every distinct call stack, as a chain of call-site ids interned
 *    in a ContextTable (likely-unused call contexts; OptSlice only);
 *  - the dynamic objects locked at each lock site (likely guarding
 *    locks);
 *  - the threads created at each spawn site (likely singleton
 *    threads).
 * ProfilingCampaign (profiler.h) merges the runs' observations into
 * an InvariantSet.
 *
 * The tool reads block entries and ICall, Lock and Spawn events
 * (plus Call and Ret when recording contexts) and nothing else, so
 * observerPlan() covers exactly those sites.  Every other site —
 * loads, stores, arithmetic, branches, the bulk of the steps — takes
 * the interpreter's uninstrumented path, which builds no event
 * context and calls no tool.  Thread starts reach every attachment
 * whatever its plan, so the per-thread stacks still reset.  The
 * observations are therefore exactly those of the same tool with
 * every site instrumented, at close to the plain interpreter's cost.
 *
 * Per-event state is kept in dense vectors (block counts, stacks)
 * and open-addressed FlatMaps (keyed observations); observations are
 * emitted as sorted flat vectors, the key order the campaign's merge
 * loops rely on.
 */

#pragma once

#include <algorithm>
#include <vector>

#include "exec/event.h"
#include "invariants/invariant_set.h"
#include "profile/profiler.h"
#include "support/flat_map.h"

namespace oha::prof {

/** Records everything one profiled run contributes to a campaign. */
class RunObserver : public exec::Tool
{
  public:
    explicit RunObserver(bool callContexts) : callContexts_(callContexts)
    {
    }

    void
    onBlockEnter(ThreadId, BlockId block) override
    {
        if (block >= blockCounts_.size())
            blockCounts_.resize(std::size_t{block} + 1, 0);
        ++blockCounts_[block];
    }

    void
    onEvent(const exec::EventCtx &ctx) override
    {
        switch (ctx.instr->op) {
          case ir::Opcode::ICall:
            insertSorted(callees_[ctx.instr->id], ctx.calleeResolved);
            pushContext(ctx);
            break;
          case ir::Opcode::Call:
            pushContext(ctx);
            break;
          case ir::Opcode::Ret:
            if (callContexts_ && !stack(ctx.tid).empty())
                stack(ctx.tid).pop_back();
            break;
          case ir::Opcode::Lock:
            insertSorted(objects_[ctx.instr->id], ctx.obj);
            break;
          case ir::Opcode::Spawn:
            ++spawns_[ctx.instr->id];
            break;
          default:
            break;
        }
    }

    void
    onThreadStart(ThreadId tid, ThreadId, InstrId) override
    {
        if (callContexts_)
            stack(tid).clear();
    }

    /** Move the run's observations out, stamped with @p result's step
     *  count and status.  Call once, after the run. */
    RunObservations takeObservations(const exec::RunResult &result);

  private:
    /** Callee and lock-object sets are tiny (a handful of entries),
     *  so a sorted vector beats a node-based set on insert and
     *  merge. */
    template <typename T>
    static void
    insertSorted(std::vector<T> &values, T value)
    {
        const auto it = std::lower_bound(values.begin(), values.end(), value);
        if (it == values.end() || *it != value)
            values.insert(it, value);
    }

    std::vector<inv::ContextTable::Id> &
    stack(ThreadId tid)
    {
        if (tid >= stacks_.size())
            stacks_.resize(std::size_t{tid} + 1);
        return stacks_[tid];
    }

    void
    pushContext(const exec::EventCtx &ctx)
    {
        if (!callContexts_)
            return;
        // Past inv::kMaxContextDepth, the checker's exemption cap, a
        // sentinel stands in for the frame so that returns pop in
        // step; nothing deeper is recorded.
        std::vector<inv::ContextTable::Id> &ids = stack(ctx.tid);
        const inv::ContextTable::Id top =
            ids.empty() ? inv::ContextTable::kRoot : ids.back();
        ids.push_back(ids.size() < inv::kMaxContextDepth
                          ? contexts_.insert(top, ctx.instr->id)
                          : inv::ContextTable::kNone);
    }

    bool callContexts_;
    /** Dense visit counts indexed by block id. */
    std::vector<std::uint64_t> blockCounts_;
    support::FlatMap<std::vector<FuncId>> callees_;
    /** Per-thread stack of context ids, indexed by thread id. */
    std::vector<std::vector<inv::ContextTable::Id>> stacks_;
    inv::ContextTable contexts_;
    support::FlatMap<std::vector<exec::ObjectId>> objects_;
    support::FlatMap<std::uint64_t> spawns_;
};

/**
 * The sites RunObserver reads: every block, every ICall, Lock and
 * Spawn, and — with @p callContexts — every Call and Ret.  Built once
 * per campaign.
 */
exec::InstrumentationPlan observerPlan(const ir::Module &module,
                                       bool callContexts);

} // namespace oha::prof
