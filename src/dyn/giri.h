/**
 * @file
 * A Giri-style dynamic backward slicer (Sahoo et al. [45]) as an
 * interpreter Tool.
 *
 * During execution it appends one trace entry per instrumented
 * instruction, linking each entry to the entries that produced its
 * register operands (and, for loads, the entry of the last store to
 * the loaded address; for calls/returns/joins, the matching
 * inter-procedural producer).  A backward slice is then the closure
 * over those links from an Output endpoint.
 *
 * The trace is the dominant dynamic cost, so its storage is flat: one
 * CSR-style dependency pool shared by the whole trace (entry i's deps
 * are depsPool_[depsOffset_[i] .. depsOffset_[i+1])) instead of one
 * heap-allocated vector per entry, and register definitions live in
 * dense per-frame arrays carved from a bump arena and recycled when
 * the frame returns, instead of a (frame, reg) hash map probed on
 * every operand.
 *
 * When instrumentation is elided (hybrid / optimistic modes), entries
 * for elided instructions are simply never created.  If a needed
 * producer is missing the dependency is dropped and counted in
 * missingDependencies() — with a sound (closed) static slice this
 * never happens; with a predicated slice it can only happen when a
 * likely invariant was violated, which triggers rollback instead
 * (Figure 2).
 *
 * One graph serves several endpoints: attached under the union of
 * their plans, each endpoint's slice and delivered-event counts are
 * read off the shared graph against its own plan (slice(endpoint,
 * own) and entriesUnder()).  A reached entry outside the endpoint's
 * own plan is an escape: without escapes the slice equals that of a
 * graph built under the endpoint's plan alone (ALGORITHMS.md, "One
 * Giri graph per replay group").
 */

#pragma once

#include <map>
#include <set>
#include <vector>

#include "exec/event.h"
#include "support/arena.h"
#include "support/flat_map.h"

namespace oha::dyn {

/** Dynamic data-flow backward slicer. */
class GiriSlicer : public exec::Tool
{
  public:
    explicit GiriSlicer(const ir::Module &module) : module_(module)
    {
        depsOffset_.push_back(0);
    }

    void onEvent(const exec::EventCtx &ctx) override;

    /** Dynamic backward slice (instruction ids) from every dynamic
     *  occurrence of @p endpoint. */
    std::set<InstrId> slice(InstrId endpoint) const;

    /** One endpoint's slice read off a graph built under a plan that
     *  covers the endpoint's own. */
    struct EndpointSlice
    {
        std::set<InstrId> instrs;
        /** Reached entries whose instruction @p own does not cover.
         *  Zero means instrs equals the slice of a graph built under
         *  @p own alone. */
        std::uint64_t escapes = 0;
    };

    /** slice(@p endpoint), counting the reached entries that escape
     *  the endpoint's own plan @p own. */
    EndpointSlice slice(InstrId endpoint,
                        const exec::InstrumentationPlan &own) const;

    /**
     * Per plan in @p plans, the per-class count of entries whose
     * instruction the plan covers: the events a GiriSlicer attached
     * under that plan alone would have been delivered.  Exact for the
     * Giri plans (dyn/plans.h), which cover no branch, so every
     * delivered event appends one entry.  One pass over the graph
     * serves every plan.
     */
    std::vector<exec::EventCounts>
    entriesUnder(
        const std::vector<const exec::InstrumentationPlan *> &plans) const;

    /** Entries recorded (the dominant dynamic cost). */
    std::uint64_t traceLength() const { return traceInstr_.size(); }

    /** Operand producers that were not instrumented. */
    std::uint64_t missingDependencies() const { return missing_; }

  private:
    static constexpr std::uint32_t kNoEntry =
        static_cast<std::uint32_t>(-1);

    /**
     * Dense per-frame register-definition tables.  Frame ids are
     * assigned sequentially by the interpreter, so the frame lookup
     * is one vector index; each live frame owns a flat array of
     * trace-entry ids carved from the arena.  When a frame returns
     * its array goes on a free list and is reused by the next frame,
     * so steady-state execution allocates nothing.  Frames whose Ret
     * is elided simply stay resident — their ids are never looked up
     * again, so only memory (not correctness) is affected.
     */
    class FrameRegs
    {
      public:
        /** Producer entry of (frame, reg), or kNoEntry. */
        std::uint32_t
        get(std::uint64_t frameId, ir::Reg reg) const
        {
            if (frameId >= slotOfFrame_.size())
                return kNoEntry;
            const std::uint32_t slot = slotOfFrame_[frameId];
            if (slot == kNoSlot || reg >= slots_[slot].cap)
                return kNoEntry;
            return slots_[slot].data[reg];
        }

        void
        set(std::uint64_t frameId, ir::Reg reg, std::uint32_t entry)
        {
            if (frameId >= slotOfFrame_.size())
                slotOfFrame_.resize(frameId + 1, kNoSlot);
            std::uint32_t slot = slotOfFrame_[frameId];
            if (slot == kNoSlot) {
                slot = acquireSlot();
                slotOfFrame_[frameId] = slot;
            }
            if (reg >= slots_[slot].cap)
                growSlot(slots_[slot], reg + 1);
            slots_[slot].data[reg] = entry;
        }

        /** Return the frame's array to the free list (frame popped). */
        void
        release(std::uint64_t frameId)
        {
            if (frameId >= slotOfFrame_.size())
                return;
            const std::uint32_t slot = slotOfFrame_[frameId];
            if (slot == kNoSlot)
                return;
            // Wipe now so the next tenant starts undefined-everywhere.
            Slot &s = slots_[slot];
            for (std::uint32_t i = 0; i < s.cap; ++i)
                s.data[i] = kNoEntry;
            freeSlots_.push_back(slot);
            slotOfFrame_[frameId] = kNoSlot;
        }

      private:
        static constexpr std::uint32_t kNoSlot =
            static_cast<std::uint32_t>(-1);

        struct Slot
        {
            std::uint32_t *data = nullptr;
            std::uint32_t cap = 0;
        };

        std::uint32_t
        acquireSlot()
        {
            if (!freeSlots_.empty()) {
                const std::uint32_t slot = freeSlots_.back();
                freeSlots_.pop_back();
                return slot;
            }
            slots_.push_back({});
            return static_cast<std::uint32_t>(slots_.size() - 1);
        }

        void
        growSlot(Slot &slot, std::uint32_t needed)
        {
            std::uint32_t cap = slot.cap ? slot.cap * 2 : 8;
            while (cap < needed)
                cap *= 2;
            auto *data = arena_.allocateArray<std::uint32_t>(cap);
            for (std::uint32_t i = 0; i < slot.cap; ++i)
                data[i] = slot.data[i];
            for (std::uint32_t i = slot.cap; i < cap; ++i)
                data[i] = kNoEntry;
            slot.data = data;
            slot.cap = cap;
        }

        support::Arena arena_;
        std::vector<Slot> slots_;
        std::vector<std::uint32_t> freeSlots_;
        /** frameId -> slot index, kNoSlot when the frame has no defs. */
        std::vector<std::uint32_t> slotOfFrame_;
    };

    static std::uint64_t
    addrKey(exec::ObjectId obj, std::uint32_t off)
    {
        return (static_cast<std::uint64_t>(obj) << 32) | off;
    }

    /** Producer of (frame, reg), or kNoEntry (counted as missing). */
    std::uint32_t lookupReg(std::uint64_t frameId, ir::Reg reg);

    /** Stage @p entry as a dep of the entry being built, dropping
     *  kNoEntry and duplicates. */
    void pushDep(std::uint32_t entry);

    /** Append one trace entry with the staged deps; returns its id. */
    std::uint32_t append(InstrId instr);

    /** Closure from @p endpoint's Output entries; escapes are
     *  counted against @p own when given. */
    EndpointSlice closure(InstrId endpoint,
                          const exec::InstrumentationPlan *own) const;

    std::uint32_t threadRetOf(ThreadId tid) const;
    void setThreadRet(ThreadId tid, std::uint32_t entry);

    const ir::Module &module_;

    /** The trace in CSR form: instruction per entry plus one shared
     *  dependency pool (entry i's deps are the half-open offset range
     *  [depsOffset_[i], depsOffset_[i + 1])). */
    std::vector<InstrId> traceInstr_;
    std::vector<std::uint64_t> depsOffset_;
    std::vector<std::uint32_t> depsPool_;

    /** Per-event staging buffers (members, not thread_local statics,
     *  so two slicer instances on one thread cannot interleave). */
    std::vector<std::uint32_t> depsBuf_;
    std::vector<ir::Reg> usesBuf_;

    FrameRegs regDef_;
    /** Last store per (obj, off), open-addressed. */
    support::FlatMap<std::uint32_t> memDef_;
    /** Root-frame return entry per thread, dense by tid. */
    std::vector<std::uint32_t> threadRet_;
    std::map<InstrId, std::vector<std::uint32_t>> outputs_;
    std::uint64_t missing_ = 0;
};

} // namespace oha::dyn
