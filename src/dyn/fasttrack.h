/**
 * @file
 * The FastTrack dynamic data-race detector (Flanagan & Freund, PLDI
 * 2009) as an interpreter Tool.
 *
 * Full epoch/vector-clock algorithm: adaptive read metadata (epoch in
 * the common same-epoch / ordered case, full vector clock for shared
 * reads), lock acquire/release transfer, fork/join transfer.  Which
 * accesses are checked is entirely governed by the attached
 * InstrumentationPlan: FastTrack = full plan over memory+sync events,
 * hybrid FastTrack = races-only plan from the sound static detector,
 * OptFT = races-only plan from the predicated detector plus elided
 * no-custom-sync lock sites (Section 4).
 */

#pragma once

#include <set>
#include <vector>

#include "exec/event.h"
#include "support/flat_map.h"
#include "support/vector_clock.h"

namespace oha::dyn {

/** One detected (or re-detected) race. */
struct RaceReport
{
    InstrId first;      ///< earlier access instruction
    InstrId second;     ///< later access instruction
    exec::ObjectId obj; ///< object raced on
    std::uint32_t off;  ///< cell raced on

    bool
    operator<(const RaceReport &other) const
    {
        return std::tie(first, second, obj, off) <
               std::tie(other.first, other.second, other.obj, other.off);
    }
};

/** FastTrack race detector tool. */
class FastTrack : public exec::Tool
{
  public:
    void onEvent(const exec::EventCtx &ctx) override;
    void onThreadStart(ThreadId tid, ThreadId parent,
                       InstrId spawnSite) override;

    /** All distinct races observed (instruction pairs + location). */
    const std::set<RaceReport> &races() const { return races_; }

    /** Distinct racing instruction pairs (order-normalized). */
    std::set<std::pair<InstrId, InstrId>> racePairs() const;

    /** Slow-path read-metadata updates (shared-read map writes and
     *  epoch-to-vector inflations).  The shared same-epoch read fast
     *  path keeps repeated reads by one thread at one epoch from
     *  inflating this count — the regression observable for the O(1)
     *  hot path. */
    std::uint64_t readSlowPathUpdates() const
    {
        return readSlowPathUpdates_;
    }

  private:
    /** One shared-read observation: the reader's clock component plus
     *  the racing-access attribution.  A dense array of these per
     *  variable replaces the old VectorClock + std::map<ThreadId,
     *  InstrId> pair — per-thread reader attribution matters so a
     *  write-read race reports the reader that actually raced (a
     *  single last-reader field would mis-attribute when an ordered
     *  reader follows the racing one), and keeping clock and instr in
     *  one entry means the write-race sweep touches one array. */
    struct ReadEntry
    {
        std::uint64_t clock = 0;
        InstrId instr = kNoInstr;
    };

    /** Shadow state of one memory cell.  Lives inline in the flat
     *  shadow table, so the common access touches one probe slot; the
     *  readers array only materializes for genuinely shared cells. */
    struct VarState
    {
        Epoch write;
        Epoch read;
        bool sharedRead = false;
        InstrId lastWriteInstr = kNoInstr;
        InstrId lastReadInstr = kNoInstr;
        /** Dense per-thread reader state, indexed by tid. */
        std::vector<ReadEntry> readers;
    };

    static std::uint64_t
    addrKey(exec::ObjectId obj, std::uint32_t off)
    {
        return (static_cast<std::uint64_t>(obj) << 32) | off;
    }

    VectorClock &clockOf(ThreadId tid);
    VectorClock &lockClockOf(exec::ObjectId obj);
    void read(ThreadId tid, const exec::EventCtx &ctx);
    void write(ThreadId tid, const exec::EventCtx &ctx);
    void report(InstrId prev, InstrId cur, const exec::EventCtx &ctx);

    std::vector<VectorClock> threads_;
    /** Lock release clocks, dense by object id (objects are heap
     *  indices, so the table is as compact as the heap itself). */
    std::vector<VectorClock> locks_;
    /** Shadow memory: (obj, off) -> VarState, open-addressed. */
    support::FlatMap<VarState> vars_;
    std::set<RaceReport> races_;
    std::uint64_t readSlowPathUpdates_ = 0;
};

} // namespace oha::dyn
