/**
 * @file
 * Runtime verification of likely invariants (the speculation checks
 * of Section 2.3).
 *
 * The checker is a Tool attached alongside the main dynamic analysis.
 * Its InstrumentationPlan covers exactly the cheap check sites:
 *  - entries of likely-unreachable blocks (a bare violation call);
 *  - indirect call sites with likely callee sets;
 *  - all call/return sites when call-context checking is on, with a
 *    per-thread incremental context hash, a confirmed-context cache,
 *    and a Bloom filter in front of the exact set (Section 5.2.3);
 *  - lock sites involved in must-alias pairs;
 *  - likely-singleton spawn sites.
 *
 * On the first violated check it aborts the execution with a typed
 * dyn::Violation; the driver rolls back, re-runs under traditional
 * hybrid analysis and — in adaptive mode — demotes the lying
 * invariant so the rest of the corpus runs under a repaired plan.
 *
 * Per-event state lives in support::FlatMap / sorted flat vectors
 * (lock bindings, spawn counts, pair adjacency), not node-based maps:
 * these are touched on every delivered Lock/Spawn event, the same
 * hot-path discipline as the FastTrack/Giri shadow state.
 */

#pragma once

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dyn/violation.h"
#include "exec/interpreter.h"
#include "invariants/invariant_set.h"
#include "support/bloom_filter.h"
#include "support/flat_map.h"

namespace oha::dyn {

/** Which invariant families the client analysis relies on. */
struct CheckerConfig
{
    bool unreachableCode = true;
    bool calleeSets = true;
    bool callContexts = false;
    bool guardingLocks = true;
    bool singletonThreads = true;
};

/** Runtime likely-invariant checker. */
class InvariantChecker : public exec::Tool
{
  public:
    InvariantChecker(const ir::Module &module,
                     const inv::InvariantSet &invariants,
                     CheckerConfig config);

    /** The plan covering exactly this checker's check sites. */
    const exec::InstrumentationPlan &plan() const { return plan_; }

    /** Must be set before the run so violations can abort it: the
     *  Interpreter, or the control(group) of the attachment group the
     *  checker joins.  Without a control, a violation is only
     *  recorded (violated()) and the run goes on. */
    void setControl(exec::ExecutionControl *control) { control_ = control; }

    void onEvent(const exec::EventCtx &ctx) override;
    void onBlockEnter(ThreadId tid, BlockId block) override;
    void onThreadStart(ThreadId tid, ThreadId parent,
                       InstrId spawnSite) override;

    bool violated() const { return violated_; }
    const std::string &violationReason() const { return reason_; }

    /** The typed first violation (family None when !violated()). */
    const Violation &violation() const { return violation_; }

    /** Exact-set context probes that the Bloom filter + confirmed
     *  cache could not elide (the expensive path of Section 5.2.3). */
    std::uint64_t slowContextChecks() const { return slowChecks_; }

  private:
    void violate(Violation violation);

    const ir::Module &module_;
    const inv::InvariantSet &invariants_;
    CheckerConfig config_;
    exec::InstrumentationPlan plan_;
    exec::ExecutionControl *control_ = nullptr;

    // Call-context tracking.
    struct ThreadCtxState
    {
        std::vector<std::uint64_t> hashStack; ///< hash per depth
        std::vector<InstrId> siteStack;       ///< call site per depth
    };
    std::unordered_map<ThreadId, ThreadCtxState> ctxState_;
    BloomFilter contextBloom_;
    std::unordered_set<std::uint64_t> confirmedContexts_;

    // Guarding-lock tracking: first object each checked site locked.
    support::FlatMap<exec::ObjectId> boundLockObject_;
    /** Must-alias pair adjacency, CSR layout: pairSites_ sorted, the
     *  partners of pairSites_[i] are pairPartners_[pairOffsets_[i] ..
     *  pairOffsets_[i + 1]).  Single-object sites (reflexive pairs)
     *  appear with an empty partner range. */
    std::vector<InstrId> pairSites_;
    std::vector<std::uint32_t> pairOffsets_;
    std::vector<InstrId> pairPartners_;

    // Singleton-spawn tracking.
    support::FlatMap<std::uint32_t> spawnCounts_;

    bool violated_ = false;
    std::string reason_;
    Violation violation_;
    std::uint64_t slowChecks_ = 0;
};

} // namespace oha::dyn
