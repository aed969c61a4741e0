/**
 * @file
 * Deterministic fault injection for the misspeculation recovery path.
 *
 * Rollback, demotion and the circuit breaker are safety mechanisms:
 * on well-profiled workloads they almost never fire, which means
 * nothing exercises them unless we make speculation lose on purpose.
 * The injector perturbs a profiled InvariantSet so that running the
 * given corpus *must* trip a chosen violation family:
 *  - UnreachableBlock: un-visit a block the corpus executes;
 *  - CalleeSet: drop a callee the corpus resolves at an icall site;
 *  - CallContext: forget a call context the corpus pushes;
 *  - MustAliasLock: assert must-alias for a site (or pair) the corpus
 *    observably re-binds (or diverges);
 *  - SingletonSpawn: assert spawn-once for a site the corpus spawns
 *    from more than once.
 *
 * Candidates come from profiled observation runs of the corpus
 * itself (live, or served by the campaign's observer), so every
 * injected fault is guaranteed to be detected by the InvariantChecker
 * on some corpus input.  Selection is driven by a seeded support::Rng
 * (OHA_FAULT_SEED in CI), so sweeps are reproducible and independent
 * of thread count.
 *
 * A second fault domain targets the durability layer: the persist
 * paths (support/durable_file.h) issue every syscall through armable
 * wrappers, and the helpers below turn "fail the k-th I/O op" into
 * seeded, reproducible sweeps — measure a healthy run's op count,
 * pick fault points, arm one per run, and assert every interruption
 * degrades to reject-count-recompute.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dyn/violation.h"
#include "exec/interpreter.h"
#include "invariants/invariant_set.h"
#include "profile/profiler.h"
#include "support/durable_file.h"

namespace oha::dyn {

/** One perturbation applied to an invariant set. */
struct FaultInjection
{
    ViolationFamily family = ViolationFamily::None;
    InstrId site = kNoInstr;    ///< perturbed site / block id
    InstrId partner = kNoInstr; ///< partner lock site (pair injections)
    std::uint64_t detail = 0;   ///< family-specific (e.g. dropped callee)

    std::string describe() const;

    bool operator==(const FaultInjection &other) const = default;
};

struct FaultInjectorOptions
{
    /** Selection seed; every choice derives from it deterministically. */
    std::uint64_t seed = 1;
    /** Families to perturb, in order.  Families without a viable
     *  candidate on the given corpus are skipped. */
    std::vector<ViolationFamily> families = {
        ViolationFamily::UnreachableBlock,
        ViolationFamily::CalleeSet,
        ViolationFamily::MustAliasLock,
        ViolationFamily::SingletonSpawn,
    };
};

/** OHA_FAULT_SEED environment value, or 0 when unset/invalid. */
std::uint64_t faultSeedFromEnv();

// ------------------------------------------------------ I/O fault domain

/** One point in an I/O fault sweep: the @p failAfter-th operation
 *  matching @p opMask fails with @p error — or, with @p crash, the
 *  process _exit()s there (support::kIoCrashExitCode). */
struct IoFaultPoint
{
    std::uint64_t failAfter = 0;
    std::uint32_t opMask = support::kIoAllOps;
    int error = 5; ///< EIO
    bool crash = false;

    std::string describe() const;
};

/** Run @p body with faults disarmed and return how many faultable
 *  I/O operations (all classes) it performed — the sweep's op-count
 *  baseline.  With a restricted opMask, points past the matching-op
 *  count simply never fire (check ScopedIoFault::fired()). */
std::uint64_t countIoOps(const std::function<void()> &body);

/**
 * Seed-deterministic fault points covering an op-count of @p opCount:
 * exhaustive when opCount <= maxPoints, otherwise a seeded sample
 * that always includes the first and last operation (the two edges
 * where partial state is most asymmetric).  Empty when opCount is 0.
 */
std::vector<IoFaultPoint>
pickIoFaultPoints(std::uint64_t opCount, std::size_t maxPoints,
                  std::uint64_t seed,
                  std::uint32_t opMask = support::kIoAllOps,
                  bool crash = false);

/** Arms one fault point for the current scope; disarms (and leaves
 *  the op counter readable) on destruction. */
class ScopedIoFault
{
  public:
    explicit ScopedIoFault(const IoFaultPoint &point)
    {
        support::IoFaultPlan plan;
        plan.failAfter = point.failAfter;
        plan.opMask = point.opMask;
        plan.error = point.error;
        plan.crash = point.crash;
        support::resetIoOpCount();
        support::armIoFault(plan);
    }

    ~ScopedIoFault() { support::disarmIoFault(); }

    ScopedIoFault(const ScopedIoFault &) = delete;
    ScopedIoFault &operator=(const ScopedIoFault &) = delete;

    /** Whether the armed fault actually fired. */
    bool
    fired() const
    {
        return support::ioFaultsInjected() > 0;
    }
};

/** Perturbs invariant sets so a corpus provably mis-speculates. */
class FaultInjector
{
  public:
    FaultInjector(const ir::Module &module, FaultInjectorOptions options);

    /**
     * Observe @p corpus, one profiled run per input in corpus order,
     * then apply one perturbation per requested family to
     * @p invariants.  Returns the injections actually applied.
     *
     * @p observe, when set, is the source of each input's
     * observations — typically the profiling campaign's own observer
     * (e.g. the shared observation cache), so a warm request does not
     * re-profile its corpus.  It must record call contexts exactly
     * when wantsCallContexts() does; unset, the corpus is profiled
     * live with that setting.
     */
    std::vector<FaultInjection>
    inject(inv::InvariantSet &invariants,
           const std::vector<exec::ExecConfig> &corpus,
           const prof::Observer &observe = {}) const;

    /** Whether the CallContext family is requested, i.e. whether the
     *  corpus observations must carry call contexts. */
    bool wantsCallContexts() const;

  private:
    const ir::Module &module_;
    FaultInjectorOptions options_;
};

} // namespace oha::dyn
