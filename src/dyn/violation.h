/**
 * @file
 * Typed mis-speculation reports.
 *
 * Section 2.3 of the paper makes rollback the safety net for every
 * optimistic assumption; what the driver does *after* rolling back
 * depends on knowing exactly which likely invariant lied.  A
 * Violation names the invariant family, the check site, and the
 * offending observed value, so:
 *  - inv::InvariantSet::demote() can remove precisely the violated
 *    fact and nothing else;
 *  - the adaptive drivers (core/optft, core/optslice) can re-run the
 *    predicated static phase and continue the corpus under a
 *    repaired plan;
 *  - an aborted run's RunResult::abortMeta carries a plain-data
 *    image of it (exec::AbortMetadata), so a grouped run's abort can
 *    be checked field for field against a standalone run's.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exec/event.h"
#include "support/common.h"

namespace oha::dyn {

/** Which likely-invariant family a violation falls in (the taxonomy
 *  of Section 3.1, plus the driver-level lock-elision rollback). */
enum class ViolationFamily : std::uint8_t
{
    None = 0,
    UnreachableBlock, ///< likely-unreachable block was entered
    CalleeSet,        ///< icall resolved outside its likely callee set
    CallContext,      ///< unprofiled calling context was pushed
    MustAliasLock,    ///< must-alias lock site/pair bound a new object
    SingletonSpawn,   ///< likely-singleton spawn site spawned again
    ElidedLockRace,   ///< race reported while lock elision was active
};

/** Stable display name for @p family ("callee-set", ...). */
const char *violationFamilyName(ViolationFamily family);

/**
 * One mis-speculation: which invariant lied, where, and what was
 * observed instead.  Field meanings by family:
 *  - UnreachableBlock: site is the BlockId entered; observed unused.
 *  - CalleeSet: site is the icall instruction, observed the resolved
 *    FuncId.
 *  - CallContext: site is the call instruction, observed the context
 *    hash, contextChain the full offending call-site chain
 *    (outermost first) — exactly what demote() must re-admit.
 *  - MustAliasLock: site is the lock site that tripped the check,
 *    partner the other pair member (== site for a single-site
 *    rebind), observed the newly locked ObjectId.
 *  - SingletonSpawn: site is the spawn instruction, observed the new
 *    spawn count.
 *  - ElidedLockRace: synthesized by the driver when
 *    optFtShouldRollBack fires on race reports under active lock
 *    elision; sites unused.
 */
struct Violation
{
    ViolationFamily family = ViolationFamily::None;
    InstrId site = kNoInstr;
    InstrId partner = kNoInstr;
    std::uint64_t observed = 0;
    ThreadId thread = 0;
    std::vector<InstrId> contextChain;

    /** Human-readable reason, identical to the historical string-only
     *  channel (drivers and tests match on these substrings). */
    std::string describe() const;

    /** Lossy plain-data image for RunResult::abortMeta (drops the
     *  context chain, which does not fit a POD). */
    exec::AbortMetadata toAbortMetadata() const;

    bool operator==(const Violation &other) const = default;
};

} // namespace oha::dyn
