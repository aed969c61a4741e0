#include "invariants/invariant_set.h"

#include <sstream>

#include "dyn/violation.h"

namespace oha::inv {

bool
InvariantSet::demote(const dyn::Violation &violation)
{
    using dyn::ViolationFamily;
    switch (violation.family) {
      case ViolationFamily::UnreachableBlock: {
        const BlockId block = violation.site;
        if (visitedBlocks.contains(block))
            return false;
        visitedBlocks.insert(block);
        return true;
      }
      case ViolationFamily::CalleeSet: {
        // Widen, don't drop: to the predicated analyses a missing
        // entry means the site never executes at all (profiler output
        // only omits sites in likely-unreachable code), which would
        // make the repaired plan *stronger* with no check guarding it.
        auto it = calleeSets.find(violation.site);
        if (it == calleeSets.end())
            return false;
        return it->second.insert(static_cast<FuncId>(violation.observed))
            .second;
      }
      case ViolationFamily::CallContext:
        // Admit the offending chain plus every prefix — the same
        // closure the profiler maintains.
        return callContexts.insert(violation.contextChain);
      case ViolationFamily::MustAliasLock: {
        if (violation.partner == violation.site) {
            // The site itself is not single-object: no pair that
            // includes it can survive.
            bool changed = false;
            for (auto it = mustAliasLocks.begin();
                 it != mustAliasLocks.end();) {
                if (it->first == violation.site ||
                    it->second == violation.site) {
                    it = mustAliasLocks.erase(it);
                    changed = true;
                } else {
                    ++it;
                }
            }
            return changed;
        }
        InstrId a = violation.site;
        InstrId b = violation.partner;
        if (a > b)
            std::swap(a, b);
        return mustAliasLocks.erase({a, b}) > 0;
      }
      case ViolationFamily::SingletonSpawn:
        return singletonSpawnSites.erase(violation.site) > 0;
      case ViolationFamily::ElidedLockRace: {
        const bool changed = !elidableLockSites.empty();
        elidableLockSites.clear();
        return changed;
      }
      case ViolationFamily::None:
        return false;
    }
    return false;
}

std::size_t
InvariantSet::factCount() const
{
    std::size_t n = visitedBlocks.size();
    for (const auto &[site, callees] : calleeSets)
        n += callees.size();
    n += callContexts.size();
    n += mustAliasLocks.size();
    n += singletonSpawnSites.size();
    n += elidableLockSites.size();
    return n;
}

std::string
InvariantSet::saveText() const
{
    std::ostringstream os;
    os << "oha-invariants v1\n";
    os << "numblocks " << numBlocks << "\n";

    os << "visited";
    visitedBlocks.forEach([&](std::uint32_t b) { os << " " << b; });
    os << "\n";

    for (const auto &[site, callees] : calleeSets) {
        os << "callees " << site;
        for (FuncId f : callees)
            os << " " << f;
        os << "\n";
    }

    if (hasCallContexts)
        os << "contexts-profiled\n";
    for (const CallContext &context : callContexts.chains()) {
        os << "context";
        for (InstrId site : context)
            os << " " << site;
        os << "\n";
    }

    for (const auto &[a, b] : mustAliasLocks)
        os << "lockalias " << a << " " << b << "\n";

    for (InstrId site : singletonSpawnSites)
        os << "singleton " << site << "\n";

    for (InstrId site : elidableLockSites)
        os << "elidable-lock " << site << "\n";

    return os.str();
}

bool
InvariantSet::operator==(const InvariantSet &other) const
{
    return numBlocks == other.numBlocks &&
           visitedBlocks == other.visitedBlocks &&
           calleeSets == other.calleeSets &&
           callContexts == other.callContexts &&
           mustAliasLocks == other.mustAliasLocks &&
           singletonSpawnSites == other.singletonSpawnSites &&
           elidableLockSites == other.elidableLockSites &&
           hasCallContexts == other.hasCallContexts;
}

} // namespace oha::inv
