#include "exec/trace_cache.h"

#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>

#include "service/shared_cache.h"

namespace oha::exec {

namespace {

using service::Fingerprint;
using service::LruList;
using service::SharedCache;

void
appendU64(std::string &out, std::uint64_t value)
{
    for (unsigned shift = 0; shift < 64; shift += 8)
        out.push_back(static_cast<char>((value >> shift) & 0xff));
}

/** Every ExecConfig field, packed for fingerprinting — two configs
 *  with equal packings produce byte-identical recordings. */
Fingerprint
configFingerprint(const ExecConfig &config)
{
    std::string packed;
    packed.reserve((config.input.size() + config.replaySchedule.size() +
                    8) *
                   sizeof(std::uint64_t));
    appendU64(packed, config.input.size());
    for (std::int64_t word : config.input)
        appendU64(packed, static_cast<std::uint64_t>(word));
    appendU64(packed, config.scheduleSeed);
    appendU64(packed, config.maxSteps);
    appendU64(packed, config.minQuantum);
    appendU64(packed, config.maxQuantum);
    appendU64(packed, config.recordSchedule ? 1 : 0);
    appendU64(packed, config.replaySchedule.size());
    for (const ScheduleStep &step : config.replaySchedule) {
        appendU64(packed, step.thread);
        appendU64(packed, step.quantum);
    }
    return service::fingerprintText(packed);
}

struct TraceKey
{
    std::uint64_t moduleFp;
    std::uint64_t configFp;

    bool
    operator<(const TraceKey &other) const
    {
        return std::tie(moduleFp, configFp) <
               std::tie(other.moduleFp, other.configFp);
    }
};

struct Entry
{
    std::uint64_t moduleSecondary = 0;
    std::uint64_t configSecondary = 0;
    std::shared_ptr<const ir::Module> module;
    std::shared_ptr<const RecordedTrace> trace;
    LruList::Handle handle;
};

using TraceMap = std::map<TraceKey, Entry>;

/** The trace section of the shared cache, registered on first use.
 *  Callers MUST materialize this before taking the spine mutex. */
TraceMap &
section()
{
    static TraceMap *instance = [] {
        auto *map = new TraceMap;
        SharedCache::instance().registerSection([map] { map->clear(); });
        return map;
    }();
    return *instance;
}

} // namespace

std::size_t
byteSizeEstimate(const RecordedTrace &trace)
{
    const RunResult &result = trace.result;
    // Charge what the entry actually keeps resident: in-RAM segment
    // payload plus one chunk of arena slack (buffers allocate in
    // 64 KiB chunks).  Spilled segments live in the unlinked
    // overflow file and cost only their index entry here — replays
    // page them in through transient mmap windows, so a cached
    // billion-event capture does not evict the whole budget.
    return sizeof(trace) + trace.events.residentBytes() + 64 * 1024 +
           trace.events.numSegments() * (sizeof(SegmentHeader) + 64) +
           result.abortReason.capacity() +
           result.outputs.capacity() *
               sizeof(std::pair<InstrId, std::int64_t>) +
           result.delivered.capacity() * sizeof(EventCounts) +
           result.schedule.capacity() * sizeof(ScheduleStep);
}

std::shared_ptr<const RecordedTrace>
recordRunMemo(const std::shared_ptr<const ir::Module> &module,
              const ExecConfig &config)
{
    OHA_ASSERT(module && module->finalized());

    TraceMap &map = section();
    SharedCache &sc = SharedCache::instance();

    const Fingerprint moduleFp = service::fingerprintModule(module);
    const Fingerprint configFp = configFingerprint(config);
    const TraceKey key{moduleFp.primary, configFp.primary};

    std::uint64_t gen = 0;
    {
        std::lock_guard<std::mutex> lock(sc.mutex());
        gen = sc.generation();
        auto it = map.find(key);
        if (it != map.end()) {
            if (it->second.moduleSecondary == moduleFp.secondary &&
                it->second.configSecondary == configFp.secondary) {
                sc.noteHit();
                sc.lru().touch(it->second.handle);
                return it->second.trace;
            }
            // 64-bit collision: evict the wrong-keyed entry, record
            // fresh (counted, never silently served).
            sc.noteVerifiedMiss();
            sc.lru().remove(it->second.handle);
            map.erase(it);
        } else {
            sc.noteMiss();
        }
    }

    // The recording run happens outside the lock.
    auto trace =
        std::make_shared<const RecordedTrace>(recordRun(*module, config));
    const std::size_t bytes = byteSizeEstimate(*trace);

    std::lock_guard<std::mutex> lock(sc.mutex());
    if (gen != sc.generation()) {
        sc.noteStaleDrop();
        return trace;
    }
    auto it = map.find(key);
    if (it != map.end()) {
        if (it->second.moduleSecondary == moduleFp.secondary &&
            it->second.configSecondary == configFp.secondary)
            return it->second.trace; // first insert wins
        sc.lru().remove(it->second.handle);
        map.erase(it);
    }
    Entry entry;
    entry.moduleSecondary = moduleFp.secondary;
    entry.configSecondary = configFp.secondary;
    entry.module = module;
    entry.trace = std::move(trace);
    auto [pos, inserted] = map.emplace(key, std::move(entry));
    OHA_ASSERT(inserted);
    pos->second.handle =
        sc.lru().insert(bytes, [&map, key] { map.erase(key); });
    std::shared_ptr<const RecordedTrace> shared = pos->second.trace;
    sc.enforceBudget();
    return shared;
}

std::vector<TraceSectionEntry>
exportTraceSection()
{
    TraceMap &map = section();
    SharedCache &sc = SharedCache::instance();
    std::vector<TraceSectionEntry> out;
    std::lock_guard<std::mutex> lock(sc.mutex());
    out.reserve(map.size());
    for (const auto &[key, entry] : map) {
        out.push_back({{key.moduleFp, entry.moduleSecondary},
                       {key.configFp, entry.configSecondary},
                       entry.trace});
    }
    return out;
}

void
admitTraceSectionEntry(const TraceSectionEntry &entry)
{
    if (!entry.trace)
        return;
    TraceMap &map = section();
    SharedCache &sc = SharedCache::instance();
    const TraceKey key{entry.moduleFp.primary, entry.configFp.primary};
    const std::size_t bytes = byteSizeEstimate(*entry.trace);
    std::lock_guard<std::mutex> lock(sc.mutex());
    if (map.find(key) != map.end())
        return; // first insert wins: never displace a live entry
    Entry stored;
    stored.moduleSecondary = entry.moduleFp.secondary;
    stored.configSecondary = entry.configFp.secondary;
    // No module object: restored entries verify fingerprints only.
    stored.trace = entry.trace;
    auto [pos, inserted] = map.emplace(key, std::move(stored));
    OHA_ASSERT(inserted);
    pos->second.handle =
        sc.lru().insert(bytes, [&map, key] { map.erase(key); });
    sc.enforceBudget();
}

} // namespace oha::exec
