#include "service/snapshot.h"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include <sys/stat.h>

#include "analysis/andersen_cache.h"
#include "profile/observation_cache.h"
#include "support/durable_file.h"

namespace oha::service {

namespace {

using support::ByteReader;
using support::ByteWriter;

// Entry tags (first payload byte of every entry block).  Tag 1 held
// trace captures in older snapshots: never reuse it, so such an entry
// is rejected as an unknown tag.
constexpr std::uint8_t kTagObservation = 2;
constexpr std::uint8_t kTagRace = 3;
constexpr std::uint8_t kTagSlice = 4;

std::atomic<std::uint64_t> g_writes{0};
std::atomic<std::uint64_t> g_writeFailures{0};
std::atomic<std::uint64_t> g_loads{0};
std::atomic<std::uint64_t> g_loadRejects{0};
std::atomic<std::uint64_t> g_entriesRestored{0};
std::atomic<std::uint64_t> g_entriesRejected{0};
std::atomic<int> g_lastErrno{0};

void
putFingerprint(ByteWriter &out, const Fingerprint &fp)
{
    out.u64(fp.primary);
    out.u64(fp.secondary);
}

Fingerprint
getFingerprint(ByteReader &in)
{
    Fingerprint fp;
    fp.primary = in.u64();
    fp.secondary = in.u64();
    return fp;
}

// ----------------------------------------------------- section payloads

bool
putInstrSet(ByteWriter &out, const std::set<InstrId> &set)
{
    out.u64(set.size());
    for (InstrId id : set)
        out.u64(id);
    return true;
}

bool
getInstrSet(ByteReader &in, std::set<InstrId> &set)
{
    const std::uint64_t count = in.u64();
    if (count > in.remaining() / 8)
        return false;
    for (std::uint64_t i = 0; i < count && in.ok(); ++i) {
        const std::uint64_t id = in.u64();
        if (id > kNoInstr)
            return false;
        set.insert(set.end(), static_cast<InstrId>(id));
    }
    return in.ok();
}

void
putPairSet(ByteWriter &out, const std::set<std::pair<InstrId, InstrId>> &set)
{
    out.u64(set.size());
    for (const auto &[a, b] : set) {
        out.u64(a);
        out.u64(b);
    }
}

bool
getPairSet(ByteReader &in, std::set<std::pair<InstrId, InstrId>> &set)
{
    const std::uint64_t count = in.u64();
    if (count > in.remaining() / 16)
        return false;
    for (std::uint64_t i = 0; i < count && in.ok(); ++i) {
        const std::uint64_t a = in.u64();
        const std::uint64_t b = in.u64();
        if (a > kNoInstr || b > kNoInstr)
            return false;
        set.insert(set.end(),
                   {static_cast<InstrId>(a), static_cast<InstrId>(b)});
    }
    return in.ok();
}

void
serializeRace(ByteWriter &out, const analysis::StaticRaceResult &result)
{
    putInstrSet(out, result.racyAccesses);
    putPairSet(out, result.racyPairs);
    putPairSet(out, result.usedLockAliases);
    putInstrSet(out, result.usedSingletonSites);
    out.u64(result.workUnits);
    out.u64(result.accessesConsidered);
}

bool
deserializeRace(ByteReader &in, analysis::StaticRaceResult &result)
{
    if (!getInstrSet(in, result.racyAccesses))
        return false;
    if (!getPairSet(in, result.racyPairs))
        return false;
    if (!getPairSet(in, result.usedLockAliases))
        return false;
    if (!getInstrSet(in, result.usedSingletonSites))
        return false;
    result.workUnits = in.u64();
    result.accessesConsidered = static_cast<std::size_t>(in.u64());
    return in.ok();
}

void
serializeSlices(ByteWriter &out, const analysis::SliceSetResult &result)
{
    out.u64(result.slices.size());
    for (const std::set<InstrId> &slice : result.slices)
        putInstrSet(out, slice);
    out.u8(result.contextSensitive ? 1 : 0);
    out.u8(result.complete ? 1 : 0);
    out.u64(result.workUnits);
}

bool
deserializeSlices(ByteReader &in, analysis::SliceSetResult &result)
{
    const std::uint64_t numSlices = in.u64();
    // Each slice costs at least its count word.
    if (numSlices > in.remaining() / 8)
        return false;
    result.slices.resize(static_cast<std::size_t>(numSlices));
    for (std::set<InstrId> &slice : result.slices)
        if (!getInstrSet(in, slice))
            return false;
    const std::uint8_t contextSensitive = in.u8();
    const std::uint8_t complete = in.u8();
    if (contextSensitive > 1 || complete > 1)
        return false;
    result.contextSensitive = contextSensitive != 0;
    result.complete = complete != 0;
    result.workUnits = in.u64();
    return in.ok();
}

void
serializeObservations(ByteWriter &out,
                      const prof::RunObservations &observations)
{
    out.u64(observations.blockCounts.size());
    for (const auto &[block, count] : observations.blockCounts) {
        out.u64(block);
        out.u64(count);
    }
    out.u64(observations.calleeSets.size());
    for (const auto &[instr, callees] : observations.calleeSets) {
        out.u64(instr);
        out.u64(callees.size());
        for (FuncId callee : callees)
            out.u64(callee);
    }
    out.u64(observations.callContexts.size());
    for (const inv::CallContext &context :
         observations.callContexts.chains()) {
        out.u64(context.size());
        for (InstrId site : context)
            out.u64(site);
    }
    out.u64(observations.lockObjects.size());
    for (const auto &[instr, objects] : observations.lockObjects) {
        out.u64(instr);
        out.u64(objects.size());
        for (exec::ObjectId object : objects)
            out.u64(object);
    }
    out.u64(observations.spawnCounts.size());
    for (const auto &[instr, count] : observations.spawnCounts) {
        out.u64(instr);
        out.u64(count);
    }
    out.u64(observations.steps);
    out.u32(static_cast<std::uint32_t>(observations.status));
}

bool
deserializeObservations(ByteReader &in,
                        prof::RunObservations &observations)
{
    const std::uint64_t numBlocks = in.u64();
    if (numBlocks > in.remaining() / 16)
        return false;
    observations.blockCounts.reserve(
        static_cast<std::size_t>(numBlocks));
    for (std::uint64_t i = 0; i < numBlocks && in.ok(); ++i) {
        const std::uint64_t block = in.u64();
        const std::uint64_t count = in.u64();
        if (block > kNoInstr)
            return false;
        observations.blockCounts.push_back(
            {static_cast<BlockId>(block), count});
    }
    const std::uint64_t numCallees = in.u64();
    if (numCallees > in.remaining() / 16)
        return false;
    observations.calleeSets.reserve(
        static_cast<std::size_t>(numCallees));
    for (std::uint64_t i = 0; i < numCallees && in.ok(); ++i) {
        const std::uint64_t instr = in.u64();
        const std::uint64_t count = in.u64();
        if (instr > kNoInstr || count > in.remaining() / 8)
            return false;
        std::vector<FuncId> callees;
        callees.reserve(static_cast<std::size_t>(count));
        for (std::uint64_t j = 0; j < count && in.ok(); ++j) {
            const std::uint64_t callee = in.u64();
            if (callee > kNoInstr)
                return false;
            callees.push_back(static_cast<FuncId>(callee));
        }
        observations.calleeSets.push_back(
            {static_cast<InstrId>(instr), std::move(callees)});
    }
    // Contexts come as the profiler writes them: sorted, distinct,
    // closed under prefixes and within the depth cap, so each chain
    // adds exactly one new chain to the table.
    const std::uint64_t numContexts = in.u64();
    if (numContexts > in.remaining() / 8)
        return false;
    inv::CallContext previous;
    for (std::uint64_t i = 0; i < numContexts && in.ok(); ++i) {
        const std::uint64_t length = in.u64();
        if (length == 0 || length > inv::kMaxContextDepth ||
            length > in.remaining() / 8)
            return false;
        inv::CallContext context;
        context.reserve(static_cast<std::size_t>(length));
        for (std::uint64_t j = 0; j < length && in.ok(); ++j) {
            const std::uint64_t site = in.u64();
            if (site > kNoInstr)
                return false;
            context.push_back(static_cast<InstrId>(site));
        }
        const std::size_t before = observations.callContexts.size();
        observations.callContexts.insert(context);
        if (!(previous < context) ||
            observations.callContexts.size() != before + 1)
            return false;
        previous = std::move(context);
    }
    const std::uint64_t numLocks = in.u64();
    if (numLocks > in.remaining() / 16)
        return false;
    observations.lockObjects.reserve(static_cast<std::size_t>(numLocks));
    for (std::uint64_t i = 0; i < numLocks && in.ok(); ++i) {
        const std::uint64_t instr = in.u64();
        const std::uint64_t count = in.u64();
        if (instr > kNoInstr || count > in.remaining() / 8)
            return false;
        std::vector<exec::ObjectId> objects;
        objects.reserve(static_cast<std::size_t>(count));
        for (std::uint64_t j = 0; j < count && in.ok(); ++j) {
            const std::uint64_t object = in.u64();
            if (object > kNoInstr)
                return false;
            objects.push_back(static_cast<exec::ObjectId>(object));
        }
        observations.lockObjects.push_back(
            {static_cast<InstrId>(instr), std::move(objects)});
    }
    const std::uint64_t numSpawns = in.u64();
    if (numSpawns > in.remaining() / 16)
        return false;
    observations.spawnCounts.reserve(
        static_cast<std::size_t>(numSpawns));
    for (std::uint64_t i = 0; i < numSpawns && in.ok(); ++i) {
        const std::uint64_t instr = in.u64();
        const std::uint64_t count = in.u64();
        if (instr > kNoInstr)
            return false;
        observations.spawnCounts.push_back(
            {static_cast<InstrId>(instr), count});
    }
    observations.steps = in.u64();
    const std::uint32_t status = in.u32();
    if (status >
        static_cast<std::uint32_t>(exec::RunResult::Status::StepLimit))
        return false;
    observations.status = static_cast<exec::RunResult::Status>(status);
    return in.ok();
}

// ------------------------------------------------------ entry blocks

/** Key fields an entry carries: observation and race entries key on
 *  (module, subject) alone; slice entries add the config word and the
 *  endpoint fingerprint. */
void
putKey(ByteWriter &out, std::uint8_t tag, const CacheKey &key)
{
    putFingerprint(out, key.module);
    putFingerprint(out, key.subject);
    if (tag == kTagSlice) {
        out.u64(key.config);
        putFingerprint(out, key.aux);
    }
}

CacheKey
getKey(ByteReader &in, std::uint8_t tag)
{
    CacheKey key;
    key.module = getFingerprint(in);
    key.subject = getFingerprint(in);
    if (tag == kTagSlice) {
        key.config = in.u64();
        key.aux = getFingerprint(in);
    }
    return key;
}

/** Append one block per entry of Result's section, in key order.  The
 *  export takes the spine lock once; serialization runs outside it
 *  (entries are immutable shared_ptrs), so requests keep flowing. */
template <typename Result>
void
appendBlocks(std::vector<std::string> &blocks, std::uint8_t tag,
             void (*serialize)(ByteWriter &, const Result &))
{
    for (const MemoEntry<Result> &entry :
         MemoSection<Result>::instance().exportEntries()) {
        ByteWriter out;
        out.u8(tag);
        putKey(out, tag, entry.key);
        serialize(out, *entry.result);
        blocks.push_back(out.take());
    }
}

/** What became of one entry block at load. */
enum class Restore
{
    Linked,   ///< admitted into its section
    KeptLive, ///< valid, but a live entry already holds its key
    Invalid,  ///< semantically invalid (or an unknown tag)
};

/** Decode the rest of a @p tag block and admit it into Result's
 *  section. */
template <typename Result>
Restore
admitBlock(ByteReader &in, std::uint8_t tag,
           bool (*deserialize)(ByteReader &, Result &))
{
    MemoEntry<Result> entry;
    entry.key = getKey(in, tag);
    auto result = std::make_shared<Result>();
    if (!in.ok() || !deserialize(in, *result) || in.remaining() != 0)
        return Restore::Invalid;
    entry.result = std::move(result);
    return MemoSection<Result>::instance().admit(entry) ? Restore::Linked
                                                        : Restore::KeptLive;
}

/** Decode and admit one entry block. */
Restore
restoreEntry(const std::string &payload)
{
    ByteReader in(payload);
    const std::uint8_t tag = in.u8();
    switch (tag) {
      case kTagObservation:
        return admitBlock(in, tag, &deserializeObservations);
      case kTagRace:
        return admitBlock(in, tag, &deserializeRace);
      case kTagSlice:
        return admitBlock(in, tag, &deserializeSlices);
      default:
        return Restore::Invalid; // unknown tag: written by a newer version
    }
}

} // namespace

SnapshotStats
snapshotStats()
{
    SnapshotStats stats;
    stats.writes = g_writes.load(std::memory_order_relaxed);
    stats.writeFailures = g_writeFailures.load(std::memory_order_relaxed);
    stats.loads = g_loads.load(std::memory_order_relaxed);
    stats.loadRejects = g_loadRejects.load(std::memory_order_relaxed);
    stats.entriesRestored =
        g_entriesRestored.load(std::memory_order_relaxed);
    stats.entriesRejected =
        g_entriesRejected.load(std::memory_order_relaxed);
    stats.lastErrno = g_lastErrno.load(std::memory_order_relaxed);
    return stats;
}

std::string
defaultSnapshotPath(const std::string &stateDir)
{
    return stateDir + "/oha-cache.snapshot";
}

bool
writeSnapshot(const std::string &path, std::string *errorOut)
{
    std::vector<std::string> blocks;
    appendBlocks(blocks, kTagObservation, &serializeObservations);
    appendBlocks(blocks, kTagRace, &serializeRace);
    appendBlocks(blocks, kTagSlice, &serializeSlices);

    support::DurableWriter writer(path, support::kDurableKindSnapshot);
    ByteWriter meta;
    meta.u32(kSnapshotVersion);
    meta.u64(blocks.size());
    writer.addBlock(meta.data());
    for (const std::string &block : blocks)
        writer.addBlock(block);

    std::string error;
    if (!writer.commit(&error)) {
        g_writeFailures.fetch_add(1, std::memory_order_relaxed);
        g_lastErrno.store(writer.error(), std::memory_order_relaxed);
        if (errorOut)
            *errorOut = error;
        OHA_WARN("cache snapshot failed (continuing in-memory): %s",
                 error.c_str());
        return false;
    }
    g_writes.fetch_add(1, std::memory_order_relaxed);
    return true;
}

bool
loadSnapshot(const std::string &path, std::string *errorOut)
{
    // A missing snapshot is a normal cold start, not a defect.
    struct ::stat st;
    if (::stat(path.c_str(), &st) != 0 && errno == ENOENT) {
        if (errorOut)
            *errorOut = path + ": no snapshot";
        return false;
    }

    std::string error;
    auto reader = support::DurableReader::open(
        path, support::kDurableKindSnapshot, &error);
    if (!reader) {
        g_loadRejects.fetch_add(1, std::memory_order_relaxed);
        OHA_WARN("rejecting cache snapshot: %s", error.c_str());
        if (errorOut)
            *errorOut = error;
        return false;
    }

    const auto rejectAll = [&](const std::string &reason) {
        g_loadRejects.fetch_add(1, std::memory_order_relaxed);
        if (errorOut)
            *errorOut = path + ": " + reason;
        OHA_WARN("rejecting cache snapshot %s: %s", path.c_str(),
                 reason.c_str());
        return false;
    };

    if (reader->numBlocks() < 1)
        return rejectAll("no meta block");
    std::string metaBytes;
    if (!reader->readBlock(0, metaBytes))
        return rejectAll("meta block unreadable");
    ByteReader metaIn(metaBytes);
    if (metaIn.u32() != kSnapshotVersion)
        return rejectAll("unsupported snapshot version");
    const std::uint64_t numEntries = metaIn.u64();
    if (!metaIn.ok() || metaIn.remaining() != 0)
        return rejectAll("corrupt meta block");
    if (reader->numBlocks() != 1 + numEntries)
        return rejectAll("block count does not match entry count");

    std::uint64_t restored = 0;
    std::uint64_t rejected = 0;
    std::string payload;
    for (std::uint64_t i = 0; i < numEntries; ++i) {
        if (!reader->readBlock(static_cast<std::size_t>(1 + i),
                               payload)) {
            ++rejected;
            continue;
        }
        switch (restoreEntry(payload)) {
          case Restore::Linked:
            ++restored;
            break;
          case Restore::KeptLive:
            break; // the live entry keeps serving; nothing is wrong
          case Restore::Invalid:
            ++rejected;
            break;
        }
    }
    g_loads.fetch_add(1, std::memory_order_relaxed);
    g_entriesRestored.fetch_add(restored, std::memory_order_relaxed);
    g_entriesRejected.fetch_add(rejected, std::memory_order_relaxed);
    if (rejected > 0)
        OHA_WARN("cache snapshot %s: restored %llu entries, rejected "
                 "%llu",
                 path.c_str(),
                 static_cast<unsigned long long>(restored),
                 static_cast<unsigned long long>(rejected));
    return true;
}

} // namespace oha::service
