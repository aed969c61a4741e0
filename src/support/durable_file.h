/**
 * @file
 * Crash-consistent on-disk containers for snapshots.
 *
 * Everything the pipeline persists — warm-start cache snapshots
 * (service/snapshot.h) — goes through one checksummed block-container
 * format and one atomic-publish protocol:
 *
 *   write <path>.tmp.<pid>  ->  fsync(file)  ->  rename(tmp, path)
 *   ->  fsync(directory)
 *
 * so a reader never observes a half-written file at the published
 * path: rename is atomic, and the directory fsync makes the rename
 * itself durable.  A crash at any point leaves either the previous
 * file or no file — never a torn one.
 *
 * Container layout (all integers little-endian, offsets 8-aligned):
 *
 *   [magic "OHADUR01" | u32 version | u32 kind | u64 blockCount
 *    | u64 headerChecksum]                                 32 bytes
 *   repeat blockCount times:
 *   [u64 payloadLen | u64 payloadChecksum] [payload] [pad to 8]
 *
 * Checksums are FNV-1a-64 (the same primary hash the cache
 * fingerprints use).  DurableReader::open verifies the magic, the
 * version, the header checksum and every block checksum before
 * returning, so a successfully opened container is fully verified —
 * callers only add semantic validation on top.  Any mismatch,
 * truncation or I/O error rejects the whole file with a reason; the
 * caller's contract is "reject, count, recompute" — corrupt state is
 * never served.
 *
 * Block payload offsets are 8-aligned by construction (32-byte
 * header, 16-byte block headers, payloads padded to 8 bytes).
 *
 * I/O fault injection: every syscall these writers issue goes
 * through the armable wrappers below, so tests and the CI fault sweep
 * can fail or crash the process at the k-th open/write/fsync/rename
 * and assert that every persist path degrades cleanly and every load
 * path rejects-or-recovers.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/common.h"
#include "support/fingerprint.h"

namespace oha::support {

// -------------------------------------------------------- fault injection

/** Faultable I/O operation classes (bitmask). */
enum : std::uint32_t
{
    kIoOpen = 1u << 0,
    kIoWrite = 1u << 1,
    kIoFsync = 1u << 2,
    kIoRename = 1u << 3,
    kIoAllOps = (1u << 4) - 1,
};

/**
 * One armed I/O fault: the first @p failAfter operations matching
 * @p opMask succeed, then every matching operation fails with
 * @p error (sticky, like a dying disk) until disarmIoFault().  With
 * @p crash set the process _exit()s at the fault point instead —
 * the moral equivalent of SIGKILL mid-write, for crash-recovery
 * tests (the op is NOT performed first).
 */
struct IoFaultPlan
{
    std::uint64_t failAfter = 0;
    std::uint32_t opMask = kIoAllOps;
    int error = 5; ///< EIO
    bool crash = false;
};

/** Exit code used by crash-mode faults (child-process tests wait for
 *  it to distinguish "crashed at the fault point" from "ran past"). */
constexpr int kIoCrashExitCode = 97;

void armIoFault(const IoFaultPlan &plan);
void disarmIoFault();
/** Matching operations observed since resetIoOpCount() (counted
 *  whether or not a fault is armed — run a path once disarmed to
 *  learn its op count, then sweep failAfter over [0, count)). */
std::uint64_t ioOpCount();
void resetIoOpCount();
/** Faults actually injected since the last arm. */
std::uint64_t ioFaultsInjected();

namespace io {

/** Syscall wrappers with fault injection; signatures mirror the
 *  wrapped calls.  All persist-path I/O MUST go through these. */
int openFd(const char *path, int flags, int mode);
long pwriteFd(int fd, const void *data, std::size_t len,
              std::uint64_t offset);
int fsyncFd(int fd);
int renamePath(const char *from, const char *to);

} // namespace io

// --------------------------------------------------- payload (de)serializer

/** Append-only little-endian byte sink for block payloads. */
class ByteWriter
{
  public:
    void
    u8(std::uint8_t value)
    {
        buf_.push_back(static_cast<char>(value));
    }

    void
    u32(std::uint32_t value)
    {
        for (unsigned shift = 0; shift < 32; shift += 8)
            buf_.push_back(static_cast<char>((value >> shift) & 0xff));
    }

    void
    u64(std::uint64_t value)
    {
        for (unsigned shift = 0; shift < 64; shift += 8)
            buf_.push_back(static_cast<char>((value >> shift) & 0xff));
    }

    void
    bytes(const void *data, std::size_t len)
    {
        buf_.append(static_cast<const char *>(data), len);
    }

    /** Length-prefixed string. */
    void
    str(const std::string &value)
    {
        u64(value.size());
        buf_.append(value);
    }

    const std::string &data() const { return buf_; }
    std::string take() { return std::move(buf_); }

  private:
    std::string buf_;
};

/**
 * Bounds-checked reader over one block payload.  Every accessor
 * checks the remaining length; a short read trips a sticky failure
 * flag and returns zero/empty from then on, so decoding adversarial
 * payloads can never read out of bounds — callers check ok() (and
 * validate element counts against remaining() before reserving) and
 * reject the entry on failure.
 */
class ByteReader
{
  public:
    ByteReader(const void *data, std::size_t size)
        : ptr_(static_cast<const std::uint8_t *>(data)),
          end_(static_cast<const std::uint8_t *>(data) + size)
    {
    }

    explicit ByteReader(const std::string &payload)
        : ByteReader(payload.data(), payload.size())
    {
    }

    bool ok() const { return ok_; }
    void fail() { ok_ = false; }
    std::size_t
    remaining() const
    {
        return static_cast<std::size_t>(end_ - ptr_);
    }

    std::uint8_t
    u8()
    {
        if (!take(1))
            return 0;
        return ptr_[-1];
    }

    std::uint32_t
    u32()
    {
        if (!take(4))
            return 0;
        const std::uint8_t *at = ptr_ - 4;
        std::uint32_t value = 0;
        for (unsigned i = 0; i < 4; ++i)
            value |= std::uint32_t{at[i]} << (8 * i);
        return value;
    }

    std::uint64_t
    u64()
    {
        if (!take(8))
            return 0;
        const std::uint8_t *at = ptr_ - 8;
        std::uint64_t value = 0;
        for (unsigned i = 0; i < 8; ++i)
            value |= std::uint64_t{at[i]} << (8 * i);
        return value;
    }

    std::string
    str()
    {
        const std::uint64_t len = u64();
        if (len > remaining()) {
            fail();
            return {};
        }
        std::string value(reinterpret_cast<const char *>(ptr_),
                          static_cast<std::size_t>(len));
        take(static_cast<std::size_t>(len));
        return value;
    }

    /** Borrow @p len raw bytes (null + fail when short). */
    const std::uint8_t *
    bytes(std::size_t len)
    {
        if (!take(len))
            return nullptr;
        return ptr_ - len;
    }

  private:
    bool
    take(std::size_t len)
    {
        if (!ok_ || remaining() < len) {
            ok_ = false;
            return false;
        }
        ptr_ += len;
        return true;
    }

    const std::uint8_t *ptr_;
    const std::uint8_t *end_;
    bool ok_ = true;
};

// ------------------------------------------------------------- containers

/** Container kinds (header field; a reader asked for one kind rejects
 *  every other).  The values are on-disk format: 1 marked trace-capture
 *  files, so it stays unused and a snapshot keeps 2. */
enum : std::uint32_t
{
    kDurableKindSnapshot = 2,
};

/**
 * Writes one container to <path>.tmp.<pid>, publishing it at @p path
 * only on commit().  Failures are sticky: the first failing syscall
 * records its errno and every later call no-ops, so callers can
 * batch blocks and check once at commit.  An uncommitted writer
 * unlinks its temp file on destruction — an interrupted persist
 * leaves the previously-published file untouched.
 */
class DurableWriter
{
  public:
    DurableWriter(std::string path, std::uint32_t kind);
    ~DurableWriter();
    DurableWriter(const DurableWriter &) = delete;
    DurableWriter &operator=(const DurableWriter &) = delete;

    bool ok() const { return fd_ >= 0; }
    /** errno of the first failure (0 while ok). */
    int error() const { return error_; }

    /** Append one block: its header, payload and padding. */
    void addBlock(const void *data, std::size_t len);
    void addBlock(const std::string &payload);

    /** Finalize the header, fsync, rename into place, fsync the
     *  directory.  False (with @p errorOut set) on any failure —
     *  the published path is untouched and the temp file removed. */
    bool commit(std::string *errorOut = nullptr);

  private:
    void failWith(const char *op);
    void write(const void *data, std::size_t len);

    std::string path_;
    std::string tempPath_;
    std::uint32_t kind_;
    int fd_ = -1;
    int error_ = 0;
    std::string errorOp_;
    std::uint64_t offset_ = 0;
    std::uint64_t blockCount_ = 0;
    bool committed_ = false;
};

/**
 * Opens and FULLY verifies a container: magic, version, kind, header
 * checksum, per-block bounds and checksums, and absence of trailing
 * garbage.  open() returns null with a reason on any defect — a
 * non-null reader's blocks are all checksum-verified.
 */
class DurableReader
{
  public:
    static std::unique_ptr<DurableReader>
    open(const std::string &path, std::uint32_t expectKind,
         std::string *errorOut = nullptr);

    ~DurableReader();
    DurableReader(const DurableReader &) = delete;
    DurableReader &operator=(const DurableReader &) = delete;

    std::size_t numBlocks() const { return blocks_.size(); }

    /** Copy block @p i's payload out (empty + false on read error —
     *  possible despite open-time verification if the medium fails
     *  between open and read). */
    bool readBlock(std::size_t i, std::string &out) const;

  private:
    DurableReader() = default;

    struct Block
    {
        std::uint64_t offset;
        std::uint64_t length;
    };

    int fd_ = -1;
    std::uint64_t fileSize_ = 0;
    std::vector<Block> blocks_;
};

/**
 * Atomically replace @p path with @p content using the same
 * temp+fsync+rename+dirsync protocol (no container framing — for
 * plain-text outputs like bench JSON reports).  An interrupted write
 * never leaves a truncated file at @p path.
 */
bool atomicWriteFile(const std::string &path, const std::string &content,
                     std::string *errorOut = nullptr);

} // namespace oha::support
