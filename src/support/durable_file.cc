#include "support/durable_file.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace oha::support {

// -------------------------------------------------------- fault injection

namespace {

// Armed plan, shared by every thread doing persist-path I/O.  The
// counters are plain atomics: the sweep tests arm, run one persist
// path, and disarm — precision under concurrent arming is not a
// requirement, never crashing is.
std::atomic<bool> g_armed{false};
std::atomic<std::uint64_t> g_remaining{0}; ///< matching ops before fault
std::atomic<std::uint32_t> g_opMask{kIoAllOps};
std::atomic<int> g_error{5};
std::atomic<bool> g_crash{false};
std::atomic<std::uint64_t> g_ops{0};
std::atomic<std::uint64_t> g_injected{0};

/** True when this matching op must fail (or crash) now. */
bool
faultHere(std::uint32_t op)
{
    g_ops.fetch_add(1, std::memory_order_relaxed);
    if (!g_armed.load(std::memory_order_acquire))
        return false;
    if (!(g_opMask.load(std::memory_order_relaxed) & op))
        return false;
    // Decrement the countdown until it pins at zero; from then on
    // every matching op faults (sticky, like a failing disk).
    std::uint64_t remaining =
        g_remaining.load(std::memory_order_relaxed);
    while (remaining > 0 &&
           !g_remaining.compare_exchange_weak(
               remaining, remaining - 1, std::memory_order_relaxed)) {
    }
    if (remaining > 0)
        return false;
    g_injected.fetch_add(1, std::memory_order_relaxed);
    if (g_crash.load(std::memory_order_relaxed)) {
        // Simulated SIGKILL at the fault point: no atexit handlers,
        // no buffers flushed, the op itself never happens.
        ::_exit(kIoCrashExitCode);
    }
    return true;
}

} // namespace

std::string
IoFaultPlan::describe() const
{
    std::string out = crash ? "crash at io op " : "fail io op ";
    out += std::to_string(failAfter);
    out += " (mask " + std::to_string(opMask) + ", errno " +
           std::to_string(error) + ")";
    return out;
}

void
armIoFault(const IoFaultPlan &plan)
{
    g_remaining.store(plan.failAfter, std::memory_order_relaxed);
    g_opMask.store(plan.opMask, std::memory_order_relaxed);
    g_error.store(plan.error, std::memory_order_relaxed);
    g_crash.store(plan.crash, std::memory_order_relaxed);
    g_injected.store(0, std::memory_order_relaxed);
    g_armed.store(true, std::memory_order_release);
}

void
disarmIoFault()
{
    g_armed.store(false, std::memory_order_release);
}

std::uint64_t
ioOpCount()
{
    return g_ops.load(std::memory_order_relaxed);
}

void
resetIoOpCount()
{
    g_ops.store(0, std::memory_order_relaxed);
}

std::uint64_t
ioFaultsInjected()
{
    return g_injected.load(std::memory_order_relaxed);
}

namespace io {

int
openFd(const char *path, int flags, int mode)
{
    if (faultHere(kIoOpen)) {
        errno = g_error.load(std::memory_order_relaxed);
        return -1;
    }
    return ::open(path, flags, mode);
}

long
pwriteFd(int fd, const void *data, std::size_t len, std::uint64_t offset)
{
    if (faultHere(kIoWrite)) {
        errno = g_error.load(std::memory_order_relaxed);
        return -1;
    }
    return static_cast<long>(
        ::pwrite(fd, data, len, static_cast<::off_t>(offset)));
}

int
fsyncFd(int fd)
{
    if (faultHere(kIoFsync)) {
        errno = g_error.load(std::memory_order_relaxed);
        return -1;
    }
    return ::fsync(fd);
}

int
renamePath(const char *from, const char *to)
{
    if (faultHere(kIoRename)) {
        errno = g_error.load(std::memory_order_relaxed);
        return -1;
    }
    return ::rename(from, to);
}

} // namespace io

// ------------------------------------------------------------------ writer

namespace {

constexpr char kMagic[8] = {'O', 'H', 'A', 'D', 'U', 'R', '0', '1'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::size_t kHeaderBytes = 32;
constexpr std::size_t kBlockHeaderBytes = 16;

void
putU32(std::uint8_t *out, std::uint32_t value)
{
    for (unsigned i = 0; i < 4; ++i)
        out[i] = static_cast<std::uint8_t>((value >> (8 * i)) & 0xff);
}

void
putU64(std::uint8_t *out, std::uint64_t value)
{
    for (unsigned i = 0; i < 8; ++i)
        out[i] = static_cast<std::uint8_t>((value >> (8 * i)) & 0xff);
}

std::uint32_t
getU32(const std::uint8_t *in)
{
    std::uint32_t value = 0;
    for (unsigned i = 0; i < 4; ++i)
        value |= std::uint32_t{in[i]} << (8 * i);
    return value;
}

std::uint64_t
getU64(const std::uint8_t *in)
{
    std::uint64_t value = 0;
    for (unsigned i = 0; i < 8; ++i)
        value |= std::uint64_t{in[i]} << (8 * i);
    return value;
}

/** [magic | version | kind | blockCount | checksum-of-the-preceding]. */
void
encodeHeader(std::uint8_t out[kHeaderBytes], std::uint32_t kind,
             std::uint64_t blockCount)
{
    std::memcpy(out, kMagic, sizeof(kMagic));
    putU32(out + 8, kFormatVersion);
    putU32(out + 12, kind);
    putU64(out + 16, blockCount);
    putU64(out + 24, fnv1a64(out, 24));
}

/** Directory part of @p path ("." when bare). */
std::string
dirnameOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return ".";
    return slash == 0 ? "/" : path.substr(0, slash);
}

/** fsync the directory containing @p path so a just-renamed entry is
 *  durable.  Failure is surfaced like any other fsync failure. */
int
fsyncDirOf(const std::string &path)
{
    const int dirFd =
        io::openFd(dirnameOf(path).c_str(), O_RDONLY | O_DIRECTORY, 0);
    if (dirFd < 0)
        return -1;
    const int rc = io::fsyncFd(dirFd);
    const int saved = errno;
    ::close(dirFd);
    errno = saved;
    return rc;
}

} // namespace

DurableWriter::DurableWriter(std::string path, std::uint32_t kind)
    : path_(std::move(path)), kind_(kind)
{
    tempPath_ = path_ + ".tmp." + std::to_string(::getpid());
    fd_ = io::openFd(tempPath_.c_str(), O_CREAT | O_TRUNC | O_WRONLY,
                     0644);
    if (fd_ < 0) {
        error_ = errno;
        errorOp_ = "open";
        return;
    }
    // Header placeholder; commit() rewrites it with the final block
    // count.  A reader of a crashed temp file (which is never at the
    // published path anyway) would reject the zero checksum.
    std::uint8_t header[kHeaderBytes] = {};
    write(header, sizeof(header));
}

DurableWriter::~DurableWriter()
{
    if (fd_ >= 0)
        ::close(fd_);
    if (!committed_)
        ::unlink(tempPath_.c_str());
}

void
DurableWriter::failWith(const char *op)
{
    if (error_ == 0) {
        error_ = errno ? errno : 5;
        errorOp_ = op;
    }
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
DurableWriter::write(const void *data, std::size_t len)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    while (len > 0 && fd_ >= 0) {
        const long n = io::pwriteFd(fd_, bytes, len, offset_);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            failWith("write");
            return;
        }
        bytes += n;
        len -= static_cast<std::size_t>(n);
        offset_ += static_cast<std::uint64_t>(n);
    }
}

void
DurableWriter::addBlock(const void *data, std::size_t len)
{
    std::uint8_t header[kBlockHeaderBytes];
    putU64(header, len);
    putU64(header + 8, fnv1a64(data, len));
    write(header, sizeof(header));
    write(data, len);
    static constexpr std::uint8_t zeros[8] = {};
    const auto pad = static_cast<std::size_t>((8 - len % 8) % 8);
    if (pad)
        write(zeros, pad);
    ++blockCount_;
}

void
DurableWriter::addBlock(const std::string &payload)
{
    addBlock(payload.data(), payload.size());
}

bool
DurableWriter::commit(std::string *errorOut)
{
    OHA_ASSERT(!committed_);
    std::uint8_t header[kHeaderBytes];
    encodeHeader(header, kind_, blockCount_);
    const std::uint64_t restore = offset_;
    offset_ = 0;
    write(header, sizeof(header));
    offset_ = restore;
    if (fd_ >= 0 && io::fsyncFd(fd_) != 0)
        failWith("fsync");
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
        if (io::renamePath(tempPath_.c_str(), path_.c_str()) != 0) {
            failWith("rename");
        } else if (fsyncDirOf(path_) != 0) {
            // The rename happened; a directory-sync failure means it
            // may not survive a power cut.  Surface it (the caller
            // counts a write failure) but leave the published file —
            // it is fully valid if it does survive.
            failWith("fsync-dir");
            committed_ = true;
        } else {
            committed_ = true;
        }
    }
    if (error_ != 0) {
        if (errorOut)
            *errorOut = "durable write of " + path_ + " failed at " +
                        errorOp_ + ": " + std::strerror(error_);
        if (!committed_)
            ::unlink(tempPath_.c_str());
        return false;
    }
    return true;
}

// ------------------------------------------------------------------ reader

namespace {

/** Full pread with EINTR retry; false on error or short read. */
bool
preadAll(int fd, void *data, std::size_t len, std::uint64_t offset)
{
    auto *bytes = static_cast<std::uint8_t *>(data);
    while (len > 0) {
        const ::ssize_t n =
            ::pread(fd, bytes, len, static_cast<::off_t>(offset));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false; // truncated
        bytes += n;
        len -= static_cast<std::size_t>(n);
        offset += static_cast<std::uint64_t>(n);
    }
    return true;
}

void
setError(std::string *errorOut, const std::string &path,
         const std::string &reason)
{
    if (errorOut)
        *errorOut = path + ": " + reason;
}

} // namespace

std::unique_ptr<DurableReader>
DurableReader::open(const std::string &path, std::uint32_t expectKind,
                    std::string *errorOut)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        setError(errorOut, path, std::strerror(errno));
        return nullptr;
    }
    std::unique_ptr<DurableReader> reader(new DurableReader);
    reader->fd_ = fd;

    struct ::stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        setError(errorOut, path, "cannot stat");
        return nullptr;
    }
    reader->fileSize_ = static_cast<std::uint64_t>(st.st_size);

    std::uint8_t header[kHeaderBytes];
    if (reader->fileSize_ < kHeaderBytes ||
        !preadAll(fd, header, sizeof(header), 0)) {
        setError(errorOut, path, "truncated header");
        return nullptr;
    }
    if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
        setError(errorOut, path, "bad magic");
        return nullptr;
    }
    if (getU32(header + 8) != kFormatVersion) {
        setError(errorOut, path,
                 "unsupported format version " +
                     std::to_string(getU32(header + 8)));
        return nullptr;
    }
    if (getU32(header + 12) != expectKind) {
        setError(errorOut, path, "wrong container kind");
        return nullptr;
    }
    if (getU64(header + 24) != fnv1a64(header, 24)) {
        setError(errorOut, path, "header checksum mismatch");
        return nullptr;
    }
    const std::uint64_t blockCount = getU64(header + 16);
    // A block costs at least its header, so this bound also rejects
    // absurd counts before the vector reserve below.
    if (blockCount > reader->fileSize_ / kBlockHeaderBytes) {
        setError(errorOut, path, "implausible block count");
        return nullptr;
    }

    // Walk and checksum every block once, up front: a reader that
    // opens successfully has verified every byte it will ever serve.
    std::vector<std::uint8_t> chunk(64 * 1024);
    std::uint64_t offset = kHeaderBytes;
    reader->blocks_.reserve(static_cast<std::size_t>(blockCount));
    for (std::uint64_t b = 0; b < blockCount; ++b) {
        std::uint8_t blockHeader[kBlockHeaderBytes];
        if (offset + kBlockHeaderBytes > reader->fileSize_ ||
            !preadAll(fd, blockHeader, sizeof(blockHeader), offset)) {
            setError(errorOut, path, "truncated block header");
            return nullptr;
        }
        const std::uint64_t len = getU64(blockHeader);
        const std::uint64_t sum = getU64(blockHeader + 8);
        const std::uint64_t payloadAt = offset + kBlockHeaderBytes;
        const std::uint64_t padded = len + (8 - len % 8) % 8;
        if (padded < len || payloadAt + padded < payloadAt ||
            payloadAt + padded > reader->fileSize_) {
            setError(errorOut, path, "block overruns file");
            return nullptr;
        }
        std::uint64_t hash = kFnv1a64Basis;
        std::uint64_t left = len;
        std::uint64_t at = payloadAt;
        while (left > 0) {
            const std::size_t n = static_cast<std::size_t>(
                left < chunk.size() ? left : chunk.size());
            if (!preadAll(fd, chunk.data(), n, at)) {
                setError(errorOut, path, "block read failed");
                return nullptr;
            }
            hash = fnv1a64(chunk.data(), n, hash);
            left -= n;
            at += n;
        }
        if (hash != sum) {
            setError(errorOut, path,
                     "block " + std::to_string(b) +
                         " checksum mismatch");
            return nullptr;
        }
        reader->blocks_.push_back({payloadAt, len});
        offset = payloadAt + padded;
    }
    if (offset != reader->fileSize_) {
        setError(errorOut, path, "trailing bytes after last block");
        return nullptr;
    }
    return reader;
}

DurableReader::~DurableReader()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
DurableReader::readBlock(std::size_t i, std::string &out) const
{
    OHA_ASSERT(i < blocks_.size());
    out.resize(static_cast<std::size_t>(blocks_[i].length));
    if (out.empty())
        return true;
    return preadAll(fd_, out.data(), out.size(), blocks_[i].offset);
}

// ------------------------------------------------------------- plain files

bool
atomicWriteFile(const std::string &path, const std::string &content,
                std::string *errorOut)
{
    const std::string tempPath =
        path + ".tmp." + std::to_string(::getpid());
    const int fd =
        io::openFd(tempPath.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (fd < 0) {
        setError(errorOut, path, std::strerror(errno));
        return false;
    }
    const auto *bytes =
        reinterpret_cast<const std::uint8_t *>(content.data());
    std::size_t len = content.size();
    std::uint64_t offset = 0;
    while (len > 0) {
        const long n = io::pwriteFd(fd, bytes, len, offset);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            setError(errorOut, path, std::strerror(errno));
            ::close(fd);
            ::unlink(tempPath.c_str());
            return false;
        }
        bytes += n;
        len -= static_cast<std::size_t>(n);
        offset += static_cast<std::uint64_t>(n);
    }
    if (io::fsyncFd(fd) != 0) {
        setError(errorOut, path, std::strerror(errno));
        ::close(fd);
        ::unlink(tempPath.c_str());
        return false;
    }
    ::close(fd);
    if (io::renamePath(tempPath.c_str(), path.c_str()) != 0) {
        setError(errorOut, path, std::strerror(errno));
        ::unlink(tempPath.c_str());
        return false;
    }
    if (fsyncDirOf(path) != 0) {
        // Renamed but possibly not durable across power loss; surface
        // the error, keep the (valid) published file.
        setError(errorOut, path, std::strerror(errno));
        return false;
    }
    return true;
}

} // namespace oha::support
