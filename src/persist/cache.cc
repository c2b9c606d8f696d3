#include "persist/cache.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <system_error>

#include "common/logging.h"
#include "common/rng.h"
#include "core/fault.h"
#include "device/threshold_store.h"

namespace rp::persist {

namespace fs = std::filesystem;

namespace {

std::string
errnoText(int err)
{
    return std::string(std::strerror(err));
}

/**
 * Exclusive advisory lock on `<snapshot>.lock`, serializing
 * publishers (across threads and processes: flock is per open file
 * description) so the monotone-coverage check and the rename are one
 * critical section.
 */
class PublishLock
{
  public:
    explicit PublishLock(const std::string &snapshot_path)
    {
        const std::string path = snapshot_path + ".lock";
        fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC,
                     0644);
        if (fd_ < 0)
            throw CacheError("open " + path + ": " +
                             errnoText(errno));
        if (::flock(fd_, LOCK_EX) != 0) {
            const int err = errno;
            ::close(fd_);
            fd_ = -1;
            throw CacheError("flock " + path + ": " + errnoText(err));
        }
    }

    PublishLock(const PublishLock &) = delete;
    PublishLock &operator=(const PublishLock &) = delete;

    ~PublishLock()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

  private:
    int fd_ = -1;
};

/**
 * The first @p limit bytes of @p path (all of them by default).  A
 * missing file is nullopt, a miss rather than an error; any other
 * failure throws CacheError.
 */
std::optional<std::vector<std::uint8_t>>
readFileBytes(const std::string &path, std::size_t limit = SIZE_MAX)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        if (errno == ENOENT)
            return std::nullopt;
        throw CacheError("open " + path + ": " + errnoText(errno));
    }
    struct stat st
    {
    };
    std::vector<std::uint8_t> bytes;
    int err = ::fstat(fd, &st) == 0 ? 0 : errno;
    if (err == 0)
        bytes.resize(std::min(std::size_t(st.st_size), limit));
    std::size_t got = 0;
    while (err == 0 && got < bytes.size()) {
        const ssize_t n =
            ::read(fd, bytes.data() + got, bytes.size() - got);
        if (n == 0)
            break; // shrank since fstat: the snapshot checks see it
        if (n > 0)
            got += std::size_t(n);
        else if (errno != EINTR)
            err = errno;
    }
    ::close(fd);
    if (err != 0)
        throw CacheError("read " + path + ": " + errnoText(err));
    bytes.resize(got);
    return bytes;
}

/**
 * The row counts of @p path's header, the publish-side coverage
 * record; nullopt for a missing file or one of another format.
 */
std::optional<LoadCounts>
headerCountsOf(const std::string &path)
{
    // The file name already binds (key, invariants), so the header's
    // row counts are all the monotone rule needs; full validation
    // happens at load time.
    const auto header = readFileBytes(path, kSnapshotHeaderBytes);
    if (!header)
        return std::nullopt;
    return headerRowCounts(header->data(), header->size());
}

/** Write @p blob to @p path via temp file + fsync + atomic rename. */
void
writeAtomically(const std::string &path,
                const std::vector<std::uint8_t> &blob)
{
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                          0644);
    if (fd < 0)
        throw CacheError("open " + tmp + ": " + errnoText(errno));
    std::size_t written = 0;
    while (written < blob.size()) {
        const ssize_t n = ::write(fd, blob.data() + written,
                                  blob.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            const int err = errno;
            ::close(fd);
            ::unlink(tmp.c_str());
            throw CacheError("write " + tmp + ": " + errnoText(err));
        }
        written += std::size_t(n);
    }
    if (::fsync(fd) != 0 || ::close(fd) != 0) {
        ::unlink(tmp.c_str());
        throw CacheError("fsync " + tmp + ": " + errnoText(errno));
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        const int err = errno;
        ::unlink(tmp.c_str());
        throw CacheError("rename " + tmp + ": " + errnoText(err));
    }
}

/** Freshen @p path's mtime (LRU recency on a successful load). */
void
touchFile(const std::string &path)
{
    // utimensat with a null timespec stamps "now" kernel-side; the
    // wall clock never enters the process, so result purity (lint
    // D1) is structurally preserved.
    (void)::utimensat(AT_FDCWD, path.c_str(), nullptr, 0);
}

/** inspectSnapshot of @p path's bytes; a failed read is invalid too. */
SnapshotInfo
inspectFile(const std::string &path)
{
    SnapshotInfo info;
    try {
        if (const auto bytes = readFileBytes(path))
            return inspectSnapshot(bytes->data(), bytes->size());
        info.error = "no such file";
    } catch (const CacheError &e) {
        info.error = e.what();
    }
    return info;
}

/** The warm-start hook ThresholdStore::acquire() calls (never throws). */
void
warmStartHook(const device::ThresholdStore &store)
{
    SnapshotCache::instance().tryLoad(store);
}

/**
 * Install a snapshot of (@p key, @p invariants_hash) covering
 * @p cand_rows candidate and @p wm_rows word-mask rows into @p dir
 * under the canonical name.  Under the publish lock the existing
 * file's header decides (the monotone rule): when it already covers
 * both counts nothing is serialized and 0 is returned; otherwise
 * @p serialize() makes the bytes, which replace the file atomically,
 * and their count is returned.
 */
template <class Serialize>
std::size_t
installSnapshot(const std::string &dir, const std::string &key,
                std::uint64_t invariants_hash, std::uint64_t cand_rows,
                std::uint64_t wm_rows, Serialize &&serialize)
{
    const std::string path =
        (fs::path(dir) /
         SnapshotCache::snapshotFileName(key, invariants_hash))
            .string();
    PublishLock lock(path);
    const std::optional<LoadCounts> existing = headerCountsOf(path);
    if (existing && existing->candidateRows >= cand_rows &&
        existing->wordMaskRows >= wm_rows)
        return 0;
    const std::vector<std::uint8_t> blob = serialize();
    writeAtomically(path, blob);
    return blob.size();
}

} // namespace

SnapshotCache &
SnapshotCache::instance()
{
    static SnapshotCache cache;
    return cache;
}

void
SnapshotCache::configure(const std::string &dir)
{
    if (!dir.empty()) {
        std::error_code ec;
        fs::create_directories(dir, ec);
        if (ec || !fs::is_directory(dir))
            throw CacheError(
                "cache-dir '" + dir + "' is not a usable directory" +
                (ec ? " (" + ec.message() + ")" : ""));
    }
    {
        core::LockGuard lock(mutex_);
        dir_ = dir;
        stats_.enabled = !dir.empty();
        stats_.dir = dir;
    }
    device::ThresholdStore::setWarmStartHook(
        dir.empty() ? nullptr : &warmStartHook);
}

CacheStats
SnapshotCache::stats() const
{
    core::LockGuard lock(mutex_);
    return stats_;
}

void
SnapshotCache::resetStats()
{
    core::LockGuard lock(mutex_);
    const bool enabled = stats_.enabled;
    const std::string dir = stats_.dir;
    stats_ = CacheStats{};
    stats_.enabled = enabled;
    stats_.dir = dir;
}

std::string
SnapshotCache::snapshotFileName(const std::string &key,
                                std::uint64_t invariants_hash)
{
    const std::uint64_t h =
        hashU64(fnv1a(key.data(), key.size()), invariants_hash);
    char name[40];
    std::snprintf(name, sizeof(name), "ts-%016llx",
                  (unsigned long long)h);
    return std::string(name) + kSnapshotExtension;
}

bool
SnapshotCache::tryLoad(const device::ThresholdStore &store)
{
    std::string dir;
    {
        core::LockGuard lock(mutex_);
        dir = dir_;
    }
    if (dir.empty() || store.contentKey().empty())
        return false;

    const std::string path =
        (fs::path(dir) / snapshotFileName(store.contentKey(),
                                          invariantsHashOf(store)))
            .string();
    try {
        core::faultPoint("persist.snapshot.read");
        const auto bytes = readFileBytes(path);
        if (!bytes) {
            core::LockGuard lock(mutex_);
            ++stats_.misses;
            return false;
        }
        loadSnapshot(bytes->data(), bytes->size(), store.contentKey(),
                     store);
        touchFile(path);
        core::LockGuard lock(mutex_);
        ++stats_.hits;
        stats_.bytesLoaded += bytes->size();
        return true;
    } catch (const std::exception &e) {
        // Corrupt, truncated, stale-math, or fault-injected: one
        // warning, then a clean cold build.  Never fatal.
        warn("snapshot cache: %s: %s (rebuilding)", path.c_str(),
             e.what());
        quarantineIfInvalid(path);
        core::LockGuard lock(mutex_);
        ++stats_.rejected;
        return false;
    }
}

void
SnapshotCache::quarantineIfInvalid(const std::string &path)
{
    // A rejected file with an intact header would otherwise survive
    // forever: the publish-side monotone check reads only header row
    // counts, so the rebuilt store's snapshot never replaces it.
    // Under the publisher lock (so we cannot unlink a good file a
    // concurrent publisher just renamed in), re-verify and delete
    // only if the bytes really are undecodable.  Best effort: any
    // error here just leaves the file for `cache gc`.
    try {
        PublishLock lock(path);
        const auto bytes = readFileBytes(path);
        if (bytes && !inspectSnapshot(bytes->data(), bytes->size()).valid)
            ::unlink(path.c_str());
    } catch (const std::exception &) {
    }
}

std::size_t
SnapshotCache::publishRegistry()
{
    std::string dir;
    {
        core::LockGuard lock(mutex_);
        dir = dir_;
    }
    if (dir.empty())
        return 0;
    std::size_t written = 0;
    for (const auto &store :
         device::ThresholdStore::registrySnapshot())
        if (publishStore(*store, dir))
            ++written;
    return written;
}

bool
SnapshotCache::publishStore(const device::ThresholdStore &store,
                            const std::string &dir)
{
    const std::string &key = store.contentKey();
    if (key.empty())
        return false;
    const device::ThresholdStoreStats tiers = store.stats();
    if (tiers.candidateRows == 0 && tiers.wordMaskRows == 0)
        return false;
    try {
        // Before the publish lock: a failed publish touches no file.
        core::faultPoint("persist.snapshot.write");
        const std::size_t bytes = installSnapshot(
            dir, key, invariantsHashOf(store), tiers.candidateRows,
            tiers.wordMaskRows, [&] { return writeSnapshot(store, key); });
        core::LockGuard lock(mutex_);
        if (bytes != 0) {
            ++stats_.publishes;
            stats_.bytesPublished += bytes;
        } else {
            ++stats_.publishSkips;
        }
        return bytes != 0;
    } catch (const std::exception &e) {
        warn("snapshot cache: publish to %s failed: %s", dir.c_str(),
             e.what());
        core::LockGuard lock(mutex_);
        ++stats_.publishFailures;
        return false;
    }
}

std::vector<CacheEntry>
SnapshotCache::listDir(const std::string &dir)
{
    if (!fs::is_directory(dir))
        throw CacheError("'" + dir + "' is not a directory");
    std::vector<CacheEntry> entries;
    for (const auto &it : fs::directory_iterator(dir)) {
        if (!it.is_regular_file() ||
            it.path().extension() != kSnapshotExtension)
            continue;
        CacheEntry entry;
        entry.file = it.path().filename().string();
        entry.bytes = it.file_size();
        entry.info = inspectFile(it.path().string());
        entries.push_back(std::move(entry));
    }
    std::sort(entries.begin(), entries.end(),
              [](const CacheEntry &a, const CacheEntry &b) {
                  return a.file < b.file;
              });
    return entries;
}

SnapshotCache::GcResult
SnapshotCache::gcDir(const std::string &dir, std::uintmax_t max_bytes)
{
    if (!fs::is_directory(dir))
        throw CacheError("'" + dir + "' is not a directory");
    GcResult result;

    struct Candidate
    {
        fs::path path;
        std::uintmax_t bytes = 0;
        fs::file_time_type mtime;
        bool valid = false;
    };
    std::vector<Candidate> files;
    for (const auto &it : fs::directory_iterator(dir)) {
        if (!it.is_regular_file())
            continue;
        const std::string name = it.path().filename().string();
        // Leftover temp files from a crashed publisher are garbage
        // by definition (the rename never happened).
        if (name.find(".tmp.") != std::string::npos) {
            result.removedBytes += it.file_size();
            ++result.removed;
            fs::remove(it.path());
            continue;
        }
        if (it.path().extension() != kSnapshotExtension)
            continue;
        Candidate c;
        c.path = it.path();
        c.bytes = it.file_size();
        c.mtime = fs::last_write_time(it.path());
        c.valid = inspectFile(it.path().string()).valid;
        files.push_back(std::move(c));
    }

    // Undecodable files go first; then LRU (oldest mtime, name as a
    // deterministic tiebreak) until under the cap.
    std::uintmax_t total = 0;
    std::vector<Candidate> kept;
    for (Candidate &c : files) {
        if (!c.valid) {
            result.removedBytes += c.bytes;
            ++result.removed;
            fs::remove(c.path);
            fs::remove(c.path.string() + ".lock");
            continue;
        }
        total += c.bytes;
        kept.push_back(std::move(c));
    }
    std::sort(kept.begin(), kept.end(),
              [](const Candidate &a, const Candidate &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  return a.path < b.path;
              });
    for (const Candidate &c : kept) {
        if (total <= max_bytes)
            break;
        result.removedBytes += c.bytes;
        ++result.removed;
        total -= c.bytes;
        fs::remove(c.path);
        fs::remove(c.path.string() + ".lock");
    }
    result.keptBytes = total;
    return result;
}

bool
SnapshotCache::installFile(const std::string &src,
                           const std::string &dir)
{
    auto blob = readFileBytes(src);
    if (!blob)
        throw CacheError("open " + src + ": " + errnoText(ENOENT));
    const SnapshotInfo info =
        inspectSnapshot(blob->data(), blob->size());
    if (!info.valid)
        throw CacheError("'" + src + "' is not a valid snapshot: " +
                         info.error);
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec || !fs::is_directory(dir))
        throw CacheError("'" + dir + "' is not a usable directory");
    return installSnapshot(dir, info.key, info.invariantsHash,
                           info.candidateRows, info.wordMaskRows,
                           [&blob] { return std::move(*blob); }) != 0;
}

} // namespace rp::persist
