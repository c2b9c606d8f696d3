/**
 * @file
 * Shared on-disk warm-start cache of ThresholdStore snapshots.
 *
 * A cache directory holds one snapshot file per (die, bits, seed,
 * build-invariants) identity, named by a hash of the content key so
 * every process sharing the directory agrees on the file without
 * coordination.  The directory is a setting of the process, not of a
 * job: `rowpress run` and `rowpress serve` read `--cache-dir` (or
 * `RP_CACHE_DIR`) once and call SnapshotCache::configure() before any
 * job runs.  Library callers that build a Service themselves arm the
 * cache the same way; only the CLI reads `RP_CACHE_DIR`.  The
 * lifecycle:
 *
 *  - load: when ThresholdStore::acquire() creates a store, the cache
 *    (via the store's warm-start hook) reads the matching snapshot
 *    file, validates it (checksum, version, every row, key,
 *    invariants hash), and adopts its tiers.  A missing file is a
 *    silent miss; any other failure — torn write, bit-flip, stale
 *    format, out-of-range field, changed math — logs one warning and
 *    degrades to a cold build.  Loading never throws and never
 *    serves stale math.  Readers take no lock: a snapshot file is
 *    only ever replaced whole, by rename.
 *  - publish: after a job completes, every registered store with
 *    built tiers takes the snapshot's `<file>.lock` advisory flock
 *    and reads the file's header, the only publication record.  Only
 *    when the file does not cover the store's tiers (the monotone
 *    rule: never replace a snapshot that already covers at least as
 *    many rows) is the store serialized to a temp file and atomically
 *    renamed into place, so concurrent serve processes sharing the
 *    directory never observe torn files and never regress each
 *    other's coverage.
 *  - gc: size-capped LRU over file mtimes (a successful load
 *    freshens its file), dropping undecodable files first.
 *
 * Fault points `persist.snapshot.read` / `persist.snapshot.write`
 * plug the chaos harness into both paths.
 */

#ifndef ROWPRESS_PERSIST_CACHE_H
#define ROWPRESS_PERSIST_CACHE_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/thread_annotations.h"
#include "persist/snapshot.h"

namespace rp::device {
class ThresholdStore;
} // namespace rp::device

namespace rp::persist {

/** Unusable cache directory / rejected import (a user error). */
class CacheError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Disk-cache counters, reported next to the in-memory warm cache. */
struct CacheStats
{
    bool enabled = false;
    std::string dir;
    std::uint64_t hits = 0;      ///< Snapshots adopted into stores.
    std::uint64_t misses = 0;    ///< Loads finding no snapshot file.
    std::uint64_t rejected = 0;  ///< Corrupt/mismatched files skipped.
    std::uint64_t publishes = 0; ///< Snapshot files written.
    std::uint64_t publishSkips = 0;    ///< Disk already current.
    std::uint64_t publishFailures = 0; ///< I/O or injected failures.
    std::uint64_t bytesLoaded = 0;
    std::uint64_t bytesPublished = 0;
};

/** One cache-directory entry (`rowpress cache ls`). */
struct CacheEntry
{
    std::string file;   ///< File name within the directory.
    std::uintmax_t bytes = 0;
    SnapshotInfo info;  ///< Fully verified header summary.
};

/**
 * Process-wide snapshot cache.  configure() arms it (and installs
 * the ThresholdStore warm-start hook); with no directory configured
 * every operation is a cheap no-op.  The mutex guards configuration
 * and counters only — file I/O and store mutation happen outside it,
 * so loads and publishes of different stores proceed concurrently.
 */
class SnapshotCache
{
  public:
    static SnapshotCache &instance();

    /**
     * Set (or, with "", clear) the cache directory.  Creates the
     * directory if needed; throws CacheError when the path exists
     * but is not a directory or cannot be created — a configuration
     * error surfaced before any job work runs.
     */
    void configure(const std::string &dir);

    CacheStats stats() const;

    /**
     * Try to warm @p store from its snapshot file.  Returns whether
     * tiers were adopted; never throws (failures count as misses or
     * rejects and the store builds cold).
     */
    bool tryLoad(const device::ThresholdStore &store);

    /**
     * Serialize every registered store whose built tiers the
     * directory's snapshot does not cover.  Returns files written;
     * never throws.
     */
    std::size_t publishRegistry();

    /** tryLoad/publishRegistry counter reset (tests). */
    void resetStats();

    /** Canonical snapshot file name of (content key, invariants). */
    static std::string snapshotFileName(const std::string &key,
                                        std::uint64_t invariants_hash);

    // --- directory maintenance (`rowpress cache` verbs); these act
    // on an explicit directory, independent of the configured one ---

    /** Verified listing of @p dir, sorted by file name. */
    static std::vector<CacheEntry> listDir(const std::string &dir);

    struct GcResult
    {
        std::size_t removed = 0;
        std::uintmax_t removedBytes = 0;
        std::uintmax_t keptBytes = 0;
    };

    /**
     * Drop every undecodable snapshot, then the least-recently-used
     * valid ones until the directory holds at most @p max_bytes
     * (SIZE_MAX = invalid-only sweep).
     */
    static GcResult gcDir(const std::string &dir,
                          std::uintmax_t max_bytes);

    /**
     * Validate @p src and install it into @p dir under its canonical
     * name (atomic rename, flock, monotone row-coverage rule).
     * Returns false when the destination already covers it; throws
     * CacheError when @p src is not a valid snapshot.
     */
    static bool installFile(const std::string &src,
                            const std::string &dir);

  private:
    SnapshotCache() = default;

    bool publishStore(const device::ThresholdStore &store,
                      const std::string &dir);
    static void quarantineIfInvalid(const std::string &path);

    mutable core::Mutex mutex_;
    std::string dir_ RP_GUARDED_BY(mutex_);
    CacheStats stats_ RP_GUARDED_BY(mutex_);
};

} // namespace rp::persist

#endif // ROWPRESS_PERSIST_CACHE_H
