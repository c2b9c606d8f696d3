/**
 * @file
 * Versioned, checksummed binary snapshots of a ThresholdStore's built
 * tiers.
 *
 * Every tier of a ThresholdStore is a pure deterministic function of
 * its content key (die id, threshold parameters, bits-per-row, seed),
 * so the expensive candidate enumeration and word-mask build can be
 * done once and reused by every later process.  A snapshot is a
 * little-endian row stream: a fixed 96-byte header, the content key,
 * then every candidate row (key, cell count, row minima, then its
 * bit / thetaH / thetaP / tauRet / anti / domSide arrays) and every
 * word-mask row (key, geometry, lower bounds, then its mask words),
 * each tier in ascending row-key order.  One bounds-checked walker
 * reads it for both loadSnapshot and inspectSnapshot.
 *
 * Trust model: a snapshot is only adopted when
 *
 *  - magic, format version and file size check out;
 *  - the FNV-1a checksum over the whole file matches;
 *  - every row field is in range: anti and domSide in {0, 1}, bits
 *    strictly ascending below bits-per-row, and the mask geometry of
 *    the header's bits-per-row and ladder sizes;
 *  - the embedded content key equals the store's key; and
 *  - the build-invariants hash matches invariantsHashOf(store) — a
 *    fingerprint of the store's threshold parameters, the
 *    bucket-ladder edges, the candidate quantile cap, and probe values
 *    of the actual generation math, so any change to how tiers are built
 *    invalidates every old snapshot automatically (stale math is
 *    never served).
 *
 * The checksum detects corruption; it is not a signature, so the
 * range checks are what keep a hand-edited file from indexing out of
 * bounds.  Any violation raises SnapshotError; callers
 * (persist::SnapshotCache) treat that as "no snapshot" and fall back
 * to a clean rebuild.  The non-negotiable invariant is that a store
 * warmed from a snapshot is bit-identical to a freshly built one — the
 * doubles are stored as raw IEEE-754 bit patterns and never pass
 * through text.
 */

#ifndef ROWPRESS_PERSIST_SNAPSHOT_H
#define ROWPRESS_PERSIST_SNAPSHOT_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "device/threshold_store.h"

namespace rp::persist {

/** Malformed/mismatched snapshot: callers fall back to a rebuild. */
class SnapshotError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * "RPSNAP01" little-endian.  The magic never changes; the format
 * version field is the one layout version.
 */
constexpr std::uint64_t kSnapshotMagic = 0x313050414e535052ULL;
constexpr std::uint32_t kSnapshotFormatVersion = 2;

/** Size of the fixed header every snapshot starts with. */
constexpr std::size_t kSnapshotHeaderBytes = 96;

/** Canonical snapshot file extension (cache files, ls/gc/import). */
constexpr const char *kSnapshotExtension = ".rpsnap";

/** FNV-1a 64 over @p size bytes, chainable through @p seed. */
std::uint64_t fnv1a(const void *data, std::size_t size,
                    std::uint64_t seed = 0xcbf29ce484222325ULL);

/**
 * Build-invariants fingerprint of @p store: its ThresholdParams (the
 * only parameters a tier depends on, so the hash is the same whichever
 * model acquired the store first), all bucket-ladder edges, the
 * candidate quantile cap, and probe outputs of computeCellProps /
 * computeRowWordZ / weakQuantileCutoff.  Hashing probe *outputs* (not just constants)
 * means a change to the draw sequence, the probit approximation, or
 * any expression shape changes the hash even when no named constant
 * moved — old snapshots then mismatch and rebuild.
 */
std::uint64_t invariantsHashOf(const device::ThresholdStore &store);

/** Header summary of one snapshot blob, for `rowpress cache ls`. */
struct SnapshotInfo
{
    bool valid = false;      ///< Every check but the store's passed.
    std::string error;       ///< Why !valid (one line).
    std::uint32_t version = 0;
    std::uint64_t invariantsHash = 0;
    std::uint64_t seed = 0;
    int bitsPerRow = 0;
    std::string key;         ///< Raw content key (binary).
    std::string dieId;       ///< Readable die-id prefix of the key.
    std::size_t candidateRows = 0;
    std::size_t wordMaskRows = 0;
    std::size_t bytes = 0;
};

/** Tier row counts of a snapshot. */
struct LoadCounts
{
    std::size_t candidateRows = 0;
    std::size_t wordMaskRows = 0;
};

/**
 * Serialize every built tier of @p store (rows sorted by key, so the
 * bytes are a pure function of the built-tier *set*, not of build or
 * thread order) under content key @p key.
 */
std::vector<std::uint8_t> writeSnapshot(
    const device::ThresholdStore &store, const std::string &key);

/**
 * Validate @p data against @p expected_key and @p into's geometry and
 * invariants hash, then adopt every tier row into @p into (insert-if-
 * absent: rows already built win, and are bit-identical anyway).
 * Throws SnapshotError on any mismatch; @p into is only modified
 * after every row has validated.
 */
LoadCounts loadSnapshot(const std::uint8_t *data, std::size_t size,
                        const std::string &expected_key,
                        const device::ThresholdStore &into);

/**
 * Walk and fully verify (checksum and every row) a snapshot blob
 * without a target store; never throws — failures land in
 * SnapshotInfo::error.
 */
SnapshotInfo inspectSnapshot(const std::uint8_t *data,
                             std::size_t size);

/**
 * The row counts a header of the current format version records, read
 * from the first kSnapshotHeaderBytes of @p data without a checksum
 * (the cache's publish-side coverage rule); nullopt for anything else.
 */
std::optional<LoadCounts> headerRowCounts(const std::uint8_t *data,
                                          std::size_t size);

} // namespace rp::persist

#endif // ROWPRESS_PERSIST_SNAPSHOT_H
