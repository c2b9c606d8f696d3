/**
 * @file
 * Versioned, checksummed binary snapshots of a ThresholdStore's built
 * tiers.
 *
 * Every tier of a ThresholdStore is a pure deterministic function of
 * its content key (die id, threshold parameters, bits-per-row, seed),
 * so the expensive candidate enumeration and word-mask build can be
 * done once and reused by every later process.  A snapshot serializes
 * both tiers — the candidate SoA lists with their row minima and the
 * RowWordMasks word-occupancy tier — into a little-endian format with
 * a fixed header and a section table of fixed offsets, so a reader
 * can mmap the file and copy each SoA array straight into the tier
 * vectors with one memcpy per array (the arrays are stored
 * contiguously, field-major, exactly as the in-memory layout wants
 * them).
 *
 * Trust model: a snapshot is only adopted when
 *
 *  - magic, format version, and structural bounds check out;
 *  - the FNV-1a checksum over the whole file matches;
 *  - the embedded content key equals the store's key; and
 *  - the build-invariants hash matches invariantsHashOf(store) — a
 *    fingerprint of the store's threshold parameters, the
 *    bucket-ladder edges, the candidate quantile cap, and probe values
 *    of the actual generation math, so any change to how tiers are built
 *    invalidates every old snapshot automatically (stale math is
 *    never served).
 *
 * Any violation raises SnapshotError; callers (persist::SnapshotCache)
 * treat that as "no snapshot" and fall back to a clean rebuild.  The
 * non-negotiable invariant is that a store warmed from a snapshot is
 * bit-identical to a freshly built one — the doubles are stored as
 * raw IEEE-754 bit patterns and never pass through text.
 */

#ifndef ROWPRESS_PERSIST_SNAPSHOT_H
#define ROWPRESS_PERSIST_SNAPSHOT_H

#include <cstddef>
#include <cstdint>
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

/** "RPSNAP01" little-endian; new layouts bump the trailing digits. */
constexpr std::uint64_t kSnapshotMagic = 0x313050414e535052ULL;
constexpr std::uint32_t kSnapshotFormatVersion = 1;

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
    bool valid = false;      ///< Structure + checksum fully verified.
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

/** Tier row counts adopted by loadSnapshot. */
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
 * after full validation.
 */
LoadCounts loadSnapshot(const std::uint8_t *data, std::size_t size,
                        const std::string &expected_key,
                        const device::ThresholdStore &into);

/**
 * Parse and fully verify (structure + checksum) a snapshot blob
 * without a target store; never throws — failures land in
 * SnapshotInfo::error.
 */
SnapshotInfo inspectSnapshot(const std::uint8_t *data,
                             std::size_t size);

} // namespace rp::persist

#endif // ROWPRESS_PERSIST_SNAPSHOT_H
