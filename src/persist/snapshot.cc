#include "persist/snapshot.h"

#include <algorithm>
#include <cstring>

#include "common/rng.h"
#include "common/stats.h"

namespace rp::persist {

namespace {

// The format stores raw little-endian scalars; a big-endian port
// would need byte swaps in putAt/getAt.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "snapshot format is little-endian");

/**
 * Bumped when tier-generation math changes in a way the parameter /
 * ladder / probe fingerprint cannot see (it has never needed to move
 * yet — the probes catch expression changes — but the escape hatch
 * must exist).
 */
constexpr std::uint64_t kBuildMathVersion = 1;

// Fixed header layout (byte offsets).  The header is 96 bytes; the
// section table of kSectionCount 24-byte entries follows at offset
// kHeaderBytes, and every section is 8-byte aligned.
constexpr std::size_t kHeaderBytes = 96;
constexpr std::uint32_t kSectionCount = 9;
constexpr std::size_t kSectionEntryBytes = 24;
constexpr std::size_t kOffMagic = 0;
constexpr std::size_t kOffVersion = 8;
constexpr std::size_t kOffHeaderBytes = 12;
constexpr std::size_t kOffInvariants = 16;
constexpr std::size_t kOffSeed = 24;
constexpr std::size_t kOffBitsPerRow = 32;
constexpr std::size_t kOffSectionCount = 36;
constexpr std::size_t kOffCandRows = 40;
constexpr std::size_t kOffWmRows = 48;
constexpr std::size_t kOffFileBytes = 56;
constexpr std::size_t kOffChecksum = 64;
constexpr std::size_t kOffLadderH = 72;
constexpr std::size_t kOffLadderP = 76;
constexpr std::size_t kOffLadderR = 80;
constexpr std::size_t kOffKeyBytes = 88;

/** Section kinds, in file order. */
enum SectionKind : std::uint32_t
{
    kSecKey = 1,       ///< Raw content key bytes.
    kSecCandIndex = 2, ///< Per-row candidate directory (48 B each).
    kSecCandBit = 3,   ///< Concatenated int32 bit arrays.
    kSecCandThetaH = 4,///< Concatenated f64 thetaH arrays.
    kSecCandThetaP = 5,///< Concatenated f64 thetaP arrays.
    kSecCandTauRet = 6,///< Concatenated f64 tauRet arrays.
    kSecCandFlags = 7, ///< Interleaved (anti, domSide) byte pairs.
    kSecWmIndex = 8,   ///< Per-row word-mask directory (40 B each).
    kSecWmWords = 9,   ///< Concatenated u64 mask arrays.
};

constexpr std::size_t kCandIndexEntryBytes = 48;
constexpr std::size_t kWmIndexEntryBytes = 40;

template <typename T>
void
putAt(std::vector<std::uint8_t> &out, std::size_t off, T v)
{
    std::memcpy(out.data() + off, &v, sizeof v);
}

template <typename T>
T
getAt(const std::uint8_t *data, std::size_t off)
{
    T v;
    std::memcpy(&v, data + off, sizeof v);
    return v;
}

constexpr std::size_t
align8(std::size_t n)
{
    return (n + 7) & ~std::size_t(7);
}

/** u64 mask words one RowWordMasks row occupies in kSecWmWords. */
std::size_t
maskWordsOf(std::size_t num_groups, std::size_t ladder_h,
            std::size_t ladder_p, std::size_t ladder_r)
{
    return num_groups * (1 + ladder_h + ladder_p + ladder_r);
}

/** One parsed section-table entry. */
struct Section
{
    std::uint32_t kind = 0;
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
};

/** Fully bounds- and checksum-verified view of a snapshot blob. */
struct Parsed
{
    const std::uint8_t *data = nullptr;
    std::size_t size = 0;
    std::uint64_t invariantsHash = 0;
    std::uint64_t seed = 0;
    std::uint32_t bitsPerRow = 0;
    std::uint64_t candRows = 0;
    std::uint64_t wmRows = 0;
    std::uint32_t ladderH = 0;
    std::uint32_t ladderP = 0;
    std::uint32_t ladderR = 0;
    std::string key;
    Section sec[kSectionCount + 1]; ///< Indexed by SectionKind.
    std::size_t totalCells = 0;
    std::size_t totalMaskWords = 0;

    const std::uint8_t *
    at(SectionKind kind, std::size_t byte_offset = 0) const
    {
        return data + sec[kind].offset + byte_offset;
    }
};

[[noreturn]] void
fail(const std::string &what)
{
    throw SnapshotError("snapshot: " + what);
}

std::uint64_t
checksumOf(const std::uint8_t *data, std::size_t size)
{
    // The whole file with the checksum field treated as zero.
    static const std::uint8_t zeros[sizeof(std::uint64_t)] = {};
    std::uint64_t h = fnv1a(data, kOffChecksum);
    h = fnv1a(zeros, sizeof(zeros), h);
    return fnv1a(data + kOffChecksum + 8, size - kOffChecksum - 8, h);
}

Parsed
parse(const std::uint8_t *data, std::size_t size)
{
    Parsed p;
    p.data = data;
    p.size = size;
    if (!data || size < kHeaderBytes)
        fail("too small for a header (" + std::to_string(size) +
             " bytes)");
    if (getAt<std::uint64_t>(data, kOffMagic) != kSnapshotMagic)
        fail("bad magic");
    const auto version = getAt<std::uint32_t>(data, kOffVersion);
    if (version != kSnapshotFormatVersion)
        fail("format version " + std::to_string(version) +
             " != " + std::to_string(kSnapshotFormatVersion));
    if (getAt<std::uint32_t>(data, kOffHeaderBytes) != kHeaderBytes)
        fail("bad header size");
    if (getAt<std::uint32_t>(data, kOffSectionCount) != kSectionCount)
        fail("bad section count");
    if (getAt<std::uint64_t>(data, kOffFileBytes) != size)
        fail("file size mismatch (truncated?)");
    if (checksumOf(data, size) !=
        getAt<std::uint64_t>(data, kOffChecksum))
        fail("checksum mismatch (corrupt file)");

    p.invariantsHash = getAt<std::uint64_t>(data, kOffInvariants);
    p.seed = getAt<std::uint64_t>(data, kOffSeed);
    p.bitsPerRow = getAt<std::uint32_t>(data, kOffBitsPerRow);
    p.candRows = getAt<std::uint64_t>(data, kOffCandRows);
    p.wmRows = getAt<std::uint64_t>(data, kOffWmRows);
    p.ladderH = getAt<std::uint32_t>(data, kOffLadderH);
    p.ladderP = getAt<std::uint32_t>(data, kOffLadderP);
    p.ladderR = getAt<std::uint32_t>(data, kOffLadderR);
    const auto key_bytes = getAt<std::uint64_t>(data, kOffKeyBytes);

    const std::size_t payload_start = align8(
        kHeaderBytes + kSectionCount * kSectionEntryBytes);
    for (std::uint32_t i = 0; i < kSectionCount; ++i) {
        const std::size_t entry =
            kHeaderBytes + i * kSectionEntryBytes;
        Section s;
        s.kind = getAt<std::uint32_t>(data, entry);
        s.offset = getAt<std::uint64_t>(data, entry + 8);
        s.bytes = getAt<std::uint64_t>(data, entry + 16);
        if (s.kind != i + 1)
            fail("section table out of order");
        if (s.offset % 8 != 0 || s.offset < payload_start ||
            s.offset > size || s.bytes > size - s.offset)
            fail("section " + std::to_string(s.kind) +
                 " out of bounds");
        p.sec[s.kind] = s;
    }

    if (p.sec[kSecKey].bytes != key_bytes)
        fail("key section size mismatch");
    p.key.assign(reinterpret_cast<const char *>(p.at(kSecKey)),
                 key_bytes);

    if (p.sec[kSecCandIndex].bytes !=
        p.candRows * kCandIndexEntryBytes)
        fail("candidate index size mismatch");
    if (p.sec[kSecCandBit].bytes % sizeof(std::int32_t) != 0)
        fail("candidate bit section misaligned");
    p.totalCells =
        p.sec[kSecCandBit].bytes / sizeof(std::int32_t);
    for (SectionKind k : {kSecCandThetaH, kSecCandThetaP,
                          kSecCandTauRet})
        if (p.sec[k].bytes != p.totalCells * sizeof(double))
            fail("candidate threshold section size mismatch");
    if (p.sec[kSecCandFlags].bytes != p.totalCells * 2)
        fail("candidate flags section size mismatch");

    if (p.sec[kSecWmIndex].bytes != p.wmRows * kWmIndexEntryBytes)
        fail("word-mask index size mismatch");
    if (p.sec[kSecWmWords].bytes % sizeof(std::uint64_t) != 0)
        fail("word-mask data section misaligned");
    p.totalMaskWords =
        p.sec[kSecWmWords].bytes / sizeof(std::uint64_t);

    // Every directory entry must stay inside its data section.
    for (std::uint64_t r = 0; r < p.candRows; ++r) {
        const std::size_t e = r * kCandIndexEntryBytes;
        const auto cell_off =
            getAt<std::uint64_t>(p.at(kSecCandIndex, e), 8);
        const auto cell_count =
            getAt<std::uint64_t>(p.at(kSecCandIndex, e), 16);
        if (cell_off > p.totalCells ||
            cell_count > p.totalCells - cell_off)
            fail("candidate row entry out of bounds");
    }
    const std::size_t row_words = maskWordsOf(
        1, p.ladderH, p.ladderP, p.ladderR); // per group
    for (std::uint64_t r = 0; r < p.wmRows; ++r) {
        const std::size_t e = r * kWmIndexEntryBytes;
        const auto word_off =
            getAt<std::uint64_t>(p.at(kSecWmIndex, e), 8);
        const auto num_groups =
            getAt<std::uint32_t>(p.at(kSecWmIndex, e), 20);
        const std::uint64_t need =
            std::uint64_t(num_groups) * row_words;
        if (word_off > p.totalMaskWords ||
            need > p.totalMaskWords - word_off)
            fail("word-mask row entry out of bounds");
    }
    return p;
}

} // namespace

std::uint64_t
fnv1a(const void *data, std::size_t size, std::uint64_t seed)
{
    std::uint64_t h = seed;
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
invariantsHashOf(const device::ThresholdStore &store)
{
    std::uint64_t h = hashU64(kSnapshotMagic, kBuildMathVersion);
    const auto mix_u = [&h](std::uint64_t v) { h = hashU64(h, v); };
    const auto mix_d = [&mix_u](double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        mix_u(bits);
    };

    // The fields the store reads; no other parameter reaches a tier.
    const device::ThresholdParams &p = store.params();
    mix_d(p.muH);
    mix_d(p.sigmaH);
    mix_d(p.sigmaRowH);
    mix_d(p.sigmaWordH);
    mix_d(p.muP);
    mix_d(p.sigmaP);
    mix_d(p.sigmaRowP);
    mix_d(p.sigmaWordP);
    mix_d(p.muRet);
    mix_d(p.sigmaRet);
    mix_d(p.antiFraction);

    // Bucket ladders: every edge, per mechanism.
    for (const device::BucketLadder *ladder :
         {&store.hammerLadder(), &store.pressLadder(),
          &store.retentionLadder()}) {
        mix_u(ladder->size());
        for (std::size_t k = 0; k < ladder->size(); ++k)
            mix_d(ladder->edge(k));
    }

    // Candidate-tier quantile cap (geometry-dependent constant).
    mix_u(std::uint64_t(store.bitsPerRow()));
    mix_d(store.candidateCapQuantile());

    // Functional probes of the generation math itself: fixed inputs
    // through the real draw/probit/exp pipeline.  Any change to the
    // sequence or expressions moves these outputs.
    const device::CellProps probe =
        device::computeCellProps(p, store.seed(), 0, 1, 2);
    mix_d(probe.thetaH);
    mix_d(probe.thetaP);
    mix_d(probe.tauRet);
    mix_d(probe.uH);
    mix_d(probe.uP);
    const device::RowWordZ z =
        device::computeRowWordZ(store.seed(), 1, 3, 2);
    mix_d(z.rowH);
    mix_d(z.rowP);
    mix_d(z.wordH);
    mix_d(z.wordP);
    mix_d(device::weakQuantileCutoff(1.0, p.muH, p.sigmaH, 0.0));
    return h;
}

std::vector<std::uint8_t>
writeSnapshot(const device::ThresholdStore &store,
              const std::string &key)
{
    const auto rows = store.exportRows();
    const auto masks = store.exportWordMasks();
    const std::size_t ladder_h = store.hammerLadder().size();
    const std::size_t ladder_p = store.pressLadder().size();
    const std::size_t ladder_r = store.retentionLadder().size();

    std::size_t total_cells = 0;
    for (const auto &[row_key, row] : rows) {
        (void)row_key;
        total_cells += row->size();
    }
    std::size_t total_mask_words = 0;
    for (const auto &[row_key, wm] : masks) {
        (void)row_key;
        total_mask_words +=
            maskWordsOf(wm->numGroups, ladder_h, ladder_p, ladder_r);
    }

    // Lay the sections out back to back, 8-byte aligned.
    Section sec[kSectionCount + 1];
    const std::uint64_t sizes[kSectionCount + 1] = {
        0,
        key.size(),
        rows.size() * kCandIndexEntryBytes,
        total_cells * sizeof(std::int32_t),
        total_cells * sizeof(double),
        total_cells * sizeof(double),
        total_cells * sizeof(double),
        total_cells * 2,
        masks.size() * kWmIndexEntryBytes,
        total_mask_words * sizeof(std::uint64_t),
    };
    std::size_t offset = align8(
        kHeaderBytes + kSectionCount * kSectionEntryBytes);
    for (std::uint32_t kind = 1; kind <= kSectionCount; ++kind) {
        sec[kind].kind = kind;
        sec[kind].offset = offset;
        sec[kind].bytes = sizes[kind];
        offset = align8(offset + sizes[kind]);
    }
    const std::size_t file_bytes = offset;

    std::vector<std::uint8_t> out(file_bytes, 0);
    putAt<std::uint64_t>(out, kOffMagic, kSnapshotMagic);
    putAt<std::uint32_t>(out, kOffVersion, kSnapshotFormatVersion);
    putAt<std::uint32_t>(out, kOffHeaderBytes, kHeaderBytes);
    putAt<std::uint64_t>(out, kOffInvariants, invariantsHashOf(store));
    putAt<std::uint64_t>(out, kOffSeed, store.seed());
    putAt<std::uint32_t>(out, kOffBitsPerRow,
                         std::uint32_t(store.bitsPerRow()));
    putAt<std::uint32_t>(out, kOffSectionCount, kSectionCount);
    putAt<std::uint64_t>(out, kOffCandRows, rows.size());
    putAt<std::uint64_t>(out, kOffWmRows, masks.size());
    putAt<std::uint64_t>(out, kOffFileBytes, file_bytes);
    putAt<std::uint32_t>(out, kOffLadderH, std::uint32_t(ladder_h));
    putAt<std::uint32_t>(out, kOffLadderP, std::uint32_t(ladder_p));
    putAt<std::uint32_t>(out, kOffLadderR, std::uint32_t(ladder_r));
    putAt<std::uint64_t>(out, kOffKeyBytes, key.size());
    for (std::uint32_t kind = 1; kind <= kSectionCount; ++kind) {
        const std::size_t entry =
            kHeaderBytes + (kind - 1) * kSectionEntryBytes;
        putAt<std::uint32_t>(out, entry, kind);
        putAt<std::uint64_t>(out, entry + 8, sec[kind].offset);
        putAt<std::uint64_t>(out, entry + 16, sec[kind].bytes);
    }

    std::memcpy(out.data() + sec[kSecKey].offset, key.data(),
                key.size());

    // Candidate tier: directory + field-major concatenated arrays.
    std::size_t cell_off = 0;
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const auto &[row_key, row] = rows[r];
        const std::size_t e =
            sec[kSecCandIndex].offset + r * kCandIndexEntryBytes;
        putAt<std::uint64_t>(out, e, row_key);
        putAt<std::uint64_t>(out, e + 8, cell_off);
        putAt<std::uint64_t>(out, e + 16, row->size());
        putAt<double>(out, e + 24, row->minThetaH);
        putAt<double>(out, e + 32, row->minThetaP);
        putAt<double>(out, e + 40, row->minTauRet);

        const std::size_t n = row->size();
        std::memcpy(out.data() + sec[kSecCandBit].offset +
                        cell_off * sizeof(std::int32_t),
                    row->bit.data(), n * sizeof(std::int32_t));
        std::memcpy(out.data() + sec[kSecCandThetaH].offset +
                        cell_off * sizeof(double),
                    row->thetaH.data(), n * sizeof(double));
        std::memcpy(out.data() + sec[kSecCandThetaP].offset +
                        cell_off * sizeof(double),
                    row->thetaP.data(), n * sizeof(double));
        std::memcpy(out.data() + sec[kSecCandTauRet].offset +
                        cell_off * sizeof(double),
                    row->tauRet.data(), n * sizeof(double));
        std::uint8_t *flags = out.data() +
                              sec[kSecCandFlags].offset +
                              cell_off * 2;
        for (std::size_t i = 0; i < n; ++i) {
            flags[2 * i] = row->anti[i];
            flags[2 * i + 1] = row->domSide[i];
        }
        cell_off += n;
    }

    // Word-mask tier: directory + per-row (valid, hammer, press,
    // retention) u64 runs.
    std::size_t word_off = 0;
    for (std::size_t r = 0; r < masks.size(); ++r) {
        const auto &[row_key, wm] = masks[r];
        const std::size_t e =
            sec[kSecWmIndex].offset + r * kWmIndexEntryBytes;
        putAt<std::uint64_t>(out, e, row_key);
        putAt<std::uint64_t>(out, e + 8, word_off);
        putAt<std::uint32_t>(out, e + 16,
                             std::uint32_t(wm->numWords));
        putAt<std::uint32_t>(out, e + 20,
                             std::uint32_t(wm->numGroups));
        putAt<double>(out, e + 24, wm->minThetaPLow);
        putAt<double>(out, e + 32, wm->minTauRetLow);

        auto put_words = [&](const std::vector<std::uint64_t> &v) {
            std::memcpy(out.data() + sec[kSecWmWords].offset +
                            word_off * sizeof(std::uint64_t),
                        v.data(), v.size() * sizeof(std::uint64_t));
            word_off += v.size();
        };
        put_words(wm->valid);
        put_words(wm->hammer);
        put_words(wm->press);
        put_words(wm->retention);
    }

    putAt<std::uint64_t>(out, kOffChecksum,
                         checksumOf(out.data(), out.size()));
    return out;
}

LoadCounts
loadSnapshot(const std::uint8_t *data, std::size_t size,
             const std::string &expected_key,
             const device::ThresholdStore &into)
{
    const Parsed p = parse(data, size);
    if (p.key != expected_key)
        fail("content key mismatch (different die/geometry/seed)");
    if (p.seed != into.seed())
        fail("seed mismatch");
    if (int(p.bitsPerRow) != into.bitsPerRow())
        fail("bits-per-row mismatch");
    if (p.invariantsHash != invariantsHashOf(into))
        fail("build-invariants hash mismatch (stale generation math)");
    if (p.ladderH != into.hammerLadder().size() ||
        p.ladderP != into.pressLadder().size() ||
        p.ladderR != into.retentionLadder().size())
        fail("bucket-ladder geometry mismatch");

    const std::size_t expect_words =
        std::size_t(into.bitsPerRow() + 63) / 64;
    const std::size_t expect_groups = (expect_words + 63) / 64;

    LoadCounts counts;
    for (std::uint64_t r = 0; r < p.candRows; ++r) {
        const std::size_t e = r * kCandIndexEntryBytes;
        const auto row_key =
            getAt<std::uint64_t>(p.at(kSecCandIndex, e), 0);
        const auto cell_off =
            getAt<std::uint64_t>(p.at(kSecCandIndex, e), 8);
        const auto n = std::size_t(
            getAt<std::uint64_t>(p.at(kSecCandIndex, e), 16));

        device::RowCandidates row;
        row.minThetaH = getAt<double>(p.at(kSecCandIndex, e), 24);
        row.minThetaP = getAt<double>(p.at(kSecCandIndex, e), 32);
        row.minTauRet = getAt<double>(p.at(kSecCandIndex, e), 40);
        row.bit.resize(n);
        row.thetaH.resize(n);
        row.thetaP.resize(n);
        row.tauRet.resize(n);
        row.anti.resize(n);
        row.domSide.resize(n);
        std::memcpy(row.bit.data(),
                    p.at(kSecCandBit,
                         cell_off * sizeof(std::int32_t)),
                    n * sizeof(std::int32_t));
        std::memcpy(row.thetaH.data(),
                    p.at(kSecCandThetaH, cell_off * sizeof(double)),
                    n * sizeof(double));
        std::memcpy(row.thetaP.data(),
                    p.at(kSecCandThetaP, cell_off * sizeof(double)),
                    n * sizeof(double));
        std::memcpy(row.tauRet.data(),
                    p.at(kSecCandTauRet, cell_off * sizeof(double)),
                    n * sizeof(double));
        const std::uint8_t *flags = p.at(kSecCandFlags, cell_off * 2);
        for (std::size_t i = 0; i < n; ++i) {
            row.anti[i] = flags[2 * i];
            row.domSide[i] = flags[2 * i + 1];
        }
        into.adoptRow(row_key, std::move(row));
        ++counts.candidateRows;
    }

    for (std::uint64_t r = 0; r < p.wmRows; ++r) {
        const std::size_t e = r * kWmIndexEntryBytes;
        const auto row_key =
            getAt<std::uint64_t>(p.at(kSecWmIndex, e), 0);
        auto word_off =
            std::size_t(getAt<std::uint64_t>(p.at(kSecWmIndex, e), 8));
        const auto num_words =
            getAt<std::uint32_t>(p.at(kSecWmIndex, e), 16);
        const auto num_groups =
            getAt<std::uint32_t>(p.at(kSecWmIndex, e), 20);
        if (num_words != expect_words || num_groups != expect_groups)
            fail("word-mask geometry mismatch");

        device::RowWordMasks wm;
        wm.numWords = num_words;
        wm.numGroups = num_groups;
        wm.minThetaPLow = getAt<double>(p.at(kSecWmIndex, e), 24);
        wm.minTauRetLow = getAt<double>(p.at(kSecWmIndex, e), 32);
        auto take = [&](std::vector<std::uint64_t> &v,
                        std::size_t count) {
            v.resize(count);
            std::memcpy(v.data(),
                        p.at(kSecWmWords,
                             word_off * sizeof(std::uint64_t)),
                        count * sizeof(std::uint64_t));
            word_off += count;
        };
        take(wm.valid, num_groups);
        take(wm.hammer, p.ladderH * std::size_t(num_groups));
        take(wm.press, p.ladderP * std::size_t(num_groups));
        take(wm.retention, p.ladderR * std::size_t(num_groups));
        into.adoptWordMasks(row_key, std::move(wm));
        ++counts.wordMaskRows;
    }
    return counts;
}

SnapshotInfo
inspectSnapshot(const std::uint8_t *data, std::size_t size)
{
    SnapshotInfo info;
    info.bytes = size;
    try {
        const Parsed p = parse(data, size);
        info.valid = true;
        info.version = kSnapshotFormatVersion;
        info.invariantsHash = p.invariantsHash;
        info.seed = p.seed;
        info.bitsPerRow = int(p.bitsPerRow);
        info.key = p.key;
        info.dieId = p.key.substr(0, p.key.find('\0'));
        info.candidateRows = std::size_t(p.candRows);
        info.wordMaskRows = std::size_t(p.wmRows);
    } catch (const SnapshotError &e) {
        info.valid = false;
        info.error = e.what();
    }
    return info;
}

} // namespace rp::persist
