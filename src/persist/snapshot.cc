#include "persist/snapshot.h"

#include <cstring>

#include "common/rng.h"

namespace rp::persist {

namespace {

// The format stores raw little-endian scalars; a big-endian port
// would need byte swaps in Writer and Reader.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "snapshot format is little-endian");

/**
 * Bumped when tier-generation math changes in a way the parameter /
 * ladder / probe fingerprint cannot see (it has never needed to move
 * yet — the probes catch expression changes — but the escape hatch
 * must exist).
 */
constexpr std::uint64_t kBuildMathVersion = 1;

/**
 * The fixed header, in file order.  Every field is naturally aligned,
 * so the struct has no padding and is copied to and from the file
 * whole; the content key follows it, then the row stream.
 */
struct Header
{
    std::uint64_t magic;
    std::uint32_t version;
    std::uint32_t headerBytes;
    std::uint64_t invariantsHash;
    std::uint64_t seed;
    std::uint32_t bitsPerRow;
    std::uint32_t reserved0;
    std::uint64_t candRows;
    std::uint64_t wmRows;
    std::uint64_t fileBytes;
    std::uint64_t checksum; ///< FNV-1a of the file, this field as zero.
    std::uint32_t ladderH;
    std::uint32_t ladderP;
    std::uint32_t ladderR;
    std::uint32_t reserved1;
    std::uint64_t keyBytes;
};
static_assert(sizeof(Header) == kSnapshotHeaderBytes);
static_assert(offsetof(Header, version) == 8 &&
                  offsetof(Header, invariantsHash) == 16 &&
                  offsetof(Header, candRows) == 40 &&
                  offsetof(Header, wmRows) == 48 &&
                  offsetof(Header, checksum) == 64,
              "header field offsets are part of the format");

[[noreturn]] void
fail(const std::string &what)
{
    throw SnapshotError("snapshot: " + what);
}

/** Append-only little-endian writer. */
struct Writer
{
    std::vector<std::uint8_t> bytes;

    void
    put(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        bytes.insert(bytes.end(), p, p + size);
    }

    template <typename T>
    void
    put(const T &v)
    {
        put(&v, sizeof v);
    }

    template <typename T>
    void
    put(const std::vector<T> &v)
    {
        put(v.data(), v.size() * sizeof(T));
    }
};

/** Bounds-checked read cursor: a read past the end throws. */
class Reader
{
  public:
    Reader(const std::uint8_t *data, std::size_t size)
        : data_(data), left_(size)
    {
    }

    template <typename T>
    T
    get()
    {
        T v{};
        take(&v, sizeof v);
        return v;
    }

    /** @p n elements, the length checked before anything is allocated. */
    template <typename T>
    std::vector<T>
    getArray(std::uint64_t n)
    {
        if (n > left_ / sizeof(T))
            fail("row stream overruns the file");
        std::vector<T> v(n);
        take(v.data(), v.size() * sizeof(T));
        return v;
    }

    std::size_t left() const { return left_; }

  private:
    void
    take(void *out, std::size_t n)
    {
        if (n > left_)
            fail("row stream overruns the file");
        if (n != 0)
            std::memcpy(out, data_, n);
        data_ += n;
        left_ -= n;
    }

    const std::uint8_t *data_;
    std::size_t left_;
};

std::uint64_t
checksumOf(const std::uint8_t *data, std::size_t size)
{
    // The whole file with the checksum field treated as zero.
    constexpr std::size_t at = offsetof(Header, checksum);
    static const std::uint8_t zeros[sizeof(std::uint64_t)] = {};
    std::uint64_t h = fnv1a(data, at);
    h = fnv1a(zeros, sizeof(zeros), h);
    return fnv1a(data + at + sizeof(zeros), size - at - sizeof(zeros), h);
}

/** A fully validated snapshot: its header, key and every row. */
struct Parsed
{
    Header header;
    std::string key;
    std::vector<std::pair<std::uint64_t, device::RowCandidates>> rows;
    std::vector<std::pair<std::uint64_t, device::RowWordMasks>> masks;
};

/** The next row's key, which must be above the last one in @p rows. */
template <typename Row>
std::uint64_t
nextKey(Reader &in,
        const std::vector<std::pair<std::uint64_t, Row>> &rows)
{
    const auto key = in.get<std::uint64_t>();
    if (!rows.empty() && key <= rows.back().first)
        fail("row keys not strictly ascending");
    return key;
}

/**
 * The row walker: checks the header and the checksum, then reads and
 * range-checks every row of both tiers.  Throws SnapshotError at the
 * first fault.
 */
Parsed
parse(const std::uint8_t *data, std::size_t size)
{
    if (!data || size < kSnapshotHeaderBytes)
        fail("too small for a header (" + std::to_string(size) +
             " bytes)");
    Reader in(data, size);
    Parsed p;
    p.header = in.get<Header>();
    const Header &h = p.header;
    if (h.magic != kSnapshotMagic)
        fail("bad magic");
    if (h.version != kSnapshotFormatVersion)
        fail("format version " + std::to_string(h.version) +
             " != " + std::to_string(kSnapshotFormatVersion));
    if (h.headerBytes != kSnapshotHeaderBytes)
        fail("bad header size");
    if (h.fileBytes != size)
        fail("file size mismatch (truncated?)");
    if (checksumOf(data, size) != h.checksum)
        fail("checksum mismatch (corrupt file)");
    const std::vector<char> key = in.getArray<char>(h.keyBytes);
    p.key.assign(key.begin(), key.end());

    // Candidate rows: key, count, minima, then the per-cell arrays.
    const std::int64_t bits_per_row = h.bitsPerRow;
    for (std::uint64_t r = 0; r < h.candRows; ++r) {
        const std::uint64_t row_key = nextKey(in, p.rows);
        const auto n = in.get<std::uint64_t>();
        device::RowCandidates row;
        row.minThetaH = in.get<double>();
        row.minThetaP = in.get<double>();
        row.minTauRet = in.get<double>();
        row.bit = in.getArray<std::int32_t>(n);
        row.thetaH = in.getArray<double>(n);
        row.thetaP = in.getArray<double>(n);
        row.tauRet = in.getArray<double>(n);
        row.anti = in.getArray<std::uint8_t>(n);
        row.domSide = in.getArray<std::uint8_t>(n);
        std::int64_t last = -1;
        for (std::size_t i = 0; i < row.size(); ++i) {
            if (row.bit[i] <= last || row.bit[i] >= bits_per_row)
                fail("candidate bits not strictly ascending below "
                     "bits-per-row");
            if (row.anti[i] > 1 || row.domSide[i] > 1)
                fail("candidate anti/domSide outside {0, 1}");
            last = row.bit[i];
        }
        p.rows.emplace_back(row_key, std::move(row));
    }

    // Word-mask rows: key, geometry, lower bounds, then the masks.
    const std::size_t words = (std::size_t(h.bitsPerRow) + 63) / 64;
    const std::size_t groups = (words + 63) / 64;
    // The bits of a last-group word that would mark words past the row.
    const std::uint64_t past_row =
        words % 64 ? ~std::uint64_t(0) << (words % 64) : 0;
    for (std::uint64_t r = 0; r < h.wmRows; ++r) {
        const std::uint64_t row_key = nextKey(in, p.masks);
        device::RowWordMasks wm;
        wm.numWords = in.get<std::uint32_t>();
        wm.numGroups = in.get<std::uint32_t>();
        if (wm.numWords != words || wm.numGroups != groups)
            fail("word-mask geometry mismatch");
        wm.minThetaPLow = in.get<double>();
        wm.minTauRetLow = in.get<double>();
        wm.valid = in.getArray<std::uint64_t>(groups);
        wm.hammer = in.getArray<std::uint64_t>(h.ladderH * groups);
        wm.press = in.getArray<std::uint64_t>(h.ladderP * groups);
        wm.retention = in.getArray<std::uint64_t>(h.ladderR * groups);
        if (past_row != 0) // so groups >= 1
            for (const auto *mask :
                 {&wm.valid, &wm.hammer, &wm.press, &wm.retention})
                for (std::size_t i = groups; i <= mask->size();
                     i += groups)
                    if ((*mask)[i - 1] & past_row)
                        fail("word mask marks a word past the row");
        p.masks.emplace_back(row_key, std::move(wm));
    }
    if (in.left() != 0)
        fail("trailing bytes after the last row");
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
    Header h{};
    h.magic = kSnapshotMagic;
    h.version = kSnapshotFormatVersion;
    h.headerBytes = kSnapshotHeaderBytes;
    h.invariantsHash = invariantsHashOf(store);
    h.seed = store.seed();
    h.bitsPerRow = std::uint32_t(store.bitsPerRow());
    h.ladderH = std::uint32_t(store.hammerLadder().size());
    h.ladderP = std::uint32_t(store.pressLadder().size());
    h.ladderR = std::uint32_t(store.retentionLadder().size());
    h.keyBytes = key.size();
    const auto rows = store.exportRows();
    const auto masks = store.exportWordMasks();
    h.candRows = rows.size();
    h.wmRows = masks.size();

    Writer out;
    out.put(h);
    out.put(key.data(), key.size());
    for (const auto &[row_key, row] : rows) {
        out.put(row_key);
        out.put(std::uint64_t(row->size()));
        out.put(row->minThetaH);
        out.put(row->minThetaP);
        out.put(row->minTauRet);
        out.put(row->bit);
        out.put(row->thetaH);
        out.put(row->thetaP);
        out.put(row->tauRet);
        out.put(row->anti);
        out.put(row->domSide);
    }
    for (const auto &[row_key, wm] : masks) {
        out.put(row_key);
        out.put(std::uint32_t(wm->numWords));
        out.put(std::uint32_t(wm->numGroups));
        out.put(wm->minThetaPLow);
        out.put(wm->minTauRetLow);
        out.put(wm->valid);
        out.put(wm->hammer);
        out.put(wm->press);
        out.put(wm->retention);
    }

    // The size and checksum cover the rows, so the header is final
    // only now.
    h.fileBytes = out.bytes.size();
    std::memcpy(out.bytes.data(), &h, sizeof h);
    h.checksum = checksumOf(out.bytes.data(), out.bytes.size());
    std::memcpy(out.bytes.data(), &h, sizeof h);
    return std::move(out.bytes);
}

LoadCounts
loadSnapshot(const std::uint8_t *data, std::size_t size,
             const std::string &expected_key,
             const device::ThresholdStore &into)
{
    Parsed p = parse(data, size);
    const Header &h = p.header;
    if (p.key != expected_key)
        fail("content key mismatch (different die/geometry/seed)");
    if (h.seed != into.seed())
        fail("seed mismatch");
    if (std::int64_t(h.bitsPerRow) != into.bitsPerRow())
        fail("bits-per-row mismatch");
    if (h.invariantsHash != invariantsHashOf(into))
        fail("build-invariants hash mismatch (stale generation math)");
    if (h.ladderH != into.hammerLadder().size() ||
        h.ladderP != into.pressLadder().size() ||
        h.ladderR != into.retentionLadder().size())
        fail("bucket-ladder geometry mismatch");

    // Every row has validated; only now does the store change.
    for (auto &[row_key, row] : p.rows)
        into.adoptRow(row_key, std::move(row));
    for (auto &[row_key, wm] : p.masks)
        into.adoptWordMasks(row_key, std::move(wm));
    return {p.rows.size(), p.masks.size()};
}

SnapshotInfo
inspectSnapshot(const std::uint8_t *data, std::size_t size)
{
    SnapshotInfo info;
    info.bytes = size;
    try {
        const Parsed p = parse(data, size);
        info.valid = true;
        info.version = p.header.version;
        info.invariantsHash = p.header.invariantsHash;
        info.seed = p.header.seed;
        info.bitsPerRow = int(p.header.bitsPerRow);
        info.key = p.key;
        info.dieId = p.key.substr(0, p.key.find('\0'));
        info.candidateRows = p.rows.size();
        info.wordMaskRows = p.masks.size();
    } catch (const SnapshotError &e) {
        info.error = e.what();
    }
    return info;
}

std::optional<LoadCounts>
headerRowCounts(const std::uint8_t *data, std::size_t size)
{
    if (!data || size < kSnapshotHeaderBytes)
        return std::nullopt;
    const auto h = Reader(data, size).get<Header>();
    if (h.magic != kSnapshotMagic || h.version != kSnapshotFormatVersion)
        return std::nullopt;
    return LoadCounts{std::size_t(h.candRows), std::size_t(h.wmRows)};
}

} // namespace rp::persist
