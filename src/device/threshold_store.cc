#include "device/threshold_store.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "common/rng.h"
#include "common/stats.h"
#include "device/cell_tags.h"
#include "device/draw_word.h"

namespace rp::device {

using namespace celltags;

RowZ
computeRowZ(std::uint64_t seed, int bank, int row)
{
    HashRng row_rng(hashU64(seed, std::uint64_t(bank),
                            std::uint64_t(row)));
    RowZ z;
    z.rowH = row_rng.normal(TAG_ROWH);
    z.rowP = row_rng.normal(TAG_ROWP);
    return z;
}

RowWordZ
computeWordZ(const RowZ &row_z, std::uint64_t seed, int bank, int row,
             int word_index)
{
    HashRng word_rng(hashU64(seed, std::uint64_t(bank),
                             std::uint64_t(row),
                             std::uint64_t(word_index) + 0x1000000ULL));
    RowWordZ z;
    z.rowH = row_z.rowH;
    z.rowP = row_z.rowP;
    z.wordH = word_rng.normal(TAG_WRDH);
    z.wordP = word_rng.normal(TAG_WRDP);
    return z;
}

RowWordZ
computeRowWordZ(std::uint64_t seed, int bank, int row, int word_index)
{
    return computeWordZ(computeRowZ(seed, bank, row), seed, bank, row,
                        word_index);
}

double
hammerThreshold(const ThresholdParams &p, double u_h, const RowWordZ &z)
{
    return std::exp(p.muH + p.sigmaH * probit(u_h) + p.sigmaRowH * z.rowH +
                    p.sigmaWordH * z.wordH);
}

double
pressThreshold(const ThresholdParams &p, double u_p, const RowWordZ &z)
{
    return std::exp(p.muP + p.sigmaP * probit(u_p) + p.sigmaRowP * z.rowP +
                    p.sigmaWordP * z.wordP);
}

double
retentionThreshold(const ThresholdParams &p, double u_ret)
{
    return std::exp(p.muRet + p.sigmaRet * probit(u_ret));
}

bool
cellIsAnti(const ThresholdParams &p, const HashRng &cell)
{
    return cell.uniform(TAG_ANTI) < p.antiFraction;
}

int
cellDomSide(const HashRng &cell)
{
    return cell.uniform(TAG_DOM) < 0.5 ? 0 : 1;
}

CellProps
computeCellProps(const ThresholdParams &p, const HashRng &cell,
                 const RowWordZ &z)
{
    CellProps props;
    props.uH = cell.uniform(TAG_UH);
    props.uP = cell.uniform(TAG_UP);
    props.anti = cellIsAnti(p, cell);
    props.domSide = cellDomSide(cell);
    props.thetaH = hammerThreshold(p, props.uH, z);
    props.thetaP = pressThreshold(p, props.uP, z);
    props.tauRet = retentionThreshold(p, cell.uniform(TAG_RET));
    return props;
}

CellProps
computeCellProps(const ThresholdParams &p, std::uint64_t seed, int bank,
                 int row, int bit)
{
    HashRng cell(hashU64(seed, std::uint64_t(bank), std::uint64_t(row),
                         std::uint64_t(bit)));
    return computeCellProps(
        p, cell, computeRowWordZ(seed, bank, row, bit / 64));
}

double
weakQuantileCutoff(double bound, double mu, double sigma, double shift)
{
    if (!(bound > 0.0))
        return 0.0;
    if (!(sigma > 0.0)) {
        // Degenerate spread (ablation studies may zero a sigma):
        // every cell shares exp(mu + shift), so the answer is all or
        // nothing; the relative margin keeps boundary ties inclusive.
        return std::exp(mu + shift) <= bound * (1.0 + 1e-9) ? 1.0 : 0.0;
    }
    // theta <= bound  <=>  probit(u) <= (log(bound) - mu - shift)/sigma.
    // The 1e-6 cushion dominates both the Acklam probit error (~5e-8
    // absolute over its clamped +/-38 range) and the rounding of this
    // expression, so the cutoff can only over-include.
    const double z_cut = (std::log(bound) - mu - shift) / sigma + 1e-6;
    return normCdf(z_cut);
}

BucketLadder::BucketLadder(double mu, double sigma)
{
    // Edges at lo * 2^k from 12 sigma below the log-space mean (well
    // past any realizable weak cell the selective regime cares about;
    // words even weaker than that land in every mask, which stays
    // conservative) up past 3 sigma above it (queries beyond the top
    // edge degenerate to a plain full scan of the row).
    const double s = std::max(sigma, 0.3);
    const double lo = std::exp(mu - 12.0 * s);
    const double hi = std::exp(mu + 3.0 * s);
    constexpr std::size_t kMaxEdges = 48;
    double edge = lo;
    while (edges_.size() < kMaxEdges) {
        edges_.push_back(edge);
        if (edge >= hi)
            break;
        edge *= 2.0;
    }
}

std::size_t
BucketLadder::indexFor(double bound) const
{
    return std::size_t(
        std::lower_bound(edges_.begin(), edges_.end(), bound) -
        edges_.begin());
}

namespace {

/**
 * Content key of a shared store: the die id (a readable label, up to
 * the first NUL), then the raw bits of every field a store reads,
 * bits per row and seed.
 */
std::string
storeKeyOf(const std::string &die_id, const ThresholdParams &p,
           int bits_per_row, std::uint64_t seed)
{
    std::string key = die_id;
    key.push_back('\0');
    auto put = [&key](const void *ptr, std::size_t n) {
        key.append(static_cast<const char *>(ptr), n);
    };
    const double doubles[] = {
        p.muH,   p.sigmaH,   p.sigmaRowH, p.sigmaWordH,
        p.muP,   p.sigmaP,   p.sigmaRowP, p.sigmaWordP,
        p.muRet, p.sigmaRet, p.antiFraction,
    };
    put(doubles, sizeof(doubles));
    put(&bits_per_row, sizeof(bits_per_row));
    put(&seed, sizeof(seed));
    return key;
}

struct StoreRegistry
{
    core::Mutex mutex;
    // Strong references: a store is a pure deterministic cache, and
    // the engine drivers churn through short-lived Modules (one per
    // task), so a weak registry would rebuild every tier each time
    // the last model of a key died between tasks.  Keeping stores
    // for the life of the process is what makes "candidate
    // enumeration happens once per row per process" actually true;
    // memory stays bounded by (distinct keys) x (touched rows).
    std::unordered_map<std::string,
                       std::shared_ptr<const ThresholdStore>>
        stores RP_GUARDED_BY(mutex);

    // Warm-cache accounting for the service layer's cache report.
    std::uint64_t hits RP_GUARDED_BY(mutex) = 0;
    std::uint64_t misses RP_GUARDED_BY(mutex) = 0;
    std::uint64_t evictions RP_GUARDED_BY(mutex) = 0;
};

StoreRegistry &
registry()
{
    static StoreRegistry reg;
    return reg;
}

/**
 * The persistence layer's warm-start callback (see setWarmStartHook).
 * Lock-free: read once per store creation, a cold path.
 */
std::atomic<ThresholdStore::WarmStartHook> warmStartHook{nullptr};

} // namespace

ThresholdStore::ThresholdStore(const ThresholdParams &params,
                               int bits_per_row, std::uint64_t seed)
    : params_(params), bitsPerRow_(bits_per_row), seed_(seed),
      hammerLadder_(params.muH, params.sigmaH + params.sigmaRowH +
                                    params.sigmaWordH),
      pressLadder_(params.muP, params.sigmaP + params.sigmaRowP +
                                   params.sigmaWordP),
      retentionLadder_(params.muRet, params.sigmaRet)
{
}

std::shared_ptr<const ThresholdStore>
ThresholdStore::acquire(const std::string &die_id,
                        const ThresholdParams &params, int bits_per_row,
                        std::uint64_t seed)
{
    StoreRegistry &reg = registry();
    std::string key = storeKeyOf(die_id, params, bits_per_row, seed);
    std::shared_ptr<const ThresholdStore> store;
    {
        core::LockGuard lock(reg.mutex);
        if (auto it = reg.stores.find(key); it != reg.stores.end()) {
            ++reg.hits;
            return it->second;
        }
        ++reg.misses;
        auto *created = new ThresholdStore(params, bits_per_row, seed);
        created->contentKey_ = std::move(key);
        store.reset(created);
        reg.stores[created->contentKey_] = store;
    }
    // Warm-start consult outside the registry lock: the hook takes
    // the store's own mutex (via adoptRow) and the persistence
    // layer's, so holding the registry lock here would order
    // registry -> cache against the publication sweep's cache ->
    // registry.  Racing acquirers of the same key may use the store
    // while it loads; adopted and lazily built rows are bit-identical
    // by construction, so the interleaving is unobservable.
    if (const WarmStartHook hook =
            warmStartHook.load(std::memory_order_acquire))
        hook(*store);
    return store;
}

std::vector<std::shared_ptr<const ThresholdStore>>
ThresholdStore::registrySnapshot()
{
    StoreRegistry &reg = registry();
    std::vector<std::shared_ptr<const ThresholdStore>> out;
    {
        core::LockGuard lock(reg.mutex);
        out.reserve(reg.stores.size());
        for (const auto &[key, store] : reg.stores) {
            (void)key;
            out.push_back(store);
        }
    }
    std::sort(out.begin(), out.end(),
              [](const auto &a, const auto &b) {
                  return a->contentKey() < b->contentKey();
              });
    return out;
}

void
ThresholdStore::setWarmStartHook(WarmStartHook hook)
{
    warmStartHook.store(hook, std::memory_order_release);
}

ThresholdStoreStats
ThresholdStore::stats() const
{
    ThresholdStoreStats out;
    core::LockGuard lock(mutex_);
    out.rowBuilds = rowBuilds_;
    out.wordMaskBuilds = wordMaskBuilds_;
    out.candidateRows = rows_.size();
    for (const auto &[key, row] : rows_) {
        (void)key;
        out.candidateCells += row->size();
        out.approxBytes +=
            sizeof(RowCandidates) +
            row->size() * (sizeof(std::int32_t) + 3 * sizeof(double) +
                           2 * sizeof(std::uint8_t));
    }
    out.wordMaskRows = wordMasks_.size();
    for (const auto &[key, masks] : wordMasks_) {
        (void)key;
        out.approxBytes +=
            sizeof(RowWordMasks) +
            (masks->valid.size() + masks->hammer.size() +
             masks->press.size() + masks->retention.size()) *
                sizeof(std::uint64_t);
    }
    return out;
}

ThresholdStoreRegistryStats
ThresholdStore::registryStats()
{
    StoreRegistry &reg = registry();
    ThresholdStoreRegistryStats out;
    std::vector<std::shared_ptr<const ThresholdStore>> snapshot;
    {
        // Snapshot the store set, then sum per-store stats outside
        // the registry lock (each store takes its own mutex).
        core::LockGuard lock(reg.mutex);
        out.stores = reg.stores.size();
        out.hits = reg.hits;
        out.misses = reg.misses;
        out.evictions = reg.evictions;
        snapshot.reserve(reg.stores.size());
        for (const auto &[key, store] : reg.stores) {
            (void)key;
            snapshot.push_back(store);
        }
    }
    for (const auto &store : snapshot) {
        const ThresholdStoreStats s = store->stats();
        out.totals.candidateRows += s.candidateRows;
        out.totals.candidateCells += s.candidateCells;
        out.totals.wordMaskRows += s.wordMaskRows;
        out.totals.approxBytes += s.approxBytes;
        out.totals.rowBuilds += s.rowBuilds;
        out.totals.wordMaskBuilds += s.wordMaskBuilds;
    }
    return out;
}

std::size_t
ThresholdStore::evictRegistry()
{
    StoreRegistry &reg = registry();
    core::LockGuard lock(reg.mutex);
    const std::size_t n = reg.stores.size();
    reg.stores.clear();
    reg.evictions += n;
    return n;
}

std::shared_ptr<const ThresholdStore>
ThresholdStore::makePrivate(const ThresholdParams &params,
                            int bits_per_row, std::uint64_t seed)
{
    return std::shared_ptr<const ThresholdStore>(
        new ThresholdStore(params, bits_per_row, seed));
}

RowCandidates
ThresholdStore::buildRow(int bank, int row) const
{
    // Keep the cells in the lowest-quantile tails of either threshold
    // distribution: generous enough that any ACmin-level search result
    // is determined by a cached cell.
    const std::uint64_t cap = drawThreshold(candidateCapQuantile());
    const std::uint64_t prefix =
        hashPrefix(seed_, std::uint64_t(bank), std::uint64_t(row));
    const RowZ row_z = computeRowZ(seed_, bank, row);
    RowCandidates out;
    WordDraws d{};
    for (int first = 0; first < bitsPerRow_; first += 64) {
        drawWord(prefix, std::uint64_t(first), d);
        const int n = std::min(64, bitsPerRow_ - first);
        for (int i = 0; i < n; ++i) {
            // All three draws, then one compare: nearly every cell is
            // rejected, so a short-circuit would only add branches.
            if (std::min({d.hammer[i], d.press[i], d.retention[i]}) >=
                cap)
                continue;
            const int bit = first + i;
            const CellProps props = computeCellProps(
                params_, HashRng(hashFinish(prefix, std::uint64_t(bit))),
                computeWordZ(row_z, seed_, bank, row, bit / 64));
            out.bit.push_back(bit);
            out.thetaH.push_back(props.thetaH);
            out.thetaP.push_back(props.thetaP);
            out.tauRet.push_back(props.tauRet);
            out.anti.push_back(props.anti ? 1 : 0);
            out.domSide.push_back(std::uint8_t(props.domSide));
            out.minThetaH = std::min(out.minThetaH, props.thetaH);
            out.minThetaP = std::min(out.minThetaP, props.thetaP);
            out.minTauRet = std::min(out.minTauRet, props.tauRet);
        }
    }
    return out;
}

RowWordMasks
ThresholdStore::buildWordMasks(int bank, int row) const
{
    const ThresholdParams &p = params_;
    RowWordMasks wm;
    wm.numWords = std::size_t(bitsPerRow_ + 63) / 64;
    wm.numGroups = (wm.numWords + 63) / 64;
    wm.valid.assign(wm.numGroups, 0);
    wm.hammer.assign(hammerLadder_.size() * wm.numGroups, 0);
    wm.press.assign(pressLadder_.size() * wm.numGroups, 0);
    wm.retention.assign(retentionLadder_.size() * wm.numGroups, 0);

    const RowZ row_z = computeRowZ(seed_, bank, row);
    const std::uint64_t prefix =
        hashPrefix(seed_, std::uint64_t(bank), std::uint64_t(row));

    // A word's minimum threshold per mechanism is the threshold of
    // its minimum uniform draw (exp and probit are monotone; the
    // shared row/word variance components factor out within a word),
    // so the enumeration needs only three raw hash draws per cell and
    // one probit/exp per word — ~5x cheaper than materializing every
    // cell's properties.  The recorded bucket is padded one level
    // down, giving a full factor-2 margin that swallows any floating-
    // point monotonicity slop of that shortcut.
    double row_min_p = 1e300;
    double row_min_r = 1e300;
    WordDraws d{};
    for (std::size_t w = 0; w < wm.numWords; ++w) {
        const int first = int(w) * 64;
        const int n = std::min(64, bitsPerRow_ - first);
        drawWord(prefix, std::uint64_t(first), d);
        std::uint64_t min_dh = kDrawOne;
        std::uint64_t min_dp = kDrawOne;
        std::uint64_t min_dr = kDrawOne;
        for (int i = 0; i < n; ++i) {
            min_dh = std::min(min_dh, d.hammer[i]);
            min_dp = std::min(min_dp, d.press[i]);
            min_dr = std::min(min_dr, d.retention[i]);
        }

        const RowWordZ z = computeWordZ(row_z, seed_, bank, row, int(w));
        const double min_h = hammerThreshold(p, drawUniform(min_dh), z);
        const double min_p = pressThreshold(p, drawUniform(min_dp), z);
        const double min_r = retentionThreshold(p, drawUniform(min_dr));
        row_min_p = std::min(row_min_p, min_p);
        row_min_r = std::min(row_min_r, min_r);

        const std::size_t g = w / 64;
        const std::uint64_t bit = std::uint64_t(1) << (w % 64);
        wm.valid[g] |= bit;
        // A word whose weakest cell sits at ladder level k occupies
        // the cumulative masks of every level >= k (minus the safety
        // pad).
        auto firstLevel = [](const BucketLadder &l, double v) {
            const std::size_t k = l.indexFor(v);
            return k > 0 ? k - 1 : 0;
        };
        for (std::size_t k = firstLevel(hammerLadder_, min_h);
             k < hammerLadder_.size(); ++k)
            wm.hammer[k * wm.numGroups + g] |= bit;
        for (std::size_t k = firstLevel(pressLadder_, min_p);
             k < pressLadder_.size(); ++k)
            wm.press[k * wm.numGroups + g] |= bit;
        for (std::size_t k = firstLevel(retentionLadder_, min_r);
             k < retentionLadder_.size(); ++k)
            wm.retention[k * wm.numGroups + g] |= bit;
    }
    wm.minThetaPLow = 0.5 * row_min_p;
    wm.minTauRetLow = 0.5 * row_min_r;
    return wm;
}

/**
 * The in-flight mark of one tier build, taken by the caller that
 * starts the build: its destructor clears the mark and wakes the
 * waiters whether the build returned or threw, so a failed build
 * leaves the row to the next caller instead of stranding waiters.
 */
class ThresholdStore::BuildMark
{
  public:
    BuildMark(const ThresholdStore &store, bool word_tier,
              std::uint64_t key)
        : store_(store), wordTier_(word_tier), key_(key)
    {
    }
    ~BuildMark() { store_.endBuild(wordTier_, key_); }

    BuildMark(const BuildMark &) = delete;
    BuildMark &operator=(const BuildMark &) = delete;

  private:
    const ThresholdStore &store_;
    bool wordTier_;
    std::uint64_t key_;
};

void
ThresholdStore::endBuild(bool word_tier, std::uint64_t key) const
{
    core::LockGuard lock(mutex_);
    if (word_tier)
        wordMasksInFlight_.erase(key);
    else
        rowsInFlight_.erase(key);
    built_.notify_all();
}

const RowWordMasks &
ThresholdStore::wordMasks(int bank, int row) const
{
    const std::uint64_t key = packRowKey(bank, row);
    {
        // Single flight: wait while another caller builds this row.
        core::UniqueLock lock(mutex_);
        auto it = wordMasks_.find(key);
        while (it == wordMasks_.end() && wordMasksInFlight_.count(key)) {
            built_.wait(lock);
            it = wordMasks_.find(key);
        }
        if (it != wordMasks_.end())
            return *it->second;
        wordMasksInFlight_.insert(key);
        ++wordMaskBuilds_;
    }
    const BuildMark mark(*this, /*word_tier=*/true, key);
    auto built =
        std::make_unique<RowWordMasks>(buildWordMasks(bank, row));
    core::LockGuard lock(mutex_);
    // A row adopted from a snapshot during the build wins; it is
    // bit-identical, and this copy is discarded.
    return *wordMasks_.emplace(key, std::move(built)).first->second;
}

std::vector<std::pair<std::uint64_t, const RowCandidates *>>
ThresholdStore::exportRows() const
{
    std::vector<std::pair<std::uint64_t, const RowCandidates *>> out;
    {
        core::LockGuard lock(mutex_);
        out.reserve(rows_.size());
        for (const auto &[key, row] : rows_)
            out.emplace_back(key, row.get());
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<std::pair<std::uint64_t, const RowWordMasks *>>
ThresholdStore::exportWordMasks() const
{
    std::vector<std::pair<std::uint64_t, const RowWordMasks *>> out;
    {
        core::LockGuard lock(mutex_);
        out.reserve(wordMasks_.size());
        for (const auto &[key, masks] : wordMasks_)
            out.emplace_back(key, masks.get());
    }
    std::sort(out.begin(), out.end());
    return out;
}

bool
ThresholdStore::adoptRow(std::uint64_t key, RowCandidates &&row) const
{
    auto built = std::make_unique<RowCandidates>(std::move(row));
    core::LockGuard lock(mutex_);
    return rows_.emplace(key, std::move(built)).second;
}

bool
ThresholdStore::adoptWordMasks(std::uint64_t key,
                               RowWordMasks &&masks) const
{
    auto built = std::make_unique<RowWordMasks>(std::move(masks));
    core::LockGuard lock(mutex_);
    return wordMasks_.emplace(key, std::move(built)).second;
}

const RowCandidates &
ThresholdStore::row(int bank, int row) const
{
    const std::uint64_t key = packRowKey(bank, row);
    {
        // Single flight, as in wordMasks().
        core::UniqueLock lock(mutex_);
        auto it = rows_.find(key);
        while (it == rows_.end() && rowsInFlight_.count(key)) {
            built_.wait(lock);
            it = rows_.find(key);
        }
        if (it != rows_.end())
            return *it->second;
        rowsInFlight_.insert(key);
        ++rowBuilds_;
    }
    const BuildMark mark(*this, /*word_tier=*/false, key);
    auto built = std::make_unique<RowCandidates>(buildRow(bank, row));
    core::LockGuard lock(mutex_);
    return *rows_.emplace(key, std::move(built)).first->second;
}

} // namespace rp::device
