/**
 * @file
 * Persistence suite: ThresholdStore snapshots and the on-disk
 * warm-start cache.
 *
 * The load-bearing invariant is bit-identity: a store warmed from a
 * snapshot must be indistinguishable — byte for byte, tier by tier —
 * from one built cold.  Everything else is failure behavior: corrupt,
 * truncated, stale-version, and stale-math snapshots must rebuild
 * (never crash, never serve wrong thresholds), concurrent processes
 * must be able to share one cache directory, and the fault points
 * must degrade exactly like real I/O failures.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "api/cli.h"
#include "api/context.h"
#include "api/json.h"
#include "api/registry.h"
#include "core/fault.h"
#include "device/cell_model.h"
#include "device/threshold_store.h"
#include "persist/cache.h"
#include "persist/snapshot.h"

#if defined(__unix__) || defined(__APPLE__)
#define RP_TEST_HAVE_FORK 1
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace rp::persist {
namespace {

namespace fs = std::filesystem;
using device::CellModel;
using device::RowCandidates;
using device::RowWordMasks;
using device::ThresholdStore;
using device::dieS8GbB;

/** Every test leaves the process-wide cache and injector disarmed. */
struct CacheGuard
{
    ~CacheGuard()
    {
        SnapshotCache::instance().configure("");
        SnapshotCache::instance().resetStats();
        core::FaultInjector::instance().disarm();
    }
};

fs::path
freshDir(const std::string &name)
{
    const fs::path dir = fs::path(::testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** A private store with some of both tiers built. */
std::shared_ptr<const ThresholdStore>
builtStore(std::uint64_t seed)
{
    CellModel model(dieS8GbB(), 65536, seed);
    auto store =
        ThresholdStore::makePrivate(model.params(), 65536, seed);
    store->row(0, 100);
    store->row(1, 5);
    store->row(3, 4096);
    store->wordMasks(0, 100);
    store->wordMasks(2, 77);
    return store;
}

/** Exact (bitwise, for doubles) equality of two candidate tiers. */
void
expectRowsIdentical(const ThresholdStore &a, const ThresholdStore &b)
{
    const auto ra = a.exportRows();
    const auto rb = b.exportRows();
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra[i].first, rb[i].first);
        const RowCandidates &x = *ra[i].second;
        const RowCandidates &y = *rb[i].second;
        EXPECT_EQ(x.bit, y.bit);
        EXPECT_EQ(x.anti, y.anti);
        EXPECT_EQ(x.domSide, y.domSide);
        ASSERT_EQ(x.thetaH.size(), y.thetaH.size());
        EXPECT_EQ(0, std::memcmp(x.thetaH.data(), y.thetaH.data(),
                                 x.thetaH.size() * sizeof(double)));
        EXPECT_EQ(0, std::memcmp(x.thetaP.data(), y.thetaP.data(),
                                 x.thetaP.size() * sizeof(double)));
        EXPECT_EQ(0, std::memcmp(x.tauRet.data(), y.tauRet.data(),
                                 x.tauRet.size() * sizeof(double)));
        EXPECT_EQ(0, std::memcmp(&x.minThetaH, &y.minThetaH,
                                 sizeof(double)));
        EXPECT_EQ(0, std::memcmp(&x.minThetaP, &y.minThetaP,
                                 sizeof(double)));
        EXPECT_EQ(0, std::memcmp(&x.minTauRet, &y.minTauRet,
                                 sizeof(double)));
    }
}

void
expectMasksIdentical(const ThresholdStore &a, const ThresholdStore &b)
{
    const auto ma = a.exportWordMasks();
    const auto mb = b.exportWordMasks();
    ASSERT_EQ(ma.size(), mb.size());
    for (std::size_t i = 0; i < ma.size(); ++i) {
        EXPECT_EQ(ma[i].first, mb[i].first);
        const RowWordMasks &x = *ma[i].second;
        const RowWordMasks &y = *mb[i].second;
        EXPECT_EQ(x.numWords, y.numWords);
        EXPECT_EQ(x.numGroups, y.numGroups);
        EXPECT_EQ(x.valid, y.valid);
        EXPECT_EQ(x.hammer, y.hammer);
        EXPECT_EQ(x.press, y.press);
        EXPECT_EQ(x.retention, y.retention);
        EXPECT_EQ(0, std::memcmp(&x.minThetaPLow, &y.minThetaPLow,
                                 sizeof(double)));
        EXPECT_EQ(0, std::memcmp(&x.minTauRetLow, &y.minTauRetLow,
                                 sizeof(double)));
    }
}

/** Re-stamp the checksum after a test deliberately edits a header. */
void
refixChecksum(std::vector<std::uint8_t> &blob)
{
    static const std::uint8_t zeros[8] = {};
    std::uint64_t h = fnv1a(blob.data(), 64);
    h = fnv1a(zeros, sizeof(zeros), h);
    h = fnv1a(blob.data() + 72, blob.size() - 72, h);
    std::memcpy(blob.data() + 64, &h, 8);
}

const std::string kTestKey = std::string("TESTDIE") +
                             std::string(1, '\0') + "rest-of-key";

// ---------------------------------------------------------------
// Snapshot format: round trips, fixpoints, inspection
// ---------------------------------------------------------------

TEST(PersistSnapshot, RoundTripIsBitIdentical)
{
    const auto a = builtStore(7);
    const std::vector<std::uint8_t> blob = writeSnapshot(*a, kTestKey);

    CellModel model(dieS8GbB(), 65536, 7);
    const auto b =
        ThresholdStore::makePrivate(model.params(), 65536, 7);
    const LoadCounts counts =
        loadSnapshot(blob.data(), blob.size(), kTestKey, *b);
    EXPECT_EQ(counts.candidateRows, 3u);
    EXPECT_EQ(counts.wordMaskRows, 2u);

    expectRowsIdentical(*a, *b);
    expectMasksIdentical(*a, *b);

    // A loaded tier must also equal a freshly *built* one (the rows
    // rebuilt from scratch), not just survive serialization.
    const auto c = builtStore(7);
    expectRowsIdentical(*c, *b);
    expectMasksIdentical(*c, *b);

    // Serialize-load-serialize is a byte fixpoint.
    EXPECT_EQ(blob, writeSnapshot(*b, kTestKey));
}

TEST(PersistSnapshot, InspectReportsIdentity)
{
    const auto a = builtStore(9);
    const std::vector<std::uint8_t> blob = writeSnapshot(*a, kTestKey);
    const SnapshotInfo info =
        inspectSnapshot(blob.data(), blob.size());
    ASSERT_TRUE(info.valid) << info.error;
    EXPECT_EQ(info.version, kSnapshotFormatVersion);
    EXPECT_EQ(info.seed, 9u);
    EXPECT_EQ(info.bitsPerRow, 65536);
    EXPECT_EQ(info.key, kTestKey);
    EXPECT_EQ(info.dieId, "TESTDIE");
    EXPECT_EQ(info.candidateRows, 3u);
    EXPECT_EQ(info.wordMaskRows, 2u);
    EXPECT_EQ(info.bytes, blob.size());
    EXPECT_EQ(info.invariantsHash, invariantsHashOf(*a));
}

TEST(PersistSnapshot, SameTiersDifferentBuildOrderSameBytes)
{
    CellModel model(dieS8GbB(), 65536, 4);
    const auto a =
        ThresholdStore::makePrivate(model.params(), 65536, 4);
    a->row(0, 1);
    a->row(0, 2);
    a->wordMasks(1, 9);
    const auto b =
        ThresholdStore::makePrivate(model.params(), 65536, 4);
    b->wordMasks(1, 9);
    b->row(0, 2);
    b->row(0, 1);
    EXPECT_EQ(writeSnapshot(*a, kTestKey), writeSnapshot(*b, kTestKey));
}

// ---------------------------------------------------------------
// Chaos: every corruption class must reject cleanly, adopt nothing
// ---------------------------------------------------------------

class PersistChaos : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        store_ = builtStore(3);
        blob_ = writeSnapshot(*store_, kTestKey);
    }

    /**
     * The blob must be rejected and the target store untouched.
     * @p inspect_detects: whether store-less inspection can also see
     * the problem (an invariants mismatch needs the target store's
     * expected hash, so inspection alone reports such a blob valid).
     */
    void
    expectRejected(const std::vector<std::uint8_t> &blob,
                   const std::string &why_contains,
                   bool inspect_detects = true)
    {
        CellModel model(dieS8GbB(), 65536, 3);
        const auto into =
            ThresholdStore::makePrivate(model.params(), 65536, 3);
        try {
            loadSnapshot(blob.data(), blob.size(), kTestKey, *into);
            FAIL() << "expected SnapshotError (" << why_contains
                   << ")";
        } catch (const SnapshotError &e) {
            EXPECT_NE(std::string(e.what()).find(why_contains),
                      std::string::npos)
                << e.what();
        }
        // Validation failed, so nothing may have been adopted.
        EXPECT_EQ(into->stats().candidateRows, 0u);
        EXPECT_EQ(into->stats().wordMaskRows, 0u);
        // inspectSnapshot agrees, without throwing.
        if (inspect_detects) {
            EXPECT_FALSE(
                inspectSnapshot(blob.data(), blob.size()).valid);
        }
    }

    std::shared_ptr<const ThresholdStore> store_;
    std::vector<std::uint8_t> blob_;
};

TEST_F(PersistChaos, TruncationRejected)
{
    auto blob = blob_;
    blob.resize(blob.size() - 7);
    expectRejected(blob, "");
    blob.resize(40); // shorter than the header
    expectRejected(blob, "");
    expectRejected({}, "");
}

TEST_F(PersistChaos, BitFlipAnywhereRejected)
{
    // Flip one bit at a spread of offsets: header, content key,
    // candidate rows, the middle of the row stream, last byte.
    for (const std::size_t at :
         {std::size_t(9), std::size_t(100), std::size_t(400),
          blob_.size() / 2, blob_.size() - 1}) {
        auto blob = blob_;
        blob[at] ^= 0x10;
        expectRejected(blob, "");
    }
}

TEST_F(PersistChaos, WrongMagicAndVersionRejected)
{
    auto blob = blob_;
    blob[0] ^= 0xff;
    refixChecksum(blob);
    expectRejected(blob, "magic");

    blob = blob_;
    const std::uint32_t version = kSnapshotFormatVersion + 1;
    std::memcpy(blob.data() + 8, &version, 4);
    refixChecksum(blob);
    expectRejected(blob, "version");
}

TEST_F(PersistChaos, WrongInvariantsHashRejected)
{
    auto blob = blob_;
    std::uint64_t bogus = 0xdeadbeefdeadbeefULL;
    std::memcpy(blob.data() + 16, &bogus, 8);
    refixChecksum(blob);
    expectRejected(blob, "invariants", /*inspect_detects=*/false);
}

TEST_F(PersistChaos, WrongKeySeedOrGeometryRejected)
{
    CellModel model(dieS8GbB(), 65536, 3);
    const auto into =
        ThresholdStore::makePrivate(model.params(), 65536, 3);
    EXPECT_THROW(loadSnapshot(blob_.data(), blob_.size(),
                              "some-other-key", *into),
                 SnapshotError);

    // A different seed changes the expected-seed check even when the
    // caller passes the snapshot's own key.
    CellModel other(dieS8GbB(), 65536, 4);
    const auto wrong_seed =
        ThresholdStore::makePrivate(other.params(), 65536, 4);
    EXPECT_THROW(loadSnapshot(blob_.data(), blob_.size(), kTestKey,
                              *wrong_seed),
                 SnapshotError);
    EXPECT_EQ(wrong_seed->stats().candidateRows, 0u);
}

TEST_F(PersistChaos, OutOfRangeCandidateFieldsRejected)
{
    // A file with a valid checksum but an out-of-range cell field (a
    // hand-edited one, say) is refused before anything is adopted:
    // domSide and anti index two-entry tables, and a bit indexes the
    // row.
    const auto [key, good] = store_->exportRows().front();
    ASSERT_GE(good->size(), 2u);
    const std::pair<std::function<void(RowCandidates &)>, std::string>
        edits[] = {
            {[](RowCandidates &r) { r.domSide[0] = 9; }, "domSide"},
            {[](RowCandidates &r) { r.anti[0] = 3; }, "anti"},
            {[](RowCandidates &r) { std::swap(r.bit[0], r.bit[1]); },
             "bits"},
            {[](RowCandidates &r) { r.bit.back() = 65536; }, "bits"},
        };
    for (const auto &[edit, why] : edits) {
        SCOPED_TRACE(why);
        CellModel model(dieS8GbB(), 65536, 3);
        const auto bad =
            ThresholdStore::makePrivate(model.params(), 65536, 3);
        RowCandidates row = *good;
        edit(row);
        bad->adoptRow(key, std::move(row));
        expectRejected(writeSnapshot(*bad, kTestKey), why);
    }
}

// ---------------------------------------------------------------
// The cache: warm start, self-healing, fault injection, sharing
// ---------------------------------------------------------------

/**
 * Acquire the registered (shared) store of (dieS8GbB, 65536, seed)
 * exactly as CellModel construction does.
 */
std::shared_ptr<const ThresholdStore>
acquireShared(std::uint64_t seed)
{
    CellModel model(dieS8GbB(), 65536, seed);
    return ThresholdStore::acquire(dieS8GbB().id, model.params(), 65536,
                                   seed);
}

TEST(PersistCache, WarmStartRoundTripThroughDisk)
{
    CacheGuard guard;
    const fs::path dir = freshDir("rp_persist_warm");
    auto &cache = SnapshotCache::instance();
    cache.configure(dir.string());
    cache.resetStats();

    // Cold: build, publish, evict.
    {
        auto store = acquireShared(1001);
        store->row(0, 100);
        store->row(2, 50);
        store->wordMasks(0, 100);
        EXPECT_EQ(cache.publishRegistry(), 1u);
    }
    ThresholdStore::evictRegistry();

    // Warm: re-acquire; the hook must adopt both tiers from disk.
    auto warm = acquireShared(1001);
    const CacheStats stats = cache.stats();
    EXPECT_GE(stats.hits, 1u);
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(warm->stats().candidateRows, 2u);
    EXPECT_EQ(warm->stats().wordMaskRows, 1u);

    // Bit-identity against a cold build of the same tiers.
    CellModel model(dieS8GbB(), 65536, 1001);
    const auto cold =
        ThresholdStore::makePrivate(model.params(), 65536, 1001);
    cold->row(0, 100);
    cold->row(2, 50);
    cold->wordMasks(0, 100);
    expectRowsIdentical(*cold, *warm);
    expectMasksIdentical(*cold, *warm);

    // An unchanged store publishes nothing new.
    EXPECT_EQ(cache.publishRegistry(), 0u);
    EXPECT_GE(cache.stats().publishSkips, 1u);
    ThresholdStore::evictRegistry();
}

TEST(PersistCache, PublishFollowsTheConfiguredDirectory)
{
    // The snapshot file's header is the only publication record, so a
    // store already published to d1 is published again once the cache
    // points at d2.
    CacheGuard guard;
    auto &cache = SnapshotCache::instance();
    const fs::path d1 = freshDir("rp_persist_dir1");
    const fs::path d2 = freshDir("rp_persist_dir2");
    ThresholdStore::evictRegistry();
    cache.configure(d1.string());
    const auto store = acquireShared(1006);
    store->row(0, 11);
    EXPECT_EQ(cache.publishRegistry(), 1u);

    cache.configure(d2.string());
    EXPECT_EQ(cache.publishRegistry(), 1u);
    const std::string file = SnapshotCache::snapshotFileName(
        store->contentKey(), invariantsHashOf(*store));
    EXPECT_TRUE(fs::is_regular_file(d2 / file));
    const auto entries = SnapshotCache::listDir(d2.string());
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].file, file);
    EXPECT_TRUE(entries[0].info.valid) << entries[0].info.error;
    EXPECT_EQ(entries[0].info.candidateRows, 1u);
    ThresholdStore::evictRegistry();
}

TEST(PersistCache, StoreIdentityIsIndependentOfTheFirstAcquirer)
{
    // A kappa edit leaves the store key alone, so a kappa-edited model
    // and an unedited one share a store, and whichever acquires it
    // first must not change what the store is, hashes to or is
    // persisted as.  Each order publishes a snapshot that the other
    // order then loads warm.
    CacheGuard guard;
    auto &cache = SnapshotCache::instance();
    const std::string die = dieS8GbB().id;
    const CellModel model(dieS8GbB(), 65536, 1005);
    const device::CellModelParams plain = model.params();
    device::CellModelParams kappa = plain;
    kappa.kappaDs = 8.0;
    const device::CellModelParams *orders[2][2] = {{&kappa, &plain},
                                                   {&plain, &kappa}};

    const auto acquireInOrder = [&](int order) {
        const auto first =
            ThresholdStore::acquire(die, *orders[order][0], 65536, 1005);
        const auto second =
            ThresholdStore::acquire(die, *orders[order][1], 65536, 1005);
        EXPECT_EQ(first.get(), second.get()) << "order " << order;
        return first;
    };
    struct Identity
    {
        std::string key;
        device::ThresholdParams params;
        std::uint64_t hash;
        std::string file;
    };
    std::vector<Identity> seen;
    const auto record = [&seen](const ThresholdStore &store) {
        const std::uint64_t hash = invariantsHashOf(store);
        seen.push_back({store.contentKey(), store.params(), hash,
                        SnapshotCache::snapshotFileName(
                            store.contentKey(), hash)});
    };

    for (int order = 0; order < 2; ++order) {
        cache.configure(
            freshDir("rp_persist_first_" + std::to_string(order))
                .string());
        ThresholdStore::evictRegistry();
        {
            const auto cold = acquireInOrder(order);
            record(*cold);
            cold->row(0, 9);
            cold->wordMasks(0, 9);
            EXPECT_EQ(cache.publishRegistry(), 1u);
        }
        ThresholdStore::evictRegistry();

        cache.resetStats();
        const auto warm = acquireInOrder(1 - order);
        record(*warm);
        EXPECT_EQ(cache.stats().hits, 1u) << "order " << order;
        EXPECT_EQ(warm->stats().candidateRows, 1u);
        EXPECT_EQ(warm->stats().wordMaskRows, 1u);
        const auto fresh = ThresholdStore::makePrivate(plain, 65536, 1005);
        fresh->row(0, 9);
        fresh->wordMasks(0, 9);
        expectRowsIdentical(*fresh, *warm);
        expectMasksIdentical(*fresh, *warm);
        EXPECT_EQ(warm->stats().rowBuilds, 0u);
        EXPECT_EQ(warm->stats().wordMaskBuilds, 0u);
    }
    ThresholdStore::evictRegistry();

    ASSERT_EQ(seen.size(), 4u);
    for (const Identity &id : seen) {
        EXPECT_EQ(id.key, seen[0].key);
        EXPECT_EQ(0, std::memcmp(&id.params, &seen[0].params,
                                 sizeof(id.params)));
        EXPECT_EQ(id.hash, seen[0].hash);
        EXPECT_EQ(id.file, seen[0].file);
    }
    EXPECT_EQ(seen[0].key.substr(0, seen[0].key.find('\0')), die);
}

TEST(PersistCache, CorruptSnapshotQuarantinedAndRepublished)
{
    CacheGuard guard;
    const fs::path dir = freshDir("rp_persist_corrupt");
    auto &cache = SnapshotCache::instance();
    cache.configure(dir.string());
    cache.resetStats();
    {
        auto store = acquireShared(1002);
        store->row(0, 7);
        EXPECT_EQ(cache.publishRegistry(), 1u);
    }
    ThresholdStore::evictRegistry();

    // Flip a payload byte of the published file.
    fs::path file;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.path().extension() == kSnapshotExtension)
            file = e.path();
    ASSERT_FALSE(file.empty());
    {
        std::fstream f(file, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekp(300);
        f.put('\x7f');
    }

    // The warm path must reject, quarantine the file, and rebuild.
    cache.resetStats();
    auto rebuilt = acquireShared(1002);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().rejected, 1u);
    EXPECT_FALSE(fs::exists(file)) << "corrupt file not quarantined";
    rebuilt->row(0, 7);

    // The next publish sweep heals the cache; the new file loads.
    EXPECT_EQ(cache.publishRegistry(), 1u);
    ThresholdStore::evictRegistry();
    cache.resetStats();
    auto warm = acquireShared(1002);
    EXPECT_GE(cache.stats().hits, 1u);
    EXPECT_EQ(warm->stats().candidateRows, 1u);
    ThresholdStore::evictRegistry();
}

TEST(PersistCache, ReadFaultDegradesToColdBuild)
{
    CacheGuard guard;
    const fs::path dir = freshDir("rp_persist_readfault");
    auto &cache = SnapshotCache::instance();
    cache.configure(dir.string());
    {
        auto store = acquireShared(1003);
        store->row(1, 2);
        EXPECT_EQ(cache.publishRegistry(), 1u);
    }
    ThresholdStore::evictRegistry();

    core::FaultSpec spec;
    spec.point = "persist.snapshot.read";
    core::FaultInjector::instance().arm({spec});

    cache.resetStats();
    auto store = acquireShared(1003);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().rejected, 1u);
    // The run itself is unaffected: the tier builds cold on demand
    // and matches the published snapshot's content.
    const auto &row = store->row(1, 2);
    EXPECT_GT(row.size(), 0u);
    ThresholdStore::evictRegistry();
}

TEST(PersistCache, WriteFaultNeverFailsTheRun)
{
    CacheGuard guard;
    const fs::path dir = freshDir("rp_persist_writefault");
    auto &cache = SnapshotCache::instance();
    cache.configure(dir.string());
    cache.resetStats();

    core::FaultSpec spec;
    spec.point = "persist.snapshot.write";
    core::FaultInjector::instance().arm({spec});

    auto store = acquireShared(1004);
    store->row(0, 3);
    EXPECT_EQ(cache.publishRegistry(), 0u); // failed, did not throw
    EXPECT_GE(cache.stats().publishFailures, 1u);
    EXPECT_TRUE(fs::is_empty(dir));

    // Disarmed, the same sweep succeeds (the failure wrote nothing).
    core::FaultInjector::instance().disarm();
    EXPECT_EQ(cache.publishRegistry(), 1u);
    ThresholdStore::evictRegistry();
}

TEST(PersistCache, GarbageDirectoryRejected)
{
    CacheGuard guard;
    // A path under a regular file can never become a directory.
    const fs::path file = freshDir("rp_persist_badcfg") / "plain";
    std::ofstream(file) << "x";
    EXPECT_THROW(SnapshotCache::instance().configure(
                     (file / "sub").string()),
                 CacheError);
    // And the cache stays disarmed after the failed configure.
    EXPECT_FALSE(SnapshotCache::instance().stats().enabled);
}

TEST(PersistCache, GcDropsInvalidThenLru)
{
    CacheGuard guard;
    const fs::path dir = freshDir("rp_persist_gc");

    // Three valid snapshots (distinct seeds), one garbage file, one
    // leftover temp file.
    std::vector<fs::path> files;
    for (const std::uint64_t seed : {21u, 22u, 23u}) {
        const auto store = builtStore(seed);
        const auto blob = writeSnapshot(*store, kTestKey);
        const fs::path path =
            dir / SnapshotCache::snapshotFileName(
                      kTestKey + char('0' + seed),
                      invariantsHashOf(*store));
        std::ofstream(path, std::ios::binary)
            .write(reinterpret_cast<const char *>(blob.data()),
                   std::streamsize(blob.size()));
        files.push_back(path);
    }
    std::ofstream(dir / "ts-0000000000000bad.rpsnap") << "garbage";
    std::ofstream(dir / ("junk" + std::string(kSnapshotExtension) +
                         ".tmp.123"))
        << "leftover";

    // Age the first file so LRU prefers to drop it.
    fs::last_write_time(files[0], fs::last_write_time(files[1]) -
                                      std::chrono::hours(2));

    // Invalid-only sweep: garbage + temp go, all valid stay.
    auto result =
        SnapshotCache::gcDir(dir.string(), std::uintmax_t(-1));
    EXPECT_EQ(result.removed, 2u);
    EXPECT_TRUE(fs::exists(files[0]));

    // Size cap that fits exactly the two younger snapshots (their
    // sizes differ per seed — candidate counts are seed-dependent):
    // only the aged-out oldest goes.
    const std::uintmax_t two =
        fs::file_size(files[1]) + fs::file_size(files[2]);
    result = SnapshotCache::gcDir(dir.string(), two);
    EXPECT_EQ(result.removed, 1u);
    EXPECT_FALSE(fs::exists(files[0]));
    EXPECT_TRUE(fs::exists(files[1]));
    EXPECT_TRUE(fs::exists(files[2]));
    EXPECT_LE(result.keptBytes, two);
}

TEST(PersistCache, ImportExportRoundTrip)
{
    CacheGuard guard;
    const fs::path src_dir = freshDir("rp_persist_exp_src");
    const fs::path dst_dir = freshDir("rp_persist_exp_dst");

    const auto store = builtStore(31);
    const auto blob = writeSnapshot(*store, kTestKey);
    const fs::path loose = src_dir / "loose-snapshot.bin";
    std::ofstream(loose, std::ios::binary)
        .write(reinterpret_cast<const char *>(blob.data()),
               std::streamsize(blob.size()));

    // Install normalizes the name; a second install is covered.
    EXPECT_TRUE(SnapshotCache::installFile(loose.string(),
                                           dst_dir.string()));
    EXPECT_FALSE(SnapshotCache::installFile(loose.string(),
                                            dst_dir.string()));
    const auto entries = SnapshotCache::listDir(dst_dir.string());
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_TRUE(entries[0].info.valid);
    EXPECT_EQ(entries[0].file,
              SnapshotCache::snapshotFileName(
                  kTestKey, invariantsHashOf(*store)));

    // Garbage import throws (the CLI maps this to exit 2).
    const fs::path bad = src_dir / "bad.rpsnap";
    std::ofstream(bad) << "not a snapshot";
    EXPECT_THROW(SnapshotCache::installFile(bad.string(),
                                            dst_dir.string()),
                 CacheError);
}

#if defined(RP_TEST_HAVE_FORK)
TEST(PersistCache, TwoProcessesShareOneDirectory)
{
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
    GTEST_SKIP() << "fork() is unsupported under TSan";
#endif
#endif
    CacheGuard guard;
    const fs::path dir = freshDir("rp_persist_shared");

    // Two child processes race publish and load on the same key.
    std::vector<pid_t> children;
    for (int i = 0; i < 2; ++i) {
        const pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            int rc = 0;
            try {
                auto &cache = SnapshotCache::instance();
                cache.configure(dir.string());
                auto store = acquireShared(1005);
                store->row(0, 10 + i); // overlapping but not equal
                store->row(0, 12);
                cache.publishRegistry();
            } catch (...) {
                rc = 1;
            }
            _exit(rc);
        }
        children.push_back(pid);
    }
    for (const pid_t pid : children) {
        int status = 0;
        ASSERT_EQ(waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    // Whatever interleaving happened, the directory holds exactly one
    // fully valid snapshot of that key.
    const auto entries = SnapshotCache::listDir(dir.string());
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_TRUE(entries[0].info.valid) << entries[0].info.error;
    EXPECT_GE(entries[0].info.candidateRows, 2u);
}
#endif // RP_TEST_HAVE_FORK

// ---------------------------------------------------------------
// CLI verbs and the end-to-end cold/warm flow
// ---------------------------------------------------------------

int
cli(const std::vector<std::string> &args,
    std::string *out_text = nullptr)
{
    std::ostringstream out, err;
    const int rc = api::runCli(args, out, err);
    if (out_text)
        *out_text = out.str() + err.str();
    return rc;
}

/**
 * A probe experiment registered only in this binary: builds both
 * tiers of the shared (dieS8GbB, 65536, seed) store through exactly
 * the path real experiments use, then emits every threshold as an
 * exact %a hex-float plus an FNV over the mask words — so a cold vs
 * warm byte-diff of its CSV is a bit-identity proof, not a
 * close-enough one.
 */
struct RegisterPersistProbe
{
    RegisterPersistProbe()
    {
        api::ExperimentRegistry::instance().add(
            {{"zzzpersist_probe", "Persist warm-start probe", "none",
              "test"},
             nullptr,
             [](api::ExperimentContext &ctx) {
                 CellModel model(dieS8GbB(), 65536, ctx.seed());
                 const auto store = ThresholdStore::acquire(
                     dieS8GbB().id, model.params(), 65536, ctx.seed());
                 api::Dataset d("persist probe");
                 d.header({"bank", "row", "min_theta_h",
                           "min_theta_p", "min_tau_ret", "cells",
                           "mask_fnv"});
                 for (const int r : {100, 2000, 40000}) {
                     const RowCandidates &row = store->row(0, r);
                     const RowWordMasks &masks =
                         store->wordMasks(0, r);
                     const std::uint64_t mask_fnv = fnv1a(
                         masks.hammer.data(),
                         masks.hammer.size() * sizeof(std::uint64_t));
                     char h[40], p[40], t[40];
                     std::snprintf(h, sizeof(h), "%a", row.minThetaH);
                     std::snprintf(p, sizeof(p), "%a", row.minThetaP);
                     std::snprintf(t, sizeof(t), "%a", row.minTauRet);
                     d.row({"0", std::to_string(r), h, p, t,
                            std::to_string(row.size()),
                            std::to_string(mask_fnv)});
                 }
                 ctx.emit(d);
             }});
    }
};
const RegisterPersistProbe register_persist_probe;

TEST(PersistCli, CacheVerbs)
{
    CacheGuard guard;
    const fs::path dir = freshDir("rp_persist_cli");
    const auto store = builtStore(41);
    const auto blob = writeSnapshot(*store, kTestKey);
    const fs::path loose = dir / "loose.bin";
    std::ofstream(loose, std::ios::binary)
        .write(reinterpret_cast<const char *>(blob.data()),
               std::streamsize(blob.size()));

    const fs::path cache_dir = freshDir("rp_persist_cli_cache");
    std::string text;
    ASSERT_EQ(cli({"cache", "import", loose.string(), "--cache-dir",
                   cache_dir.string()},
                  &text),
              0);
    EXPECT_NE(text.find("imported 1 snapshot(s)"), std::string::npos);

    ASSERT_EQ(cli({"cache", "ls", "--cache-dir", cache_dir.string()},
                  &text),
              0);
    EXPECT_NE(text.find("1 snapshot(s)"), std::string::npos);
    EXPECT_NE(text.find("TESTDIE"), std::string::npos);

    ASSERT_EQ(cli({"cache", "ls", "--cache-dir", cache_dir.string(),
                   "--format", "json"},
                  &text),
              0);
    EXPECT_NE(text.find("\"valid\": true"), std::string::npos);

    const fs::path export_dir = freshDir("rp_persist_cli_export");
    ASSERT_EQ(cli({"cache", "export", export_dir.string(),
                   "--cache-dir", cache_dir.string()},
                  &text),
              0);
    EXPECT_EQ(SnapshotCache::listDir(export_dir.string()).size(), 1u);

    ASSERT_EQ(cli({"cache", "gc", "--cache-dir", cache_dir.string(),
                   "--max-bytes", "0"},
                  &text),
              0);
    EXPECT_NE(text.find("removed 1 file(s)"), std::string::npos);

    // Error discipline: unknown verb / no dir / bad import exit 2,
    // and so does --format on any verb but ls (it has no effect
    // there).
    EXPECT_EQ(cli({"cache", "frob", "--cache-dir",
                   cache_dir.string()}),
              2);
    for (const std::vector<std::string> &verb :
         {std::vector<std::string>{"gc"},
          std::vector<std::string>{"export", export_dir.string()},
          std::vector<std::string>{"import", loose.string()}}) {
        std::vector<std::string> args = {"cache"};
        args.insert(args.end(), verb.begin(), verb.end());
        args.insert(args.end(), {"--cache-dir", cache_dir.string(),
                                 "--format", "json"});
        EXPECT_EQ(cli(args, &text), 2) << verb.front();
        EXPECT_NE(text.find("does not accept --format"),
                  std::string::npos)
            << text;
    }
    EXPECT_EQ(cli({"cache"}), 2);
    const fs::path bad = dir / "bad.rpsnap";
    std::ofstream(bad) << "zzz";
    EXPECT_EQ(cli({"cache", "import", bad.string(), "--cache-dir",
                   cache_dir.string()}),
              2);
}

TEST(PersistCli, RunColdThenWarmIsByteIdentical)
{
    CacheGuard guard;
    const fs::path cache_dir = freshDir("rp_persist_e2e_cache");
    const fs::path out_cold = freshDir("rp_persist_e2e_cold");
    const fs::path out_warm = freshDir("rp_persist_e2e_warm");

    const std::vector<std::string> common = {
        "run",         "zzzpersist_probe",
        "--format",    "csv",
        "--seed",      "77",
        "--cache-dir", cache_dir.string(),
    };
    auto with_out = [&](const fs::path &out) {
        std::vector<std::string> args = common;
        args.push_back("--out");
        args.push_back(out.string());
        return args;
    };

    std::string text;
    ASSERT_EQ(cli(with_out(out_cold), &text), 0) << text;
    ASSERT_FALSE(fs::is_empty(cache_dir));
    ThresholdStore::evictRegistry();
    ASSERT_EQ(cli(with_out(out_warm), &text), 0) << text;

    // Same artifact set, byte-identical files.
    std::size_t compared = 0;
    for (const auto &e : fs::recursive_directory_iterator(out_cold)) {
        if (!e.is_regular_file())
            continue;
        const fs::path rel = fs::relative(e.path(), out_cold);
        std::ifstream a(e.path(), std::ios::binary);
        std::ifstream b(out_warm / rel, std::ios::binary);
        ASSERT_TRUE(b.good()) << rel;
        std::stringstream sa, sb;
        sa << a.rdbuf();
        sb << b.rdbuf();
        EXPECT_EQ(sa.str(), sb.str()) << rel;
        ++compared;
    }
    EXPECT_GT(compared, 0u);

    // A bad --cache-dir is a config error: exit 2, before any work.
    const fs::path plain = cache_dir / "plainfile";
    std::ofstream(plain) << "x";
    std::vector<std::string> bad = with_out(out_cold);
    bad[bad.size() - 3] = (plain / "sub").string();
    EXPECT_EQ(cli(bad), 2);
    ThresholdStore::evictRegistry();
}

#if defined(RP_TEST_HAVE_FORK) // POSIX only: serve() redirects fd 0
/** `rowpress serve ARGS` with @p requests on its standard input. */
int
serve(const std::vector<std::string> &args, const std::string &requests,
      std::string *out_text)
{
    const fs::path in = freshDir("rp_persist_serve_in") / "requests";
    std::ofstream(in) << requests;
    const int saved = ::dup(0);
    const int fd = ::open(in.c_str(), O_RDONLY);
    ::dup2(fd, 0);
    ::close(fd);
    std::vector<std::string> cmd = {"serve"};
    cmd.insert(cmd.end(), args.begin(), args.end());
    const int rc = cli(cmd, out_text);
    ::dup2(saved, 0);
    ::close(saved);
    return rc;
}

/** The response to the first @p op request in serve's output. */
api::JsonValue
responseTo(const std::string &op, const std::string &text)
{
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty() || line[0] != '{')
            continue;
        api::JsonValue v = api::parseJson(line);
        const api::JsonValue *o = v.find("op");
        if (v.find("ok") && o && o->text == op)
            return v;
    }
    ADD_FAILURE() << "no " << op << " response in:\n" << text;
    return api::JsonValue::object();
}

std::string
submitProbe(const fs::path &out, const std::string &config = "{}")
{
    return "{\"op\":\"submit\",\"experiment\":\"zzzpersist_probe\","
           "\"formats\":[\"csv\"],\"config\":" + config +
           ",\"out\":\"" + out.string() + "\"}\n"
           "{\"op\":\"wait\",\"job\":1}\n"
           "{\"op\":\"cache\"}\n";
}

TEST(PersistCli, ServeCacheDirIsAProcessSetting)
{
    CacheGuard guard;
    ::unsetenv("RP_CACHE_DIR");
    const fs::path cache_dir = freshDir("rp_persist_serve_cache");
    const fs::path out = freshDir("rp_persist_serve_out");
    const std::vector<std::string> flag = {"--cache-dir",
                                           cache_dir.string()};
    ThresholdStore::evictRegistry();

    // The first server builds the store and publishes it after the job.
    std::string text;
    ASSERT_EQ(serve(flag, submitProbe(out), &text), 0) << text;
    const api::JsonValue waited = responseTo("wait", text);
    ASSERT_NE(waited.find("state"), nullptr) << text;
    EXPECT_EQ(waited.find("state")->text, "finished");
    const auto entries = SnapshotCache::listDir(cache_dir.string());
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_TRUE(entries[0].info.valid) << entries[0].info.error;

    // A second server on the same directory warm-loads it.
    ThresholdStore::evictRegistry();
    SnapshotCache::instance().resetStats();
    ASSERT_EQ(serve(flag, submitProbe(out), &text), 0) << text;
    const api::JsonValue cache = responseTo("cache", text);
    const api::JsonValue *disk = cache.find("disk_cache");
    ASSERT_NE(disk, nullptr) << text;
    EXPECT_TRUE(disk->find("enabled")->boolean);
    EXPECT_EQ(disk->find("dir")->text, cache_dir.string());
    EXPECT_GE(std::stoll(disk->find("hits")->text), 1);

    // RP_CACHE_DIR arms the process's cache as the flag does.
    ::setenv("RP_CACHE_DIR", cache_dir.string().c_str(), 1);
    ASSERT_EQ(serve({}, "{\"op\":\"cache\"}\n", &text), 0) << text;
    ::unsetenv("RP_CACHE_DIR");
    const api::JsonValue by_env = responseTo("cache", text);
    ASSERT_NE(by_env.find("disk_cache"), nullptr) << text;
    EXPECT_EQ(by_env.find("disk_cache")->find("dir")->text,
              cache_dir.string());

    // With neither, serve disarms it, and a job cannot name a
    // directory: its submit is refused by name.
    const std::string named =
        "{\"cache-dir\":\"" + cache_dir.string() + "\"}";
    ASSERT_EQ(serve({}, submitProbe(out, named), &text), 0) << text;
    const api::JsonValue refused = responseTo("submit", text);
    ASSERT_NE(refused.find("error"), nullptr) << text;
    EXPECT_FALSE(refused.find("ok")->boolean) << text;
    EXPECT_NE(refused.find("error")->text.find(
                  "does not accept --cache-dir"),
              std::string::npos)
        << text;
    EXPECT_FALSE(SnapshotCache::instance().stats().enabled);

    // An unusable directory exits 2 before any job runs.
    const fs::path plain = cache_dir / "plainfile";
    std::ofstream(plain) << "x";
    const fs::path unused = freshDir("rp_persist_serve_unused");
    EXPECT_EQ(serve({"--cache-dir", (plain / "sub").string()},
                    submitProbe(unused), &text),
              2);
    EXPECT_NE(text.find("not a usable directory"), std::string::npos)
        << text;
    EXPECT_TRUE(fs::is_empty(unused));
    ThresholdStore::evictRegistry();
}
#endif // RP_TEST_HAVE_FORK

} // namespace
} // namespace rp::persist
