/**
 * @file
 * Real-system substrate tests: the TRR engine (recency sampling,
 * counter table, dummy-row bypass), the adaptive-open-row memory
 * controller, and the cache model.
 */

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "dram/timing.h"
#include "sys/cache.h"
#include "sys/memctrl.h"
#include "sys/trr.h"

namespace rp::sys {
namespace {

using namespace rp::literals;

TEST(Cache, LoadHitMissAndFlush)
{
    CacheModel cache;
    EXPECT_FALSE(cache.load(0x1000));
    EXPECT_TRUE(cache.load(0x1000));
    cache.clflush(0x1000);
    EXPECT_FALSE(cache.load(0x1000));
    EXPECT_EQ(cache.residentLines(), 1u);
    cache.clear();
    EXPECT_EQ(cache.residentLines(), 0u);
}

TEST(Cache, MatchesReferenceSetUnderRandomLoadFlushClear)
{
    // Differential test against std::unordered_set.  Lines are drawn
    // from a small pool, so the table holds up to a few hundred lines
    // at once: probe runs collide, flushes open holes in the middle of
    // them, and flushed lines are re-inserted.  The pool mixes the
    // demo's (bank, row, column) encoding with arbitrary values and 0.
    for (std::uint64_t seed : {1, 2, 3, 4}) {
        Rng rng(seed);
        std::vector<std::uint64_t> pool = {0};
        for (std::uint64_t i = 1; i < 300; ++i)
            pool.push_back(i % 3 ? (std::uint64_t(1) << 40) | (i << 8) |
                                       (i & 63)
                                 : rng.next());
        CacheModel cache;
        std::unordered_set<std::uint64_t> ref;
        for (int op = 0; op < 100000; ++op) {
            const std::uint64_t line = pool[rng.below(pool.size())];
            const std::uint64_t kind = rng.below(1000);
            if (kind < 550) {
                const bool hit = !ref.insert(line).second;
                ASSERT_EQ(cache.load(line), hit)
                    << "seed " << seed << " op " << op;
            } else if (kind < 999) {
                ref.erase(line);
                cache.clflush(line);
            } else {
                ref.clear();
                cache.clear();
            }
            ASSERT_EQ(cache.residentLines(), ref.size())
                << "seed " << seed << " op " << op;
        }
        for (std::uint64_t line : pool) {
            const bool hit = !ref.insert(line).second;
            EXPECT_EQ(cache.load(line), hit) << "seed " << seed;
        }
    }
}

TEST(Trr, RecencySamplerCatchesLastActivatedRows)
{
    TrrEngine trr;
    trr.onActivate(100);
    trr.onActivate(200);
    auto victims = trr.onRefresh();
    // Neighbors of rows 200 and 100 at distance 1 and 2.
    for (int v : {98, 99, 101, 102, 198, 199, 201, 202})
        EXPECT_NE(std::find(victims.begin(), victims.end(), v),
                  victims.end())
            << v;
    EXPECT_EQ(trr.targetedRefreshes(), 1u);
}

TEST(Trr, DummyRowsShadowAggressorsFromRecency)
{
    TrrEngine trr;
    trr.onActivate(500); // aggressor
    trr.onActivate(501); // aggressor
    for (int d = 0; d < 16; ++d)
        trr.onActivate(1000 + d * 8); // dummy phase before REF
    auto victims = trr.onRefresh();
    for (int v : victims) {
        EXPECT_GT(v, 900); // only dummy neighbors refreshed
    }
}

TEST(Trr, CounterTableCatchesSustainedHammering)
{
    TrrEngine::Config cfg;
    cfg.actThreshold = 16;
    TrrEngine trr(cfg);
    bool caught = false;
    for (int ref = 0; ref < 20 && !caught; ++ref) {
        for (int i = 0; i < 8; ++i)
            trr.onActivate(321);
        // A couple of other rows that do not crowd it out.
        trr.onActivate(900);
        auto victims = trr.onRefresh();
        caught = std::find(victims.begin(), victims.end(), 322) !=
                 victims.end();
    }
    EXPECT_TRUE(caught);
}

TEST(Trr, RecencyResetsAfterRefresh)
{
    TrrEngine trr;
    trr.onActivate(100);
    trr.onRefresh();
    // No activations since the last REF: nothing recency-sampled and
    // no counter above threshold.
    auto victims = trr.onRefresh();
    EXPECT_TRUE(victims.empty());
}

device::Chip
makeChip()
{
    dram::Organization org;
    org.rows = 16384;
    return device::Chip(device::dieById("S-8Gb-C"), org,
                        dram::ddr4_2400(), 1);
}

TEST(MemCtrl, AdaptiveOpenRowServesHitsWithoutReactivation)
{
    auto chip = makeChip();
    MemCtrl::Config cfg;
    cfg.trrEnabled = false;
    MemCtrl mc(chip, cfg);
    mc.readBlock(1, 100, 0, 1_us);
    const auto acts_after_first = mc.activates();
    for (int c = 1; c < 8; ++c)
        mc.readBlock(1, 100, c, mc.now() + 10_ns);
    EXPECT_EQ(mc.activates(), acts_after_first); // row stayed open
    mc.readBlock(1, 200, 0, mc.now() + 10_ns);   // conflict
    EXPECT_EQ(mc.activates(), acts_after_first + 1);
}

TEST(MemCtrl, RowConflictLatencyExceedsRowHit)
{
    auto chip = makeChip();
    MemCtrl::Config cfg;
    cfg.trrEnabled = false;
    MemCtrl mc(chip, cfg);
    mc.readBlock(1, 100, 0, 1_us);
    const Time t0 = mc.now() + 1_us;
    const Time hit = mc.readBlock(1, 100, 1, t0) - t0;
    const Time t1 = mc.now() + 1_us;
    const Time miss = mc.readBlock(1, 300, 0, t1) - t1;
    EXPECT_GT(miss, hit + chip.timing().tRCD / 2);
}

TEST(MemCtrl, AutoRefreshFiresEveryTrefi)
{
    auto chip = makeChip();
    MemCtrl::Config cfg;
    MemCtrl mc(chip, cfg);
    mc.advanceTo(10 * chip.timing().tREFI + 1_us);
    EXPECT_EQ(mc.refreshesIssued(), 10u);
}

TEST(MemCtrl, RefreshClosesOpenRow)
{
    auto chip = makeChip();
    MemCtrl::Config cfg;
    MemCtrl mc(chip, cfg);
    mc.readBlock(1, 100, 0, 1_us);
    EXPECT_TRUE(chip.bank(1).isOpen());
    mc.advanceTo(chip.timing().tREFI + 1_us);
    EXPECT_FALSE(chip.bank(1).isOpen());
    EXPECT_GE(mc.precharges(), 1u);
}

TEST(MemCtrl, TrackedRowsAccumulateOpenTime)
{
    auto chip = makeChip();
    MemCtrl::Config cfg;
    cfg.trrEnabled = false;
    MemCtrl mc(chip, cfg);
    mc.trackRow(1, 100);
    mc.readBlock(1, 100, 0, 1_us);
    for (int c = 1; c < 16; ++c)
        mc.readBlock(1, 100, c, mc.now() + 20_ns);
    mc.readBlock(1, 200, 0, mc.now() + 5_ns); // closes row 100
    EXPECT_EQ(mc.trackedPrecharges(), 1u);
    EXPECT_GT(mc.trackedOpenTime(), 15 * 20_ns);
    // Untracked rows do not contribute.
    mc.readBlock(1, 300, 0, mc.now() + 5_ns);
    EXPECT_EQ(mc.trackedPrecharges(), 1u);
}

TEST(MemCtrl, TrrRefreshesVictimsOfHammeredRow)
{
    auto chip = makeChip();
    MemCtrl::Config cfg;
    cfg.trr.actThreshold = 8;
    MemCtrl mc(chip, cfg);
    // Hammer a row continuously across several REF windows with no
    // dummy cover: TRR must target it.
    Time t = 1_us;
    for (int i = 0; i < 2000; ++i) {
        mc.readBlock(1, 4000, 0, t);
        mc.readBlock(1, 4100, 0, mc.now() + 5_ns); // conflict partner
        t = mc.now() + 5_ns;
    }
    EXPECT_GT(mc.targetedRefreshes(), 0u);
    // The victim's accumulated dose was cleared by TRR along the way.
    EXPECT_TRUE(chip.fault().dose(1, 4001).hammer[0] <
                double(mc.activates()));
}

} // namespace
} // namespace rp::sys
