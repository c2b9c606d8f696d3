/**
 * @file
 * Real-system substrate tests: the adaptive-open-row memory
 * controller, its mitigation hooks (in-DRAM TRR and a stub that
 * refreshes at ACT time), and the cache model.
 */

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "dram/timing.h"
#include "mitigation/trr.h"
#include "sys/cache.h"
#include "sys/memctrl.h"

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
    MemCtrl mc(chip, MemCtrl::Config{});
    mc.readBlock(1, 100, 0, 1_us);
    const auto acts_after_first = mc.counters().acts;
    for (int c = 1; c < 8; ++c)
        mc.readBlock(1, 100, c, mc.now() + 10_ns);
    EXPECT_EQ(mc.counters().acts, acts_after_first); // row stayed open
    mc.readBlock(1, 200, 0, mc.now() + 10_ns);   // conflict
    EXPECT_EQ(mc.counters().acts, acts_after_first + 1);
}

TEST(MemCtrl, RowConflictLatencyExceedsRowHit)
{
    auto chip = makeChip();
    MemCtrl mc(chip, MemCtrl::Config{});
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
    MemCtrl mc(chip, MemCtrl::Config{});
    mc.advanceTo(10 * chip.timing().tREFI + 1_us);
    EXPECT_EQ(mc.counters().refs, 10u);
}

TEST(MemCtrl, RefreshClosesOpenRow)
{
    auto chip = makeChip();
    MemCtrl mc(chip, MemCtrl::Config{});
    mc.readBlock(1, 100, 0, 1_us);
    EXPECT_TRUE(chip.bank(1).isOpen());
    mc.advanceTo(chip.timing().tREFI + 1_us);
    EXPECT_FALSE(chip.bank(1).isOpen());
    EXPECT_GE(mc.counters().pres, 1u);
}

TEST(MemCtrl, TrackedRowsAccumulateOpenTime)
{
    auto chip = makeChip();
    MemCtrl mc(chip, MemCtrl::Config{});
    mc.trackRow(1, 100);
    mc.readBlock(1, 100, 0, 1_us);
    for (int c = 1; c < 16; ++c)
        mc.readBlock(1, 100, c, mc.now() + 20_ns);
    mc.readBlock(1, 200, 0, mc.now() + 5_ns); // closes row 100
    EXPECT_EQ(mc.counters().trackedPres, 1u);
    EXPECT_GT(mc.counters().trackedOpenTime, 15 * 20_ns);
    // Untracked rows do not contribute.
    mc.readBlock(1, 300, 0, mc.now() + 5_ns);
    EXPECT_EQ(mc.counters().trackedPres, 1u);
}

TEST(MemCtrl, TrrRefreshesVictimsOfHammeredRow)
{
    auto chip = makeChip();
    mitigation::Trr::Config trr_cfg;
    trr_cfg.actThreshold = 8;
    mitigation::Trr trr(trr_cfg);
    MemCtrl::Config cfg;
    cfg.mitigation = &trr;
    MemCtrl mc(chip, cfg);
    // Hammer a row continuously across several REF windows with no
    // dummy cover: TRR must target it.
    Time t = 1_us;
    for (int i = 0; i < 2000; ++i) {
        mc.readBlock(1, 4000, 0, t);
        mc.readBlock(1, 4100, 0, mc.now() + 5_ns); // conflict partner
        t = mc.now() + 5_ns;
    }
    EXPECT_GT(mc.counters().targeted, 0u);
    EXPECT_GE(trr.preventiveRefreshes(), mc.counters().targeted);
    // TRR cleared the victim's dose at every REF, so it holds at most
    // one tREFI slot's worth of hammer dose.
    EXPECT_LT(chip.fault().dose(1, 4001).hammer[0],
              double(mc.counters().acts) / double(mc.counters().refs));
}

/** Refreshes row + 1 at every ACT and counts every hook it sees. */
class ActTimeStub : public mitigation::Mitigation
{
  public:
    std::string name() const override { return "stub"; }

    void
    onActivate(int flat_bank, int row, std::vector<int> &victims) override
    {
        acts.push_back({flat_bank, row});
        victims.push_back(row + 1);
    }

    void onRefresh(int, std::vector<int> &) override { ++refs; }

    void onRefreshWindow() override { ++windows; }

    std::vector<std::pair<int, int>> acts;
    int refs = 0;
    int windows = 0;
};

TEST(MemCtrl, RefreshesVictimsAMitigationReturnsAtActivation)
{
    auto chip = makeChip();
    ActTimeStub stub;
    MemCtrl::Config cfg;
    cfg.mitigation = &stub;
    MemCtrl mc(chip, cfg);

    // Hammer row 4000 with no REF in between: only the ACT-time victim
    // refreshes can clear its upper neighbour's dose.
    Time t = 1_us;
    for (int i = 0; i < 20; ++i) {
        mc.readBlock(1, 4000, 0, t);
        mc.readBlock(1, 4100, 0, mc.now() + 5_ns);
        t = mc.now() + 5_ns;
    }
    ASSERT_LT(mc.now(), chip.timing().tREFI);
    EXPECT_EQ(stub.acts.size(), mc.counters().acts);
    EXPECT_EQ(stub.acts.front(), std::make_pair(1, 4000));
    // Row 4001 was refreshed after each ACT of 4000, so it holds no
    // hammer dose from it; row 3999 was never refreshed.
    EXPECT_EQ(chip.fault().dose(1, 4001).hammer[0], 0.0);
    EXPECT_GT(chip.fault().dose(1, 3999).hammer[1], 0.0);
    // No victim was returned from a REF, so no targeted refresh.
    EXPECT_EQ(mc.counters().targeted, 0u);
    EXPECT_EQ(stub.refs, 0);

    // Every REF reaches every bank; the first REF past tREFW ends the
    // refresh window.
    mc.advanceTo(chip.timing().tREFW + chip.timing().tREFI);
    EXPECT_EQ(stub.refs,
              int(mc.counters().refs) * chip.org().totalBanks());
    EXPECT_EQ(stub.windows, 1);
}

TEST(MemCtrl, RefreshesBeforeWindowCountsTheRefsAheadOfTheBoundary)
{
    auto chip = makeChip();
    ActTimeStub stub;
    MemCtrl::Config cfg;
    cfg.mitigation = &stub;
    MemCtrl mc(chip, cfg);

    for (int window = 0; window < 2; ++window) {
        const std::uint64_t ahead = mc.refreshesBeforeWindow();
        ASSERT_GT(ahead, 0u);
        const std::uint64_t issued = mc.counters().refs;
        mc.advanceTo(mc.nextRefreshAt() +
                     Time(ahead - 1) * chip.timing().tREFI);
        EXPECT_EQ(mc.counters().refs, issued + ahead);
        EXPECT_EQ(stub.windows, window);
        EXPECT_EQ(mc.refreshesBeforeWindow(), 0u);
        mc.advanceTo(mc.nextRefreshAt());
        EXPECT_EQ(stub.windows, window + 1);
    }
}

TEST(MemCtrl, RepeatCycleMultipliesTheCycleAndShiftsTheClock)
{
    auto chip = makeChip();
    MemCtrl mc(chip, MemCtrl::Config{});
    mc.trackRow(1, 100);
    mc.readBlock(1, 100, 0, 1_us);
    const MemCtrl::Counters start = mc.counters();
    // One cycle: a REF (closing row 100) and a reopen.
    mc.readBlock(1, 100, 0, mc.nextRefreshAt() + 1_us);
    const MemCtrl::Counters end = mc.counters();
    const Time span = chip.timing().tREFI;
    const Time now = mc.now();
    const Time next_ref = mc.nextRefreshAt();
    const Time opened = chip.bank(1).openedAt();
    const std::uint64_t stripe_gap = chip.refreshesBefore(0);

    mc.repeatCycle(3, span, start);
    EXPECT_EQ(mc.now(), now + 3 * span);
    EXPECT_EQ(mc.nextRefreshAt(), next_ref + 3 * span);
    EXPECT_EQ(chip.bank(1).openedAt(), opened + 3 * span);
    EXPECT_EQ(mc.counters().acts, end.acts + 3 * (end.acts - start.acts));
    EXPECT_EQ(mc.counters().refs, end.refs + 3 * (end.refs - start.refs));
    EXPECT_EQ(mc.counters().trackedOpenTime,
              end.trackedOpenTime +
                  3 * (end.trackedOpenTime - start.trackedOpenTime));
    EXPECT_EQ(mc.counters().trackedPres,
              end.trackedPres + 3 * (end.trackedPres - start.trackedPres));
    EXPECT_EQ(chip.refreshesBefore(0), stripe_gap - 3);
}

} // namespace
} // namespace rp::sys
