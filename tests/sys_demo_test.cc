/**
 * @file
 * Real-system demonstration tests (paper section 6): the RowPress
 * access pattern must induce bitflips on the TRR-protected system
 * model while the conventional RowHammer pattern (one cache-block read
 * per activation) must not.
 *
 * Every DemoResult field is also pinned exactly, avgTAggOnNs included,
 * to golden values: these runs are the only check of the demo's flip
 * path (the perfbench digests run fig23 at a scale that flips no
 * bits), so any change to the dose, refresh or TRR accounting that
 * moves a single count or a single ulp shows up here.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "sys/demo.h"

namespace rp::sys {
namespace {

DemoConfig
fastConfig()
{
    DemoConfig cfg;
    cfg.numVictims = 12;
    cfg.numIters = 24000;
    cfg.numAggrActs = 3;
    cfg.seed = 3;
    return cfg;
}

void
expectResult(const DemoResult &res, std::uint64_t bitflips,
             int rows_with_bitflips, double avg_t_agg_on_ns,
             std::uint64_t aggressor_acts, std::uint64_t targeted_refreshes)
{
    EXPECT_EQ(res.totalBitflips, bitflips);
    EXPECT_EQ(res.rowsWithBitflips, rows_with_bitflips);
    EXPECT_EQ(res.avgTAggOnNs, avg_t_agg_on_ns);
    EXPECT_EQ(res.aggressorActs, aggressor_acts);
    EXPECT_EQ(res.targetedRefreshes, targeted_refreshes);
}

TEST(SysDemo, RowHammerPatternCannotFlip)
{
    DemoConfig cfg = fastConfig();
    cfg.numReads = 1;   // conventional RowHammer baseline
    cfg.numAggrActs = 2; // paper Fig. 23: zero flips at 2 activations
    auto res = runDemo(cfg);
    EXPECT_EQ(res.totalBitflips, 0u);
    expectResult(res, 0, 0, 42.810499999999998, 19584000, 287999);
}

TEST(SysDemo, RowPressPatternFlips)
{
    DemoConfig cfg = fastConfig();
    cfg.numReads = 32;
    auto res = runDemo(cfg);
    EXPECT_GT(res.totalBitflips, 0u);
    EXPECT_GT(res.avgTAggOnNs, 400.0);
    expectResult(res, 16, 3, 970.9083333333333, 20160000, 575999);
}

TEST(SysDemo, OverlongPatternDesynchronizesAndStopsFlipping)
{
    DemoConfig cfg = fastConfig();
    cfg.numReads = 64; // aggressor phase no longer fits a tREFI slot
    auto res = runDemo(cfg);
    EXPECT_EQ(res.totalBitflips, 0u);
    expectResult(res, 0, 0, 1872.5750064016202, 20160000, 575999);
}

TEST(SysDemo, MoreReadsKeepRowOpenLonger)
{
    DemoConfig a = fastConfig();
    a.numVictims = 2;
    a.numIters = 2000;
    a.numReads = 1;
    DemoConfig b = a;
    b.numReads = 32;
    auto ra = runDemo(a);
    auto rb = runDemo(b);
    EXPECT_GT(rb.avgTAggOnNs, 5.0 * ra.avgTAggOnNs);
    expectResult(ra, 0, 0, 41.899000000000001, 280000, 3999);
    expectResult(rb, 0, 0, 970.9083333333333, 280000, 7999);
}

TEST(SysDemo, LatencyProbeShowsRowOpenGap)
{
    auto probe = rowOpenLatencyProbe(5000);
    // Paper Fig. 24: ~30-cycle median gap between first and
    // subsequent cache-block accesses.
    const double gap = probe.medianFirstCycles - probe.medianRestCycles;
    EXPECT_GT(gap, 15.0);
    EXPECT_LT(gap, 60.0);
}

} // namespace
} // namespace rp::sys
