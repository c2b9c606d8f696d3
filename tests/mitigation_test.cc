/**
 * @file
 * Mitigation tests: the section 7.4 adaptation methodology (threshold
 * derivation, security monotonicity), Graphene tracking guarantees,
 * PARA's probabilistic behaviour, and in-DRAM TRR (recency sampling,
 * counter table, dummy-row bypass, per-bank samplers).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "graphene_reference.h"
#include "mitigation/adapter.h"
#include "mitigation/defaults.h"
#include "mitigation/graphene.h"
#include "mitigation/para.h"
#include "mitigation/trr.h"

namespace rp::mitigation {
namespace {

using namespace rp::literals;

TEST(Adapter, PaperTable3Reproduction)
{
    const auto profile = paperTable3Profile();
    const std::uint32_t trh = 1000;
    // The exact T'_RH row of Table 3.
    EXPECT_EQ(adaptThreshold(profile, trh, 36_ns).adaptedTrh, 1000u);
    EXPECT_EQ(adaptThreshold(profile, trh, 66_ns).adaptedTrh, 809u);
    EXPECT_EQ(adaptThreshold(profile, trh, 96_ns).adaptedTrh, 724u);
    EXPECT_EQ(adaptThreshold(profile, trh, 186_ns).adaptedTrh, 619u);
    EXPECT_EQ(adaptThreshold(profile, trh, 336_ns).adaptedTrh, 555u);
    EXPECT_EQ(adaptThreshold(profile, trh, 636_ns).adaptedTrh, 419u);
}

TEST(Adapter, GrapheneAndParaConfigsMatchTable3)
{
    // Graphene threshold = T'_RH / 3; PARA p = 34 / T'_RH.
    EXPECT_EQ(grapheneFor(1000, 64_ms, 45_ns, 32).threshold, 333u);
    EXPECT_EQ(grapheneFor(809, 64_ms, 45_ns, 32).threshold, 269u);
    EXPECT_EQ(grapheneFor(419, 64_ms, 45_ns, 32).threshold, 139u);
    EXPECT_NEAR(paraFor(1000).p, 0.034, 0.001);
    EXPECT_NEAR(paraFor(724).p, 0.047, 0.001);
    EXPECT_NEAR(paraFor(419).p, 0.081, 0.002);
}

TEST(Adapter, StandardDefaultsMatchPaperConstants)
{
    // The named defaults are the paper's Table 3 evaluation
    // constants; standardGrapheneFor must be exactly grapheneFor
    // under them.
    EXPECT_EQ(kGrapheneResetWindow, 64_ms);
    EXPECT_EQ(kGrapheneActivationInterval, 45_ns);
    EXPECT_EQ(kGrapheneBanks, 32);
    for (std::uint32_t trh : {1000u, 809u, 724u, 419u}) {
        const auto expected = grapheneFor(trh, 64_ms, 45_ns, 32);
        const auto got = standardGrapheneFor(trh);
        EXPECT_EQ(got.threshold, expected.threshold);
        EXPECT_EQ(got.tableEntries, expected.tableEntries);
        EXPECT_EQ(got.banks, expected.banks);
    }
    EXPECT_EQ(makeStandardMitigation(false, 1000)->name(), "Graphene");
    EXPECT_EQ(makeStandardMitigation(true, 1000)->name(), "PARA");
    auto factory = standardMitigationFactory(true, 1000);
    auto a = factory(), b = factory();
    EXPECT_NE(a.get(), b.get()); // fresh instance per invocation
}

TEST(Adapter, WorstRatioIsCumulativeMinimum)
{
    DisturbProfile p;
    p.points = {{36_ns, 1.0}, {96_ns, 0.7}, {66_ns, 0.8},
                {186_ns, 0.75}}; // non-monotonic sample point
    EXPECT_DOUBLE_EQ(p.worstRatioUpTo(36_ns), 1.0);
    EXPECT_DOUBLE_EQ(p.worstRatioUpTo(96_ns), 0.7);
    // A later, larger ratio must not loosen the bound.
    EXPECT_DOUBLE_EQ(p.worstRatioUpTo(186_ns), 0.7);
    EXPECT_DOUBLE_EQ(p.worstRatioUpTo(10_ns), 1.0);
}

TEST(Adapter, AdaptationIsSound)
{
    EXPECT_TRUE(adaptationIsSound(paperTable3Profile(), 1000,
                                  {36_ns, 66_ns, 96_ns, 186_ns, 336_ns,
                                   636_ns}));
    // A profile that would raise the threshold is rejected.
    DisturbProfile bad;
    bad.points = {{36_ns, 1.5}};
    EXPECT_FALSE(adaptationIsSound(bad, 1000, {36_ns}));
}

TEST(Adapter, ThresholdNeverBelowOne)
{
    DisturbProfile p;
    p.points = {{36_ns, 1e-9}};
    EXPECT_EQ(adaptThreshold(p, 1000, 36_ns).adaptedTrh, 1u);
}

TEST(Graphene, TriggersPreventiveRefreshAtThreshold)
{
    GrapheneConfig cfg;
    cfg.threshold = 100;
    cfg.tableEntries = 16;
    cfg.blastRadius = 2;
    cfg.banks = 1;
    Graphene g(cfg);

    std::vector<int> victims;
    for (int i = 0; i < 99; ++i) {
        g.onActivate(0, 500, victims);
        EXPECT_TRUE(victims.empty()) << "at activation " << i;
    }
    g.onActivate(0, 500, victims);
    // Blast radius 2: rows 498, 499, 501, 502.
    EXPECT_EQ(victims.size(), 4u);
    EXPECT_EQ(g.preventiveRefreshes(), 4u);

    // The next threshold-worth of activations triggers again.
    victims.clear();
    for (int i = 0; i < 100; ++i)
        g.onActivate(0, 500, victims);
    EXPECT_EQ(victims.size(), 4u);
}

TEST(Graphene, CountEstimateNeverUndercounts)
{
    // Space-saving guarantee: a row activated N times has estimated
    // count >= its true count, so the preventive refresh can never be
    // later than N = threshold (the security property Graphene needs).
    GrapheneConfig cfg;
    cfg.threshold = 50;
    cfg.tableEntries = 4;
    cfg.banks = 1;
    Graphene g(cfg);

    std::vector<int> victims;
    // Interleave the victim's aggressor with many other rows so the
    // table churns.
    int aggressor_acts = 0;
    bool refreshed = false;
    for (int i = 0; i < 5000 && !refreshed; ++i) {
        g.onActivate(0, i % 97 + 1000, victims); // noise rows
        victims.clear();
        g.onActivate(0, 7, victims); // the aggressor
        ++aggressor_acts;
        refreshed = !victims.empty();
        victims.clear();
    }
    EXPECT_TRUE(refreshed);
    EXPECT_LE(aggressor_acts, 50);
}

TEST(Graphene, RefreshWindowResetsCounters)
{
    GrapheneConfig cfg;
    cfg.threshold = 100;
    cfg.tableEntries = 8;
    cfg.banks = 1;
    Graphene g(cfg);
    std::vector<int> victims;
    for (int i = 0; i < 99; ++i)
        g.onActivate(0, 5, victims);
    g.onRefreshWindow();
    for (int i = 0; i < 99; ++i)
        g.onActivate(0, 5, victims);
    EXPECT_TRUE(victims.empty());
}

TEST(Graphene, BanksAreIndependent)
{
    GrapheneConfig cfg;
    cfg.threshold = 10;
    cfg.tableEntries = 4;
    cfg.banks = 2;
    Graphene g(cfg);
    std::vector<int> victims;
    for (int i = 0; i < 9; ++i) {
        g.onActivate(0, 5, victims);
        g.onActivate(1, 5, victims);
    }
    EXPECT_TRUE(victims.empty());
    g.onActivate(0, 5, victims);
    EXPECT_FALSE(victims.empty());
}

TEST(Graphene, SizingCoversWorstCaseActs)
{
    auto cfg = grapheneFor(1000, 64_ms, 45_ns, 32);
    const double max_acts = 64e9 / 45.0 * 1e-3;
    EXPECT_GE(double(cfg.tableEntries) * cfg.threshold, max_acts * 0.9);
}

/**
 * Differential test against the linear-scan reference
 * (graphene_reference.h): seeded configurations and activation streams
 * whose tables fill and churn, with a hot row subset that crosses the
 * threshold and occasional refresh windows, must give the same victims
 * after every activation.
 */
TEST(Graphene, MatchesLinearScanReference)
{
    for (std::uint64_t seed = 1; seed <= 120; ++seed) {
        Rng rng(seed);
        GrapheneConfig cfg;
        cfg.threshold = seed <= 3 ? std::uint32_t(seed)
                                  : std::uint32_t(rng.range(1, 200));
        cfg.tableEntries = int(rng.range(1, 300));
        cfg.blastRadius = int(rng.range(1, 3));
        cfg.banks = int(rng.range(1, 4));
        const int pool = int(rng.range(1, 2000));
        const int hot = int(rng.range(1, std::min(pool, 12)));
        const int base = int(rng.below(100000));
        Graphene fast(cfg);
        GrapheneReference ref(cfg);

        std::vector<int> got, want;
        for (int i = 0; i < 6000; ++i) {
            if (rng.below(2500) == 0) {
                fast.onRefreshWindow();
                ref.onRefreshWindow();
            }
            const int bank = int(rng.below(std::uint64_t(cfg.banks)));
            const int row =
                base + int(rng.below(std::uint64_t(
                           rng.uniform() < 0.5 ? hot : pool)));
            fast.onActivate(bank, row, got);
            ref.onActivate(bank, row, want);
            ASSERT_EQ(got, want) << "seed " << seed << " act " << i;
            ASSERT_EQ(fast.preventiveRefreshes(), ref.preventiveRefreshes())
                << "seed " << seed << " act " << i;
            got.clear();
            want.clear();
        }
    }
}

TEST(Para, RefreshRateMatchesP)
{
    ParaConfig cfg;
    cfg.p = 0.05;
    cfg.seed = 3;
    Para para(cfg);
    std::vector<int> victims;
    const int acts = 200000;
    for (int i = 0; i < acts; ++i)
        para.onActivate(0, 1000, victims);
    const double rate = double(victims.size()) / double(acts);
    EXPECT_NEAR(rate, 0.05, 0.005);
    EXPECT_EQ(para.preventiveRefreshes(), victims.size());
}

TEST(Para, VictimsAreAdjacentRows)
{
    Para para(paraFor(419));
    std::vector<int> victims;
    for (int i = 0; i < 5000; ++i)
        para.onActivate(0, 1000, victims);
    ASSERT_FALSE(victims.empty());
    bool minus = false, plus = false;
    for (int v : victims) {
        EXPECT_TRUE(v == 999 || v == 1001);
        minus = minus || v == 999;
        plus = plus || v == 1001;
    }
    EXPECT_TRUE(minus);
    EXPECT_TRUE(plus);
}

bool
contains(const std::vector<int> &rows, int row)
{
    return std::find(rows.begin(), rows.end(), row) != rows.end();
}

TEST(Trr, RecencySamplerCatchesLastActivatedRows)
{
    Trr trr;
    std::vector<int> victims;
    trr.onActivate(0, 100, victims);
    trr.onActivate(0, 200, victims);
    EXPECT_TRUE(victims.empty()); // TRR never refreshes at ACT time
    trr.onRefresh(0, victims);
    // Neighbors of rows 200 and 100 at distance 1 and 2.
    for (int v : {98, 99, 101, 102, 198, 199, 201, 202})
        EXPECT_TRUE(contains(victims, v)) << v;
    EXPECT_EQ(trr.preventiveRefreshes(), 8u);
}

TEST(Trr, DummyRowsShadowAggressorsFromRecency)
{
    Trr trr;
    std::vector<int> victims;
    trr.onActivate(0, 500, victims); // aggressor
    trr.onActivate(0, 501, victims); // aggressor
    for (int d = 0; d < 16; ++d)
        trr.onActivate(0, 1000 + d * 8, victims); // dummy phase before REF
    trr.onRefresh(0, victims);
    for (int v : victims) {
        EXPECT_GT(v, 900); // only dummy neighbors refreshed
    }
}

TEST(Trr, CounterTableCatchesSustainedHammering)
{
    Trr::Config cfg;
    cfg.actThreshold = 16;
    Trr trr(cfg);
    bool caught = false;
    for (int ref = 0; ref < 20 && !caught; ++ref) {
        std::vector<int> victims;
        for (int i = 0; i < 8; ++i)
            trr.onActivate(0, 321, victims);
        // A couple of other rows that do not crowd it out.
        trr.onActivate(0, 900, victims);
        trr.onRefresh(0, victims);
        caught = contains(victims, 322);
    }
    EXPECT_TRUE(caught);
}

TEST(Trr, RecencyResetsAfterRefresh)
{
    Trr trr;
    std::vector<int> victims;
    trr.onActivate(0, 100, victims);
    trr.onRefresh(0, victims);
    // No activations since the last REF: nothing recency-sampled and
    // no counter above threshold.
    victims.clear();
    trr.onRefresh(0, victims);
    EXPECT_TRUE(victims.empty());
}

TEST(Trr, BanksAreIndependent)
{
    Trr trr;
    std::vector<int> victims;
    // Bank 0's row is recency-sampled and past the counter threshold.
    for (int i = 0; i < 100; ++i)
        trr.onActivate(0, 500, victims);
    trr.onActivate(1, 700, victims);
    trr.onRefresh(2, victims); // never activated
    EXPECT_TRUE(victims.empty());
    trr.onRefresh(1, victims);
    EXPECT_EQ(victims, (std::vector<int>{698, 699, 701, 702}));
    victims.clear();
    trr.onRefresh(0, victims);
    EXPECT_EQ(victims, (std::vector<int>{498, 499, 501, 502}));
}

TEST(Trr, RefreshAppendsSortedUniqueNeighbors)
{
    Trr trr;
    std::vector<int> victims = {1000}; // a request made earlier
    trr.onActivate(0, 101, victims);
    trr.onActivate(0, 100, victims);
    trr.onRefresh(0, victims);
    // The neighborhoods of rows 100 and 101 overlap; the earlier
    // request stays in front, untouched.
    EXPECT_EQ(victims,
              (std::vector<int>{1000, 98, 99, 100, 101, 102, 103}));
    EXPECT_EQ(trr.preventiveRefreshes(), 6u);
}

/**
 * End-to-end security property of the adaptation (section 7.4): with
 * t_mro enforced and T'_RH configured, an aggressor row cannot
 * accumulate T'_RH activations within a window without its neighbors
 * being preventively refreshed.
 */
class AdaptedSecurity : public ::testing::TestWithParam<Time>
{
};

TEST_P(AdaptedSecurity, GrapheneRpRefreshesBeforeAdaptedThreshold)
{
    const Time t_mro = GetParam();
    const auto a =
        adaptThreshold(paperTable3Profile(), 1000, t_mro);
    Graphene g(grapheneFor(a.adaptedTrh, 64_ms, 45_ns, 32));

    std::vector<int> victims;
    std::uint32_t acts_until_refresh = 0;
    for (std::uint32_t i = 0; i < a.adaptedTrh + 1; ++i) {
        g.onActivate(3, 42, victims);
        ++acts_until_refresh;
        if (!victims.empty())
            break;
    }
    EXPECT_FALSE(victims.empty());
    EXPECT_LT(acts_until_refresh, a.adaptedTrh);
}

INSTANTIATE_TEST_SUITE_P(Tmros, AdaptedSecurity,
                         ::testing::Values(36_ns, 66_ns, 96_ns, 186_ns,
                                           336_ns, 636_ns));

} // namespace
} // namespace rp::mitigation
