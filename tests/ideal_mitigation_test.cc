/**
 * @file
 * Ideal-tracker tests and the Graphene-vs-ideal security comparison:
 * Graphene's approximate counting must never refresh *later* than the
 * exact tracker at the same threshold, on adversarial interleavings.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ideal.h"
#include "mitigation/graphene.h"

namespace rp::mitigation {
namespace {

TEST(IdealCounter, RefreshesExactlyAtThresholdMultiples)
{
    IdealCounter ideal({/*threshold=*/10, /*blastRadius=*/1});
    std::vector<int> victims;
    for (int i = 1; i <= 35; ++i)
        ideal.onActivate(0, 7, victims);
    // Crossings at 10, 20, 30 -> 3 x 2 victims.
    EXPECT_EQ(victims.size(), 6u);
    EXPECT_EQ(ideal.preventiveRefreshes(), 6u);
    EXPECT_EQ(ideal.count(0, 7), 35u);
}

TEST(IdealCounter, WindowResetClearsCounts)
{
    IdealCounter ideal({10, 1});
    std::vector<int> victims;
    for (int i = 0; i < 9; ++i)
        ideal.onActivate(0, 7, victims);
    ideal.onRefreshWindow();
    EXPECT_EQ(ideal.count(0, 7), 0u);
    for (int i = 0; i < 9; ++i)
        ideal.onActivate(0, 7, victims);
    EXPECT_TRUE(victims.empty());
}

TEST(IdealCounter, BanksAreIndependent)
{
    IdealCounter ideal({5, 1});
    std::vector<int> victims;
    for (int i = 0; i < 4; ++i) {
        ideal.onActivate(0, 9, victims);
        ideal.onActivate(1, 9, victims);
    }
    EXPECT_TRUE(victims.empty());
    ideal.onActivate(0, 9, victims);
    EXPECT_EQ(victims.size(), 2u);
}

/**
 * Adversarial-interleaving property: for random access streams, the
 * first Graphene-triggered refresh of a hammered row happens at an
 * activation count no later than the ideal tracker's threshold.
 */
class GrapheneVsIdeal : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(GrapheneVsIdeal, GrapheneNeverLagsTheIdealTracker)
{
    constexpr std::uint32_t threshold = 64;
    GrapheneConfig gcfg;
    gcfg.threshold = threshold;
    gcfg.tableEntries = 64;
    gcfg.banks = 1;
    Graphene graphene(gcfg);
    IdealCounter ideal({threshold, 2});

    Rng rng(GetParam());
    const int aggressor = 5000;
    std::uint64_t aggressor_acts = 0;
    bool graphene_fired = false;

    for (int step = 0; step < 200000 && !graphene_fired; ++step) {
        std::vector<int> gv, iv;
        if (rng.below(4) == 0) {
            ++aggressor_acts;
            graphene.onActivate(0, aggressor, gv);
            ideal.onActivate(0, aggressor, iv);
            graphene_fired = !gv.empty();
        } else {
            const int noise = int(rng.below(3000));
            graphene.onActivate(0, noise, gv);
            ideal.onActivate(0, noise, iv);
        }
    }
    ASSERT_TRUE(graphene_fired);
    // The space-saving estimate only overestimates: Graphene fires at
    // or before the exact threshold crossing.
    EXPECT_LE(aggressor_acts, std::uint64_t(threshold));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GrapheneVsIdeal,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(GrapheneVsIdeal, IdealIssuesNoMoreRefreshesOnUniformTraffic)
{
    // On spread-out traffic the exact tracker is the overhead floor -
    // provided Graphene is sized per its guarantee (entries >= W/T).
    constexpr std::uint32_t threshold = 32;
    GrapheneConfig gcfg;
    gcfg.threshold = threshold;
    gcfg.tableEntries = 4096;
    gcfg.banks = 1;
    Graphene graphene(gcfg);
    IdealCounter ideal({threshold, 2});

    Rng rng(42);
    std::vector<int> sink;
    for (int i = 0; i < 100000; ++i) {
        const int row = int(rng.below(500));
        graphene.onActivate(0, row, sink);
        ideal.onActivate(0, row, sink);
    }
    EXPECT_GE(graphene.preventiveRefreshes(),
              ideal.preventiveRefreshes());
}

} // namespace
} // namespace rp::mitigation
