/**
 * @file
 * Characterization-suite tests: pattern definitions (Table 2), row
 * layouts, search monotonicity properties (parameterized over dies),
 * retention isolation, and the ONOFF experiment.
 */

#include <gtest/gtest.h>

#include "chr/experiments.h"
#include "chr/overlap.h"

namespace rp::chr {
namespace {

using namespace rp::literals;

TEST(Patterns, Table2Fills)
{
    EXPECT_EQ(aggressorFill(DataPattern::CheckerBoard), 0xAA);
    EXPECT_EQ(victimFill(DataPattern::CheckerBoard), 0x55);
    EXPECT_EQ(aggressorFill(DataPattern::CheckerBoardI), 0x55);
    EXPECT_EQ(victimFill(DataPattern::CheckerBoardI), 0xAA);
    EXPECT_EQ(aggressorFill(DataPattern::RowStripe), 0xFF);
    EXPECT_EQ(victimFill(DataPattern::RowStripe), 0x00);
    EXPECT_EQ(aggressorFill(DataPattern::ColStripe), 0x55);
    EXPECT_EQ(victimFill(DataPattern::ColStripe), 0x55);
    EXPECT_EQ(allDataPatterns().size(), 6u);
}

TEST(Patterns, SingleSidedLayoutHasSixVictims)
{
    auto layout = makeLayout(AccessKind::SingleSided, 1, 100);
    EXPECT_EQ(layout.aggressors, (std::vector<int>{100}));
    EXPECT_EQ(layout.victims,
              (std::vector<int>{97, 98, 99, 101, 102, 103}));
    EXPECT_EQ(layout.lowRow(), 97);
    EXPECT_EQ(layout.highRow(), 103);
}

TEST(Patterns, DoubleSidedLayoutSandwichesVictim)
{
    auto layout = makeLayout(AccessKind::DoubleSided, 1, 100);
    EXPECT_EQ(layout.aggressors, (std::vector<int>{100, 102}));
    EXPECT_EQ(layout.victims,
              (std::vector<int>{97, 98, 99, 101, 103, 104, 105}));
}

TEST(Patterns, PressProgramCountsActivations)
{
    auto timing = dram::benderTiming();
    auto ss = makeLayout(AccessKind::SingleSided, 1, 100);
    EXPECT_EQ(makePressProgram(ss, 36_ns, 1000, timing).commandCount(),
              2000u);
    auto ds = makeLayout(AccessKind::DoubleSided, 1, 100);
    // Odd total activation counts are honoured (trailing single ACT).
    EXPECT_EQ(makePressProgram(ds, 36_ns, 101, timing).commandCount(),
              202u);
}

TEST(Patterns, PressProgramRejectsSubTrasOnTime)
{
    auto timing = dram::benderTiming();
    auto layout = makeLayout(AccessKind::SingleSided, 1, 100);
    EXPECT_DEATH(makePressProgram(layout, 10_ns, 10, timing),
                 "below tRAS");
}

ModuleConfig
tinyConfig(const device::DieConfig &die, double temp = 50.0)
{
    ModuleConfig cfg;
    cfg.die = die;
    cfg.numLocations = 4;
    cfg.temperatureC = temp;
    cfg.seed = 11;
    return cfg;
}

class AcminMonotonic : public ::testing::TestWithParam<device::DieConfig>
{
};

/**
 * Property (Obsv. 1): for RowPress-vulnerable dies, mean ACmin is
 * non-increasing in tAggON across the RowPress regime.
 */
TEST_P(AcminMonotonic, MeanAcminNonIncreasingInPressRegime)
{
    Module module(tinyConfig(GetParam(), 80.0));
    double prev = 1e300;
    for (Time t : {7800_ns, 70200_ns, 1_ms, 10_ms}) {
        auto point = acminPoint(module, t, AccessKind::SingleSided);
        if (point.acminSummary().count == 0)
            continue;
        const double mean = point.meanAcmin();
        EXPECT_LE(mean, prev * 1.15)
            << GetParam().id << " at " << formatTime(t);
        prev = mean;
    }
}

INSTANTIATE_TEST_SUITE_P(
    VulnerableDies, AcminMonotonic,
    ::testing::Values(device::dieById("S-8Gb-B"),
                      device::dieById("S-8Gb-D"),
                      device::dieById("H-16Gb-A"),
                      device::dieById("H-16Gb-C"),
                      device::dieById("M-16Gb-E"),
                      device::dieById("M-16Gb-F")),
    [](const ::testing::TestParamInfo<device::DieConfig> &info) {
        std::string n = info.param.id;
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

class CumulativeDoseLaw
    : public ::testing::TestWithParam<device::DieConfig>
{
};

/**
 * Property (Obsv. 3/5): in the press regime, ACmin x tAggON is
 * approximately constant (slope -1 in log-log).
 */
TEST_P(CumulativeDoseLaw, AcminTimesTAggOnIsStable)
{
    Module module(tinyConfig(GetParam()));
    auto p1 = acminPoint(module, 7800_ns, AccessKind::SingleSided);
    auto p2 = acminPoint(module, 70200_ns, AccessKind::SingleSided);
    if (p1.acminSummary().count == 0 || p2.acminSummary().count == 0)
        GTEST_SKIP() << "die not vulnerable at 50C";
    const double d1 = p1.meanAcmin() * 7.8;
    const double d2 = p2.meanAcmin() * 70.2;
    EXPECT_GT(d1 / d2, 0.5) << GetParam().id;
    EXPECT_LT(d1 / d2, 2.0) << GetParam().id;
}

INSTANTIATE_TEST_SUITE_P(
    VulnerableDies, CumulativeDoseLaw,
    ::testing::Values(device::dieById("S-8Gb-B"),
                      device::dieById("S-8Gb-D"),
                      device::dieById("H-16Gb-C"),
                      device::dieById("M-16Gb-F")),
    [](const ::testing::TestParamInfo<device::DieConfig> &info) {
        std::string n = info.param.id;
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

TEST(Acmin, SearchIsDeterministicWithoutNoise)
{
    Module module(tinyConfig(device::dieS8GbB()));
    module.platform().chip().fault().setEvalNoiseSigma(0.0);
    auto layout = makeLayout(AccessKind::SingleSided, 1,
                             module.baseRows()[0]);
    SearchConfig cfg;
    cfg.repeats = 1;
    auto a = findAcmin(module.platform(), layout,
                       DataPattern::CheckerBoard, 7800_ns, cfg);
    auto b = findAcmin(module.platform(), layout,
                       DataPattern::CheckerBoard, 7800_ns, cfg);
    EXPECT_EQ(a.flipped, b.flipped);
    EXPECT_EQ(a.acmin, b.acmin);
}

TEST(Acmin, AccuracyBoundHolds)
{
    // The reported ACmin flips but ACmin * (1 - 2 * accuracy) does not
    // (modulo the 1% search resolution and noise disabled).
    Module module(tinyConfig(device::dieS8GbB()));
    module.platform().chip().fault().setEvalNoiseSigma(0.0);
    auto layout = makeLayout(AccessKind::SingleSided, 1,
                             module.baseRows()[1]);
    SearchConfig cfg;
    cfg.repeats = 1;
    auto res = findAcmin(module.platform(), layout,
                         DataPattern::CheckerBoard, 7800_ns, cfg);
    ASSERT_TRUE(res.flipped);
    auto at = runPressAttempt(module.platform(), layout,
                              DataPattern::CheckerBoard, 7800_ns,
                              res.acmin);
    EXPECT_TRUE(at.any());
    auto below = runPressAttempt(
        module.platform(), layout, DataPattern::CheckerBoard, 7800_ns,
        std::uint64_t(double(res.acmin) * 0.9));
    EXPECT_FALSE(below.any());
}

TEST(Acmin, TAggOnMinAndAcminAreConsistent)
{
    // findTAggOnMin(AC) and findAcmin(tAggON) probe the same
    // cumulative-dose surface: tAggONmin(ACmin(t)) ~ t.
    Module module(tinyConfig(device::dieS8GbD()));
    module.platform().chip().fault().setEvalNoiseSigma(0.0);
    auto layout = makeLayout(AccessKind::SingleSided, 1,
                             module.baseRows()[2]);
    SearchConfig cfg;
    cfg.repeats = 1;
    auto ac = findAcmin(module.platform(), layout,
                        DataPattern::CheckerBoard, 70200_ns, cfg);
    ASSERT_TRUE(ac.flipped);
    auto ton = findTAggOnMin(module.platform(), layout,
                             DataPattern::CheckerBoard, ac.acmin, cfg);
    ASSERT_TRUE(ton.flipped);
    EXPECT_LT(toUs(ton.tAggOnMin), 70.2 * 1.3);
    EXPECT_GT(toUs(ton.tAggOnMin), 70.2 * 0.5);
}

TEST(Experiments, RowStripeCannotFlipAtLongTAggOn)
{
    // Obsv. 14/15: with all-zero victims (RowStripe), RowPress has no
    // eligible (charged) cells to drain.
    Module module(tinyConfig(device::dieS8GbB(), 80.0));
    auto point = acminPoint(module, 7800_ns, AccessKind::SingleSided,
                            DataPattern::RowStripe);
    EXPECT_EQ(point.acminSummary().count, 0u);
}

TEST(Experiments, RetentionFailuresExistAndAreIsolatedFromShortTests)
{
    Module module(tinyConfig(device::dieS8GbB()));
    // 4 s @ 80C produces retention failures...
    auto fails = retentionFailures(module, 4.0, 80.0);
    for (const auto &f : fails)
        EXPECT_EQ(f.flip.mechanism, device::Mechanism::Retention);
    // ...but a 60 ms idle at 50C produces none (the paper's
    // interference-isolation requirement, section 3.1).
    auto &platform = module.platform();
    platform.fillRow(1, 500, 0x55);
    bender::Program idle;
    idle.wait(60_ms);
    platform.run(idle);
    EXPECT_TRUE(platform.checkRow(1, 500).empty());
}

TEST(Experiments, OnOffBerRespondsToOnFraction)
{
    Module module(tinyConfig(device::dieS8GbD(), 80.0));
    // At large dtA2A, more on-time must not reduce BER (press-regime).
    const double low = onOffBer(module, 0, AccessKind::SingleSided,
                                6000_ns, 0.0, 1);
    const double high = onOffBer(module, 0, AccessKind::SingleSided,
                                 6000_ns, 1.0, 1);
    EXPECT_GE(high, low);
    EXPECT_GT(high, 0.0);
}

TEST(Experiments, StandardSweepIsSortedAndCoversPaperRange)
{
    const auto &sweep = standardTAggOnSweep();
    EXPECT_EQ(sweep.front(), 36_ns);
    EXPECT_EQ(sweep.back(), 30_ms);
    for (std::size_t i = 1; i < sweep.size(); ++i)
        EXPECT_LT(sweep[i - 1], sweep[i]);
}

TEST(Overlap, SetOperations)
{
    std::vector<VictimFlip> flips = {
        {100, {5, true, device::Mechanism::RowPress}},
        {100, {5, true, device::Mechanism::RowPress}}, // duplicate
        {101, {9, false, device::Mechanism::RowHammer}},
    };
    auto ids = flipIdSet(flips);
    EXPECT_EQ(ids.size(), 2u);

    EXPECT_DOUBLE_EQ(overlapFraction({}, ids), 0.0);
    EXPECT_DOUBLE_EQ(overlapFraction(ids, ids), 1.0);
    EXPECT_DOUBLE_EQ(overlapFraction(ids, {ids[0]}), 0.5);
}

TEST(Overlap, RowPressVsRowHammerIsNearZero)
{
    core::ExperimentEngine engine;
    auto results = overlapAtAcmin(tinyConfig(device::dieS8GbD(), 80.0),
                                  engine, {7800_ns},
                                  AccessKind::SingleSided);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_GT(results[0].rpCells, 0u);
    EXPECT_LT(results[0].withRowHammer, 0.05);
    EXPECT_LT(results[0].withRetention, 0.05);
}

} // namespace
} // namespace rp::chr
