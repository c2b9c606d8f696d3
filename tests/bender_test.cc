/**
 * @file
 * Tests for the DRAM-Bender-style test platform: program building,
 * exact tAggON timing, the 60 ms budget arithmetic, and - critically -
 * the equivalence of fast-forwarded loops with concrete execution.
 */

#include <gtest/gtest.h>

#include "bender/platform.h"
#include "chr/acmin.h"
#include "chr/patterns.h"
#include "replay_reference.h"

namespace rp::bender {
namespace {

using namespace rp::literals;

PlatformConfig
smallConfig(std::uint64_t ff_threshold = 8)
{
    PlatformConfig cfg;
    cfg.die = device::dieS8GbB();
    cfg.org.rows = 4096;
    cfg.fastForwardThreshold = ff_threshold;
    return cfg;
}

TEST(Program, BuilderAndCommandCount)
{
    Program body;
    body.act(1, 10).wait(36_ns).pre(1);
    EXPECT_EQ(body.commandCount(), 2u);

    Program program;
    program.loop(1000, body);
    program.rd(1, 3);
    EXPECT_EQ(program.commandCount(), 2001u);

    Program empty;
    program.loop(5, empty); // no-op
    EXPECT_EQ(program.commandCount(), 2001u);
}

TEST(Program, WaitIgnoresNonPositiveDurations)
{
    Program p;
    p.wait(0).wait(-5);
    EXPECT_TRUE(p.empty());
}

TEST(Platform, ExactTAggOnTiming)
{
    TestPlatform platform(smallConfig());
    Program p;
    p.act(1, 100).wait(7800_ns).pre(1);
    platform.run(p);
    // The press dose on the neighbor equals tAggON minus the onset.
    const auto &dose = platform.chip().fault().dose(1, 101);
    const Time onset =
        platform.chip().fault().cells().params().pressOnset;
    EXPECT_NEAR(dose.press[0], double(7800_ns - onset), 1.0);
}

TEST(Platform, TrasIsEnforcedWhenWaitIsShort)
{
    TestPlatform platform(smallConfig());
    Program p;
    p.act(1, 100).wait(1_ns).pre(1); // PRE must slip to tRAS
    platform.run(p);
    const auto &dose = platform.chip().fault().dose(1, 101);
    const Time onset =
        platform.chip().fault().cells().params().pressOnset;
    EXPECT_NEAR(dose.press[0],
                double(platform.timing().tRAS - onset), 1.0);
}

TEST(Platform, ElapsedTimeMatchesPatternArithmetic)
{
    TestPlatform platform(smallConfig());
    auto layout = chr::makeLayout(chr::AccessKind::SingleSided, 1, 100);
    const std::uint64_t acts = 1000;
    auto program =
        chr::makePressProgram(layout, 7800_ns, acts, platform.timing());
    const Time elapsed = platform.run(program);
    const Time period = chr::pressActPeriod(7800_ns, platform.timing(),
                                            platform.cmdGap());
    EXPECT_NEAR(double(elapsed), double(Time(acts) * period),
                double(2 * period));
}

TEST(Platform, BudgetArithmeticMatchesPaperScale)
{
    auto timing = dram::benderTiming();
    // At tAggON = tREFI the paper's 60 ms budget admits ~7.7K ACTs.
    const auto acts =
        chr::maxActsWithinBudget(7800_ns, timing, 1500, 60_ms);
    EXPECT_GT(acts, 7400u);
    EXPECT_LT(acts, 7800u);
    // At the 36 ns minimum it admits over a million.
    const auto rh_acts =
        chr::maxActsWithinBudget(36_ns, timing, 1500, 60_ms);
    EXPECT_GT(rh_acts, 1000000u);
}

/**
 * The central platform property: executing a loop with fast-forward
 * must produce the same dose state and flips as concrete execution.
 */
class FastForwardEquivalence
    : public ::testing::TestWithParam<std::tuple<Time, std::uint64_t>>
{
};

TEST_P(FastForwardEquivalence, DoseMatchesConcreteExecution)
{
    const auto [t_agg_on, acts] = GetParam();

    auto run = [&](std::uint64_t ff_threshold) {
        TestPlatform platform(smallConfig(ff_threshold));
        platform.chip().fault().setEvalNoiseSigma(0.0);
        auto layout =
            chr::makeLayout(chr::AccessKind::DoubleSided, 1, 100);
        chr::initLayout(platform, layout,
                        chr::DataPattern::CheckerBoard);
        auto program = chr::makePressProgram(layout, t_agg_on, acts,
                                             platform.timing());
        platform.run(program);
        return platform.chip().fault().dose(1, 101); // sandwiched row
    };

    const auto fast = run(8);
    const auto slow = run(std::uint64_t(1) << 62); // never fast-forward
    for (int s = 0; s < 2; ++s) {
        EXPECT_NEAR(fast.hammer[s], slow.hammer[s],
                    0.002 * slow.hammer[s] + 1e-9)
            << "side " << s;
        EXPECT_NEAR(fast.press[s], slow.press[s],
                    0.002 * slow.press[s] + 1e-3)
            << "side " << s;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, FastForwardEquivalence,
    ::testing::Values(std::make_tuple(36_ns, std::uint64_t(100)),
                      std::make_tuple(36_ns, std::uint64_t(2001)),
                      std::make_tuple(336_ns, std::uint64_t(500)),
                      std::make_tuple(7800_ns, std::uint64_t(64)),
                      std::make_tuple(70200_ns, std::uint64_t(33))));

TEST(Platform, RejectsFastForwardThresholdBelowFour)
{
    // Below 4 the count - 3 extrapolated iterations wrap around: a
    // 1- or 2-iteration loop would take 139.5 ns and leave a dose of
    // about 1.8e19.
    for (std::uint64_t threshold : {0, 1, 2, 3})
        EXPECT_DEATH({ TestPlatform platform(smallConfig(threshold)); },
                     "fastForwardThreshold must be at least 4");
}

TEST(Platform, SmallestFastForwardedLoopMatchesConcreteExecution)
{
    // Threshold 4, count 4: two concrete iterations, one extrapolated,
    // a concrete last one.  As in every fast-forward, the last ACT
    // follows the clock jump after one command gap rather than tRP, so
    // the loop ends that much sooner and that ACT deposits a little
    // less hammer dose.
    struct Run
    {
        Time elapsed;
        device::DoseState dose;
    };
    auto run = [](std::uint64_t ff_threshold) {
        TestPlatform platform(smallConfig(ff_threshold));
        Program body;
        body.act(1, 100).wait(36_ns).pre(1);
        Program program;
        program.loop(4, body);
        const Time elapsed = platform.run(program);
        return Run{elapsed, platform.chip().fault().dose(1, 101)};
    };
    const Run fast = run(4);
    const Run slow = run(std::uint64_t(1) << 62); // never fast-forward
    const PlatformConfig cfg = smallConfig();
    EXPECT_EQ(fast.elapsed, slow.elapsed - (cfg.timing.tRP - cfg.cmdGap));
    EXPECT_EQ(fast.dose.press[0], slow.dose.press[0]);
    EXPECT_GT(slow.dose.hammer[0], 0.0);
    EXPECT_NEAR(fast.dose.hammer[0], slow.dose.hammer[0],
                0.01 * slow.dose.hammer[0]);
}

TEST(Platform, FastForwardPreservesSearchResults)
{
    // The replay reference runs every probe's loop on the platform,
    // fast-forwarded or not.
    auto search = [&](std::uint64_t ff_threshold) {
        TestPlatform platform(smallConfig(ff_threshold));
        platform.chip().fault().setEvalNoiseSigma(0.0);
        auto layout =
            chr::makeLayout(chr::AccessKind::SingleSided, 1, 200);
        chr::SearchConfig cfg;
        cfg.repeats = 1;
        return ref::findAcmin(platform, layout,
                              chr::DataPattern::CheckerBoard, 7800_ns,
                              cfg);
    };
    const auto fast = search(8);
    const auto slow = search(std::uint64_t(1) << 62);
    ASSERT_EQ(fast.flipped, slow.flipped);
    if (fast.flipped) {
        EXPECT_NEAR(double(fast.acmin), double(slow.acmin),
                    0.03 * double(slow.acmin) + 2.0);
    }
}

TEST(Platform, TemperatureControllerSetsChip)
{
    TestPlatform platform(smallConfig());
    platform.setTemperature(80.0);
    EXPECT_DOUBLE_EQ(platform.temperature(), 80.0);
    EXPECT_DOUBLE_EQ(platform.chip().temperature(), 80.0);
}

TEST(Platform, FillAndCheckRowRoundTrip)
{
    TestPlatform platform(smallConfig());
    platform.fillRow(1, 300, 0x55);
    EXPECT_EQ(platform.chip().rowFill(1, 300), 0x55);
    EXPECT_TRUE(platform.checkRow(1, 300).empty());
}

TEST(Platform, RefreshCommandAdvancesStripe)
{
    TestPlatform platform(smallConfig());
    Program p;
    p.ref();
    p.ref();
    platform.run(p);
    // Two REFs must be spaced by at least tRFC.
    EXPECT_GE(platform.now(), platform.timing().tRFC);
}

} // namespace
} // namespace rp::bender
