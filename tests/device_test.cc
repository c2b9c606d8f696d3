/**
 * @file
 * Device-model tests: die registry, calibration derivation, per-cell
 * determinism, eligibility/direction rules, dose accounting, and chip
 * materialization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "device/chip.h"
#include "dram/timing.h"

namespace rp::device {
namespace {

using namespace rp::literals;

dram::Organization
smallOrg()
{
    dram::Organization org;
    org.rows = 4096;
    return org;
}

TEST(DieRegistry, HasAllTwelveRevisions)
{
    EXPECT_EQ(allDies().size(), 12u);
    int s = 0, h = 0, m = 0;
    for (const auto &d : allDies()) {
        if (d.mfr == "S")
            ++s;
        if (d.mfr == "H")
            ++h;
        if (d.mfr == "M")
            ++m;
    }
    EXPECT_EQ(s, 4);
    EXPECT_EQ(h, 4);
    EXPECT_EQ(m, 4);
}

TEST(DieRegistry, LookupByIdAndImmunity)
{
    EXPECT_EQ(dieById("S-8Gb-B").name, "Mfr. S 8Gb B-Die");
    EXPECT_TRUE(dieById("M-8Gb-B").rpImmuneAt50());
    EXPECT_TRUE(dieById("H-4Gb-A").rpImmuneAt50());
    EXPECT_FALSE(dieById("S-8Gb-B").rpImmuneAt50());
    EXPECT_DEATH(dieById("nope"), "unknown die");
}

class CalibrationTest : public ::testing::TestWithParam<DieConfig>
{
};

TEST_P(CalibrationTest, DerivedParametersAreSane)
{
    const auto &die = GetParam();
    CellModel cells(die, 65536, 1);
    const auto &p = cells.params();

    EXPECT_GE(p.sigmaH, 0.30);
    EXPECT_LE(p.sigmaH, 1.20);
    EXPECT_GE(p.sigmaP, 0.20);
    EXPECT_LE(p.sigmaP, 0.80);
    EXPECT_GT(p.muH, 0.0);
    EXPECT_GT(p.muP, 0.0);

    // The mu/sigma pair must reproduce the row-min calibration target:
    // quantile 2/bits of thetaH ~ Table 5 ACmin x DS gain.
    const double z1 = probit(2.0 / 65536.0);
    const double row_min_theta = std::exp(p.muH + p.sigmaH * z1);
    EXPECT_NEAR(std::log(row_min_theta / die.acminRh50), std::log(2.9),
                0.5);

    // And D_RP: quantile 4/bits of thetaP ~ mean cumulative dose.
    const double z1p = probit(4.0 / 65536.0);
    const double d50 = std::exp(p.muP + p.sigmaP * z1p);
    EXPECT_NEAR(d50 / double(units::MS), die.rpDose50Ms,
                0.01 * die.rpDose50Ms);
}

TEST_P(CalibrationTest, TemperatureFactorsMatchTargets)
{
    const auto &die = GetParam();
    CellModel cells(die, 65536, 1);
    // 80C press acceleration must equal the Table 5 dose ratio.
    EXPECT_NEAR(cells.pressTempFactor(80.0),
                die.rpDose50Ms / die.rpDose80Ms, 1e-6);
    EXPECT_NEAR(cells.pressTempFactor(50.0), 1.0, 1e-12);
    EXPECT_NEAR(cells.hammerTempFactor(80.0),
                die.acminRh50 / die.acminRh80, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    AllDies, CalibrationTest, ::testing::ValuesIn(allDies()),
    [](const ::testing::TestParamInfo<DieConfig> &info) {
        std::string name = info.param.id;
        for (auto &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

TEST(CellModel, PerCellPropertiesAreDeterministic)
{
    CellModel a(dieS8GbB(), 65536, 7);
    CellModel b(dieS8GbB(), 65536, 7);
    CellModel c(dieS8GbB(), 65536, 8);
    EXPECT_EQ(a.thetaHammer(1, 100, 5), b.thetaHammer(1, 100, 5));
    EXPECT_EQ(a.thetaPress(1, 100, 5), b.thetaPress(1, 100, 5));
    EXPECT_NE(a.thetaHammer(1, 100, 5), c.thetaHammer(1, 100, 5));
    EXPECT_NE(a.thetaHammer(1, 100, 5), a.thetaHammer(1, 100, 6));
    EXPECT_NE(a.thetaHammer(1, 100, 5), a.thetaHammer(2, 100, 5));
}

TEST(CellModel, CandidatesContainTheRowWeakestCells)
{
    CellModel cells(dieS8GbB(), 65536, 3);
    const auto &cands = cells.rowCandidates(1, 50);
    ASSERT_GT(cands.size(), 0u);
    double cand_min_h = 1e300, cand_min_p = 1e300;
    for (std::size_t i = 0; i < cands.size(); ++i) {
        cand_min_h = std::min(cand_min_h, cands.thetaH[i]);
        cand_min_p = std::min(cand_min_p, cands.thetaP[i]);
    }
    // The precomputed row minima agree with the scan.
    EXPECT_DOUBLE_EQ(cands.minThetaH, cand_min_h);
    EXPECT_DOUBLE_EQ(cands.minThetaP, cand_min_p);
    // Exhaustive scan agrees on the row minima.
    double true_min_h = 1e300, true_min_p = 1e300;
    for (int bit = 0; bit < 65536; ++bit) {
        true_min_h = std::min(true_min_h, cells.thetaHammer(1, 50, bit));
        true_min_p = std::min(true_min_p, cells.thetaPress(1, 50, bit));
    }
    EXPECT_DOUBLE_EQ(cand_min_h, true_min_h);
    EXPECT_DOUBLE_EQ(cand_min_p, true_min_p);
}

TEST(CellModel, HammerOnlyFlipsDischargedCells)
{
    CellModel cells(dieS8GbB(), 65536, 3);
    DoseState dose;
    dose.hammer[0] = dose.hammer[1] = 1e9; // absurd dose
    RowContext ctx;
    ctx.dose = &dose;
    ctx.victimFill = 0xFF; // all bits 1 = all charged (true cells)
    auto flips = cells.evaluate(1, 10, ctx, /*full_scan=*/false, 50.0);
    EXPECT_TRUE(flips.empty());

    ctx.victimFill = 0x00; // all discharged
    flips = cells.evaluate(1, 10, ctx, false, 50.0);
    EXPECT_FALSE(flips.empty());
    for (const auto &f : flips) {
        EXPECT_EQ(f.mechanism, Mechanism::RowHammer);
        EXPECT_FALSE(f.oneToZero); // 0 -> 1
    }
}

TEST(CellModel, PressOnlyFlipsChargedCells)
{
    CellModel cells(dieS8GbB(), 65536, 3);
    DoseState dose;
    dose.press[0] = dose.press[1] = 1e12 * 1e3; // huge on-time
    RowContext ctx;
    ctx.dose = &dose;
    ctx.victimFill = 0x00; // all discharged: press cannot flip
    auto flips = cells.evaluate(1, 11, ctx, false, 50.0);
    EXPECT_TRUE(flips.empty());

    ctx.victimFill = 0xFF;
    flips = cells.evaluate(1, 11, ctx, false, 50.0);
    EXPECT_FALSE(flips.empty());
    for (const auto &f : flips) {
        EXPECT_EQ(f.mechanism, Mechanism::RowPress);
        EXPECT_TRUE(f.oneToZero); // 1 -> 0
    }
}

TEST(CellModel, AntiCellLayoutInvertsDirections)
{
    DieConfig die = dieById("M-16Gb-E"); // mostly anti-cells
    CellModel cells(die, 65536, 3);
    DoseState dose;
    dose.press[0] = dose.press[1] = 1e15;
    RowContext ctx;
    ctx.dose = &dose;
    ctx.victimFill = 0x55;
    auto flips = cells.evaluate(1, 12, ctx, false, 50.0);
    ASSERT_FALSE(flips.empty());
    int zero_to_one = 0;
    for (const auto &f : flips)
        zero_to_one += f.oneToZero ? 0 : 1;
    // Anti-cells store logical 0 charged, so press flips mostly 0->1.
    EXPECT_GT(double(zero_to_one) / double(flips.size()), 0.6);
}

TEST(CellModel, RetentionFlipsAreAttributed)
{
    CellModel cells(dieS8GbB(), 65536, 3);
    DoseState dose; // empty
    RowContext ctx;
    ctx.dose = &dose;
    ctx.victimFill = 0xFF;
    ctx.retentionSeconds = 3600.0; // an hour unrefreshed at 80C
    auto flips = cells.evaluate(1, 13, ctx, false, 80.0);
    ASSERT_FALSE(flips.empty());
    for (const auto &f : flips)
        EXPECT_EQ(f.mechanism, Mechanism::Retention);
}

TEST(CellModel, HammerOffWeightIsNormalizedAndMonotonic)
{
    CellModel cells(dieS8GbB(), 65536, 3);
    EXPECT_NEAR(cells.hammerOffWeight(15_ns), 1.0, 1e-9);
    double prev = 0.0;
    for (Time t : {1_ns, 15_ns, 100_ns, 500_ns, 2000_ns, 50000_ns}) {
        const double w = cells.hammerOffWeight(t);
        EXPECT_GT(w, prev);
        prev = w;
    }
    // Unknown history saturates.
    EXPECT_NEAR(cells.hammerOffWeight(-1),
                cells.hammerOffWeight(1_s), 1e-6);
}

TEST(CellModel, DoubleSidedSynergyRaisesDamage)
{
    CellModel cells(dieS8GbB(), 65536, 3);
    // Same total hammer dose, split vs one-sided: the sandwiched
    // distribution must flip at least as many cells.
    DoseState split, single;
    split.hammer[0] = split.hammer[1] = 1e6;
    single.hammer[0] = 2e6;
    RowContext ctx;
    ctx.victimFill = 0x00;
    ctx.dose = &split;
    auto flips_split = cells.evaluate(1, 14, ctx, false, 50.0);
    ctx.dose = &single;
    auto flips_single = cells.evaluate(1, 14, ctx, false, 50.0);
    EXPECT_GT(flips_split.size(), flips_single.size());
}

TEST(FaultModel, HammerDoseGoesToNeighborsWithAttenuation)
{
    FaultModel fm(dieS8GbB(), smallOrg(), 1);
    fm.onActivate(0, 100, 0);
    const auto &p = fm.cells().params();
    const double d1 = fm.dose(0, 101).hammer[0];
    const double d2 = fm.dose(0, 102).hammer[0];
    const double d3 = fm.dose(0, 103).hammer[0];
    EXPECT_GT(d1, 0.0);
    EXPECT_NEAR(d2 / d1, p.dist2Rh, 1e-9);
    EXPECT_NEAR(d3 / d1, p.dist3Rh, 1e-9);
    EXPECT_EQ(fm.dose(0, 104).hammer[0], 0.0);
    // Side convention: aggressor below -> side 0; above -> side 1.
    EXPECT_GT(fm.dose(0, 101).hammer[0], 0.0);
    EXPECT_EQ(fm.dose(0, 101).hammer[1], 0.0);
    EXPECT_GT(fm.dose(0, 99).hammer[1], 0.0);
    EXPECT_EQ(fm.dose(0, 99).hammer[0], 0.0);
}

TEST(FaultModel, PressDoseScalesWithOnTimeAndTemperature)
{
    FaultModel fm(dieS8GbB(), smallOrg(), 1);
    fm.setTemperature(50.0);
    fm.onPrecharge(0, 100, 0, 10_us);
    const double d50 = fm.dose(0, 101).press[0];
    fm.onRestore(0, 101, 0);
    fm.setTemperature(80.0);
    fm.onPrecharge(0, 100, 10_us, 20_us);
    const double d80 = fm.dose(0, 101).press[0];
    EXPECT_GT(d50, 0.0);
    EXPECT_NEAR(d80 / d50, fm.cells().pressTempFactor(80.0), 1e-6);
}

TEST(FaultModel, MutatedTemperatureResponseAppliesAfterInvalidate)
{
    FaultModel fm(dieS8GbB(), smallOrg(), 1);
    fm.setTemperature(80.0);
    const double on_time =
        double(10_us - fm.cells().params().pressOnset);
    fm.onPrecharge(0, 100, 0, 10_us);
    const double original = fm.dose(0, 101).press[0];
    fm.onRestore(0, 101, 10_us);

    // An ablation-style edit: mutate, then invalidate.
    fm.cells().mutableParams().lambdaRp *= 2.0;
    fm.cells().invalidateCaches();
    fm.onPrecharge(0, 100, 10_us, 20_us);
    EXPECT_EQ(fm.dose(0, 101).press[0],
              on_time * fm.cells().pressTempFactor(80.0));
    EXPECT_GT(fm.dose(0, 101).press[0], original);
}

TEST(FaultModel, PressOnsetSubtractsPerInterval)
{
    FaultModel fm(dieS8GbB(), smallOrg(), 1);
    const Time onset = fm.cells().params().pressOnset;
    fm.onPrecharge(0, 100, 0, onset); // exactly the onset: no dose
    EXPECT_EQ(fm.dose(0, 101).press[0], 0.0);
    fm.onPrecharge(0, 100, 0, onset + 100_ns);
    EXPECT_NEAR(fm.dose(0, 101).press[0], double(100_ns), 1.0);
}

TEST(FaultModel, RestoreClearsDoseAndStartsRetention)
{
    FaultModel fm(dieS8GbB(), smallOrg(), 1);
    fm.onActivate(0, 100, 0);
    EXPECT_FALSE(fm.dose(0, 101).empty());
    fm.onRestore(0, 101, 1_ms);
    EXPECT_TRUE(fm.dose(0, 101).empty());
    EXPECT_NEAR(fm.retentionSeconds(0, 101, 1_ms + 2_s),
                2.0 * fm.cells().retentionTempFactor(50.0), 1e-9);
}

TEST(FaultModel, SnapshotScaleReplaysLinearGrowth)
{
    FaultModel fm(dieS8GbB(), smallOrg(), 1);
    fm.onPrecharge(0, 100, 0, 1_us);
    const double base = fm.dose(0, 101).press[0];
    auto before = fm.snapshotDoses();
    fm.onPrecharge(0, 100, 2_us, 3_us);
    const double one_iter = fm.dose(0, 101).press[0] - base;
    fm.scaleDoseDelta(before, 9.0); // replay 9 more iterations
    EXPECT_NEAR(fm.dose(0, 101).press[0], base + 10.0 * one_iter, 1e-3);
}

TEST(FaultModel, RowRestoredInMeasuredIterationStaysEmptyAfterScale)
{
    FaultModel fm(dieS8GbB(), smallOrg(), 1);
    fm.onActivate(0, 100, 0); // doses rows 97..99 and 101..103
    auto before = fm.snapshotDoses();
    // The measured iteration restores row 101 and disturbs row 104,
    // which carried no dose at snapshot time.
    fm.onRestore(0, 101, 1_us);
    fm.onActivate(0, 105, 2_us);
    const double d104 = fm.dose(0, 104).hammer[1];
    const double d102 = fm.dose(0, 102).hammer[0];
    fm.scaleDoseDelta(before, 4.0);
    EXPECT_TRUE(fm.dose(0, 101).empty());
    EXPECT_EQ(fm.dose(0, 104).hammer[1], d104 * 5.0); // grew from zero
    EXPECT_EQ(fm.dose(0, 102).hammer[0], d102);       // no growth
}

TEST(FaultModel, DisturbedRowsLeaveOutRestoredRows)
{
    FaultModel fm(dieS8GbB(), smallOrg(), 1);
    fm.onActivate(2, 10, 0);
    fm.onRestore(2, 11, 1_us);
    fm.onRestore(2, 200, 1_us); // restore-only history: not disturbed
    const std::vector<std::pair<int, int>> expected = {
        {2, 7}, {2, 8}, {2, 9}, {2, 12}, {2, 13}};
    auto rows = fm.disturbedRows();
    std::sort(rows.begin(), rows.end());
    EXPECT_EQ(rows, expected);
}

TEST(FaultModel, ShiftRowHistoryOfUntouchedRowDoesNothing)
{
    FaultModel fm(dieS8GbB(), smallOrg(), 1);
    FaultModel fresh(dieS8GbB(), smallOrg(), 1);
    fm.shiftRowHistory(0, 300, 5_us);
    EXPECT_TRUE(fm.dose(0, 300).empty());
    EXPECT_TRUE(fm.disturbedRows().empty());
    // Still no restore history: retention counts from time zero.
    EXPECT_EQ(fm.retentionSeconds(0, 300, 1_s),
              fresh.retentionSeconds(0, 300, 1_s));
    // Nor close history: an ACT 100 ns after the shifted time is fully
    // recovered, not weighted as 100 ns after a close.
    fm.onActivate(0, 300, 5_us + 100_ns);
    fresh.onActivate(0, 300, 5_us + 100_ns);
    EXPECT_EQ(fm.dose(0, 301).hammer[0], fresh.dose(0, 301).hammer[0]);
}

TEST(Chip, FillReadAndFlipLatching)
{
    Chip chip(dieS8GbB(), smallOrg(), dram::benderTiming(), 1);
    chip.fillRow(0, 50, 0xAA, 0);
    EXPECT_EQ(chip.rowFill(0, 50), 0xAA);
    EXPECT_EQ(chip.readByte(0, 50, 17), 0xAA);
    EXPECT_TRUE(chip.storedFlipBits(0, 50).empty());

    // Force a huge press dose onto row 51 and materialize.
    chip.fillRow(0, 51, 0xFF, 0);
    chip.fault().onPrecharge(0, 50, 0, 2_s);
    auto flips = chip.materializeRow(0, 51, 2_s);
    ASSERT_FALSE(flips.empty());
    auto stored = chip.storedFlipBits(0, 51);
    EXPECT_EQ(stored.size(), flips.size());
    // Flipped bits read back inverted.
    const int bit = flips.front().bit;
    EXPECT_EQ((chip.readByte(0, 51, bit / 8) >> (bit % 8)) & 1, 0);
    // Dose is cleared by materialization.
    EXPECT_TRUE(chip.fault().dose(0, 51).empty());
}

TEST(Chip, ActRestoresOwnRowAndDisturbsNeighbors)
{
    Chip chip(dieS8GbB(), smallOrg(), dram::benderTiming(), 1);
    chip.act(0, 100, 0);
    EXPECT_FALSE(chip.fault().dose(0, 101).empty());
    EXPECT_TRUE(chip.fault().dose(0, 100).empty());
    auto interval = chip.pre(0, 36_ns);
    EXPECT_EQ(interval.row, 100);
    EXPECT_GT(chip.fault().dose(0, 101).press[0], 0.0);
}

TEST(Chip, RefreshStripeRestoresTrackedRows)
{
    dram::Organization org = smallOrg(); // 4096 rows / 8192 REFs
    Chip chip(dieS8GbB(), org, dram::benderTiming(), 1);
    chip.fillRow(0, 0, 0x55, 0);
    chip.fault().onActivate(0, 1, 0);
    ASSERT_FALSE(chip.fault().dose(0, 0).empty());
    chip.refresh(1_us); // stripe 0 covers row 0
    EXPECT_TRUE(chip.fault().dose(0, 0).empty());
}

/** A row was restored at @p t iff no unrefreshed time has passed. */
bool
restoredAt(const Chip &chip, int b, int row, Time t)
{
    return chip.fault().retentionSeconds(b, row, t) == 0.0;
}

TEST(Chip, RefreshRestoresExactlyTheStripeRowsWithDoseOrData)
{
    // The default organization refreshes 8 rows per REF: stripe 0 is
    // rows 0..7 of every bank.
    Chip chip(dieS8GbB(), dram::Organization{}, dram::benderTiming(), 1);
    chip.fillRow(0, 3, 0x55, 0);      // stored data, no dose
    chip.fillRow(0, 8, 0x55, 0);      // stored data, outside the stripe
    chip.fault().onActivate(2, 6, 0); // dose on rows 3..5 and 7..9
    chip.refreshRow(5, 2, 1_us);      // TRR-only history, no dose/data
    ASSERT_FALSE(chip.fault().dose(2, 8).empty());

    const Time t = 2_us;
    chip.refresh(t);
    EXPECT_TRUE(restoredAt(chip, 0, 3, t));
    for (int r : {3, 4, 5, 7}) {
        EXPECT_TRUE(restoredAt(chip, 2, r, t)) << r;
        EXPECT_TRUE(chip.fault().dose(2, r).empty()) << r;
    }
    // Outside the stripe: untouched.
    EXPECT_FALSE(restoredAt(chip, 0, 8, t));
    EXPECT_FALSE(chip.fault().dose(2, 8).empty());
    EXPECT_FALSE(chip.fault().dose(2, 9).empty());
    // Inside the stripe but with neither dose nor data: not restored,
    // so its retention clock still runs from the TRR refresh.
    EXPECT_FALSE(restoredAt(chip, 5, 2, t));
    EXPECT_EQ(chip.fault().retentionSeconds(5, 2, t),
              toSec(t - 1_us) *
                  chip.fault().cells().retentionTempFactor(
                      chip.temperature()));
}

TEST(Chip, RefreshPointerWrapsAfterOneFullCycle)
{
    dram::Organization org;
    org.rows = 8192 * 2; // 2 rows per REF: one cycle is 8192 REFs
    Chip chip(dieS8GbB(), org, dram::benderTiming(), 1);
    const Time step = chip.timing().tREFI;
    chip.fillRow(1, 0, 0xAA, 0);
    chip.fillRow(1, org.rows - 1, 0xAA, 0);

    Time t = step;
    chip.refresh(t); // stripe 0
    EXPECT_TRUE(restoredAt(chip, 1, 0, t));
    for (int i = 1; i < 8191; ++i) {
        t += step;
        chip.refresh(t);
    }
    EXPECT_FALSE(restoredAt(chip, 1, org.rows - 1, t));
    t += step;
    chip.refresh(t); // REF 8192: the last stripe
    EXPECT_TRUE(restoredAt(chip, 1, org.rows - 1, t));
    EXPECT_FALSE(restoredAt(chip, 1, 0, t));
    t += step;
    chip.refresh(t); // wrapped back to stripe 0
    EXPECT_TRUE(restoredAt(chip, 1, 0, t));
}

TEST(Chip, EvalNoiseMakesNearThresholdFlipsStochastic)
{
    Chip chip(dieS8GbB(), smallOrg(), dram::benderTiming(), 1);
    chip.fault().setEvalNoiseSigma(0.0);
    chip.fillRow(0, 61, 0xFF, 0);
    // Find the exact threshold dose of row 61 via its candidates.
    const double min_theta =
        chip.fault().cells().rowCandidates(0, 61).minThetaP;
    // 99% of the threshold: never flips without noise.
    chip.fault().onPrecharge(0, 60, 0, Time(min_theta * 0.99 /
                                            (1.0 + 0.15)));
    EXPECT_TRUE(chip.materializeRow(0, 61, 1_ms).empty());
}

} // namespace
} // namespace rp::device
