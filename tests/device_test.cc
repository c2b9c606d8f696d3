/**
 * @file
 * Device-model tests: die registry, calibration derivation, per-cell
 * determinism, eligibility/direction rules, threshold-store keys and
 * single-flight builds, dose accounting, and chip materialization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>
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

// ---------------------------------------------------------------
// ThresholdStore: content keys and single-flight builds
// ---------------------------------------------------------------

/** One parameter edit, applied alone to an otherwise derived model. */
struct ParamEdit
{
    const char *field;
    void (*apply)(CellModelParams &);
};

/** Every field a ThresholdStore reads (ThresholdParams), edited. */
const std::vector<ParamEdit> kThresholdEdits = {
    {"muH", [](CellModelParams &p) { p.muH += 0.5; }},
    {"sigmaH", [](CellModelParams &p) { p.sigmaH *= 1.5; }},
    {"sigmaRowH", [](CellModelParams &p) { p.sigmaRowH *= 1.5; }},
    {"sigmaWordH", [](CellModelParams &p) { p.sigmaWordH *= 1.5; }},
    {"muP", [](CellModelParams &p) { p.muP += 0.5; }},
    {"sigmaP", [](CellModelParams &p) { p.sigmaP *= 1.5; }},
    {"sigmaRowP", [](CellModelParams &p) { p.sigmaRowP *= 1.5; }},
    {"sigmaWordP", [](CellModelParams &p) { p.sigmaWordP *= 1.5; }},
    {"muRet", [](CellModelParams &p) { p.muRet += 0.5; }},
    {"sigmaRet", [](CellModelParams &p) { p.sigmaRet *= 1.5; }},
    {"antiFraction", [](CellModelParams &p) { p.antiFraction += 0.5; }},
};

/** Every other CellModelParams field, edited. */
const std::vector<ParamEdit> kOtherEdits = {
    {"lambdaRp", [](CellModelParams &p) { p.lambdaRp *= 2.0; }},
    {"lambdaRh", [](CellModelParams &p) { p.lambdaRh *= 2.0; }},
    {"kappaDs", [](CellModelParams &p) { p.kappaDs = 8.0; }},
    {"rhoWeakSide", [](CellModelParams &p) { p.rhoWeakSide = 1.0; }},
    {"gammaRhAggr", [](CellModelParams &p) { p.gammaRhAggr = 0.9; }},
    {"gammaRpAggr0", [](CellModelParams &p) { p.gammaRpAggr0 = 0.9; }},
    {"gammaRpAggrT", [](CellModelParams &p) { p.gammaRpAggrT = 0.1; }},
    {"tauOff", [](CellModelParams &p) { p.tauOff = 5000_ns; }},
    {"offFloor", [](CellModelParams &p) { p.offFloor = 0.1; }},
    {"pressOnset", [](CellModelParams &p) { p.pressOnset = 100_ns; }},
    {"dist2Rh", [](CellModelParams &p) { p.dist2Rh *= 2.0; }},
    {"dist2Rp", [](CellModelParams &p) { p.dist2Rp *= 2.0; }},
    {"dist3Rh", [](CellModelParams &p) { p.dist3Rh *= 2.0; }},
    {"dist3Rp", [](CellModelParams &p) { p.dist3Rp *= 2.0; }},
};

constexpr int kKeyBits = 65536;
constexpr std::uint64_t kKeySeed = 4242;
const std::pair<int, int> kKeyRows[] = {{0, 10}, {3, 40000}};

/** A model of S-8Gb-D with one edit applied through invalidateCaches. */
CellModel
editedModel(const ParamEdit &edit)
{
    CellModel model(dieS8GbD(), kKeyBits, kKeySeed);
    edit.apply(model.mutableParams());
    model.invalidateCaches();
    return model;
}

/** Field-by-field (exact) equality of two candidate rows. */
void
expectSameRow(const RowCandidates &a, const RowCandidates &b,
              const std::string &what)
{
    EXPECT_EQ(a.bit, b.bit) << what;
    EXPECT_EQ(a.thetaH, b.thetaH) << what;
    EXPECT_EQ(a.thetaP, b.thetaP) << what;
    EXPECT_EQ(a.tauRet, b.tauRet) << what;
    EXPECT_EQ(a.anti, b.anti) << what;
    EXPECT_EQ(a.domSide, b.domSide) << what;
    EXPECT_EQ(a.minThetaH, b.minThetaH) << what;
    EXPECT_EQ(a.minThetaP, b.minThetaP) << what;
    EXPECT_EQ(a.minTauRet, b.minTauRet) << what;
}

TEST(ThresholdStore, EditListsCoverEveryParameter)
{
    // A new CellModelParams field must join one of the two lists.
    EXPECT_EQ(sizeof(ThresholdParams), kThresholdEdits.size() * 8);
    EXPECT_EQ(sizeof(CellModelParams),
              (kThresholdEdits.size() + kOtherEdits.size()) * 8);
}

TEST(ThresholdStore, NonThresholdEditsKeepTheSharedStore)
{
    const CellModel plain(dieS8GbD(), kKeyBits, kKeySeed);
    for (const ParamEdit &edit : kOtherEdits) {
        const CellModel model = editedModel(edit);
        for (const auto &[bank, row] : kKeyRows)
            EXPECT_EQ(&model.rowCandidates(bank, row),
                      &plain.rowCandidates(bank, row))
                << edit.field;
    }
}

TEST(ThresholdStore, ThresholdEditsGetARegisteredStoreOfTheirOwn)
{
    const CellModel plain(dieS8GbD(), kKeyBits, kKeySeed);
    for (const ParamEdit &edit : kThresholdEdits) {
        const CellModel model = editedModel(edit);
        const CellModel again = editedModel(edit);
        const auto fresh =
            ThresholdStore::makePrivate(model.params(), kKeyBits, kKeySeed);
        for (const auto &[bank, row] : kKeyRows) {
            const RowCandidates &edited = model.rowCandidates(bank, row);
            const RowCandidates &base = plain.rowCandidates(bank, row);
            EXPECT_NE(&edited, &base) << edit.field;
            // Registered: the same edit finds the same store.
            EXPECT_EQ(&edited, &again.rowCandidates(bank, row))
                << edit.field;
            expectSameRow(edited, fresh->row(bank, row), edit.field);
            // The edit shows in the row, so a key that left the
            // field out would hand this model the wrong rows.
            EXPECT_TRUE(edited.thetaH != base.thetaH ||
                        edited.thetaP != base.thetaP ||
                        edited.tauRet != base.tauRet ||
                        edited.anti != base.anti)
                << edit.field;
        }
    }
}

TEST(ThresholdStore, ConcurrentFirstTouchesBuildEachRowOnce)
{
    const CellModel model(dieS8GbB(), kKeyBits, 17);
    const auto store =
        ThresholdStore::makePrivate(model.params(), kKeyBits, 17);
    constexpr int kThreads = 8;
    std::atomic<int> arrived{0};
    const auto barrier = [&arrived](int round) {
        arrived.fetch_add(1);
        while (arrived.load() < kThreads * round)
            std::this_thread::yield();
    };
    std::vector<const RowCandidates *> rows(kThreads);
    std::vector<const RowWordMasks *> masks(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            barrier(1);
            rows[t] = &store->row(2, 300);
            barrier(2);
            masks[t] = &store->wordMasks(2, 300);
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    for (int t = 1; t < kThreads; ++t) {
        EXPECT_EQ(rows[t], rows[0]);
        EXPECT_EQ(masks[t], masks[0]);
    }
    const ThresholdStoreStats stats = store->stats();
    EXPECT_EQ(stats.rowBuilds, 1u);
    EXPECT_EQ(stats.wordMaskBuilds, 1u);
    EXPECT_EQ(stats.candidateRows, 1u);
    EXPECT_EQ(stats.wordMaskRows, 1u);
}

TEST(ThresholdStore, AdoptedRowsAreNotBuilds)
{
    const CellModel model(dieS8GbB(), kKeyBits, 18);
    const auto source =
        ThresholdStore::makePrivate(model.params(), kKeyBits, 18);
    const auto target =
        ThresholdStore::makePrivate(model.params(), kKeyBits, 18);
    RowCandidates copy = source->row(1, 7);
    RowWordMasks mask_copy = source->wordMasks(1, 7);
    EXPECT_TRUE(target->adoptRow(packRowKey(1, 7), std::move(copy)));
    EXPECT_TRUE(
        target->adoptWordMasks(packRowKey(1, 7), std::move(mask_copy)));
    expectSameRow(target->row(1, 7), source->row(1, 7), "adopted");
    target->wordMasks(1, 7);
    const ThresholdStoreStats stats = target->stats();
    EXPECT_EQ(stats.rowBuilds, 0u);
    EXPECT_EQ(stats.wordMaskBuilds, 0u);
    EXPECT_EQ(stats.candidateRows, 1u);
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

TEST(FaultModel, RecorderLogsRestoresInOrderWithDeposits)
{
    FaultModel fm(dieS8GbB(), smallOrg(), 1);
    std::vector<FaultModel::DoseOp> ops;
    fm.setDoseOpRecorder(&ops);
    fm.onActivate(0, 100, 0); // hammer deposits on rows 97..103
    fm.onRestore(0, 101, 5_us);
    fm.setDoseOpRecorder(nullptr);
    fm.onRestore(0, 101, 6_us);

    ASSERT_EQ(ops.size(), 7u);
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_LT(ops[i].comp, 2) << i;
    EXPECT_EQ(ops[6].comp, FaultModel::DoseOp::kRestore);
    EXPECT_EQ(ops[6].key, FaultModel::doseKey(0, 101));
    EXPECT_EQ(ops[6].at, 5_us);
}

TEST(FaultModel, RedepositRepeatsTheRecordedAdds)
{
    FaultModel fm(dieS8GbB(), smallOrg(), 1);
    std::vector<FaultModel::DoseOp> ops;
    fm.setDoseOpRecorder(&ops);
    for (int i = 0; i < 3; ++i) {
        fm.onActivate(0, 100, Time(i) * 2_us);
        fm.onPrecharge(0, 100, Time(i) * 2_us, Time(i) * 2_us + 700_ns);
        fm.onActivate(0, 102, Time(i) * 2_us + 1_us);
        fm.onPrecharge(0, 102, Time(i) * 2_us + 1_us,
                       Time(i) * 2_us + 1500_ns);
    }
    fm.setDoseOpRecorder(nullptr);

    FaultModel replay(dieS8GbB(), smallOrg(), 1);
    for (const auto &op : ops) {
        if (op.key == FaultModel::doseKey(0, 101))
            replay.redeposit(0, 101, op.comp, op.value);
    }
    const DoseState &want = fm.dose(0, 101);
    const DoseState &got = replay.dose(0, 101);
    for (int side = 0; side < 2; ++side) {
        EXPECT_EQ(got.hammer[side], want.hammer[side]);
        EXPECT_EQ(got.press[side], want.press[side]);
    }
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

TEST(FaultModel, PagedSlotIndexReachesBothEndsOfABank)
{
    dram::Organization org;
    ASSERT_EQ(org.rows, 65536);
    FaultModel fm(dieS8GbB(), org, 1);
    EXPECT_FALSE(fm.bankTouched(2));

    fm.onRestore(2, 0, 1_us);
    fm.onRestore(2, 65535, 2_us);
    fm.redeposit(2, 65535, 3, 0.25);
    EXPECT_TRUE(fm.bankTouched(2));
    EXPECT_FALSE(fm.bankTouched(3));
    EXPECT_TRUE(fm.touched(2, 0));
    EXPECT_TRUE(fm.touched(2, 65535));
    EXPECT_EQ(fm.dose(2, 65535).press[1], 0.25);
    EXPECT_TRUE(fm.dose(2, 0).empty());
    // Rows 0 and 65535 keep their own restore clocks.
    EXPECT_EQ(fm.retentionSeconds(2, 0, 3_us),
              fm.retentionSeconds(2, 65535, 4_us));

    // An untouched row on a touched page, and rows on untouched pages.
    EXPECT_FALSE(fm.touched(2, 1));
    EXPECT_FALSE(fm.touched(2, 65534));
    for (int row : {300, 32768, 65000}) {
        EXPECT_FALSE(fm.touched(2, row)) << row;
        EXPECT_TRUE(fm.dose(2, row).empty()) << row;
        EXPECT_EQ(fm.lastClose(2, row), FaultModel::kNever) << row;
    }
    EXPECT_FALSE(fm.touched(3, 0));

    fm.onActivate(2, 32768, 5_us);
    fm.onPrecharge(2, 32768, 5_us, 5_us + 100_ns);
    EXPECT_TRUE(fm.touched(2, 32768));
    EXPECT_EQ(fm.lastClose(2, 32768), 5_us + 100_ns);
    EXPECT_TRUE(fm.touched(2, 32767)); // its victims
    EXPECT_TRUE(fm.touched(2, 32771));
    EXPECT_FALSE(fm.touched(2, 32772));
    EXPECT_EQ(fm.disturbedRows().size(), 7u);
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

TEST(Chip, SkippedRefreshesLeaveTheStripeWhereIssuedOnesDo)
{
    // 8 rows per REF; 65,540 rows end on a 4-row stripe (8,193 REFs
    // per pass).
    for (int rows : {65536, 65540}) {
        dram::Organization org;
        org.rows = rows;
        Chip issued(dieS8GbB(), org, dram::benderTiming(), 1);
        Chip skipped(dieS8GbB(), org, dram::benderTiming(), 1);
        Time t = 0;
        for (std::uint64_t n : {1u, 7u, 300u, 8192u, 9000u}) {
            for (std::uint64_t i = 0; i < n; ++i)
                issued.refresh(t += issued.timing().tREFI);
            skipped.skipRefreshes(n);
            for (int row : {0, 7, 8, 2048, rows - 1}) {
                EXPECT_EQ(skipped.refreshesBefore(row),
                          issued.refreshesBefore(row))
                    << rows << " rows, row " << row;
            }
        }

        // refreshesBefore counts exactly the REFs ahead of the row's.
        const int row = 2050;
        issued.fillRow(1, row, 0x55, t);
        for (std::uint64_t i = issued.refreshesBefore(row); i > 0; --i)
            issued.refresh(t += issued.timing().tREFI);
        EXPECT_FALSE(restoredAt(issued, 1, row, t)) << rows;
        issued.refresh(t += issued.timing().tREFI);
        EXPECT_TRUE(restoredAt(issued, 1, row, t)) << rows;
    }
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
