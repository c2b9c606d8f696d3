/**
 * @file
 * Fast-path equivalence tests.
 *
 * The search fast path has three layers that must not change any
 * result:
 *
 *  - the candidate-path CellModel::evaluate (shared ThresholdStore,
 *    SoA scan, O(1) cannot-flip early exit) must report the same flip
 *    set as an exhaustive full scan at ACmin-level doses;
 *  - the word-mask full scan (per-row occupancy masks, per-cell
 *    draw cutoffs, charge-state-first derivation) must be
 *    bit-identical to the plain per-bit reference loop
 *    (tests/full_scan_reference.h) at any dose, fill, polarity,
 *    override set, row width and parameter edit,
 *    and the one-victim BER engine tasks must merge back to the
 *    serial per-location scan;
 *  - findAcmin / findTAggOnMin, whose probes the AttemptOracle
 *    answers, must be bit-identical to the searches that replay every
 *    probe on the platform (tests/replay_reference.h; the multi-search
 *    comparison, platform state included, is oracle_replay_test).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>

#include "api/sink.h"
#include "chr/ecc.h"
#include "chr/oracle.h"
#include "core/rowpress.h"
#include "device/cell_tags.h"
#include "full_scan_reference.h"
#include "replay_reference.h"

namespace rp {
namespace {

using namespace rp::literals;

chr::ModuleConfig
testConfig(std::uint64_t seed = 1)
{
    chr::ModuleConfig mc;
    mc.die = device::dieS8GbB();
    mc.numLocations = 2;
    mc.seed = seed;
    return mc;
}

/** Row, bit, direction and mechanism of every flip, in order. */
using FlipKey = std::tuple<int, int, bool, device::Mechanism>;

std::vector<FlipKey>
flipsOf(const std::vector<chr::VictimFlip> &flips)
{
    std::vector<FlipKey> out;
    for (const auto &vf : flips)
        out.emplace_back(vf.victimRow, vf.flip.bit, vf.flip.oneToZero,
                         vf.flip.mechanism);
    return out;
}

std::vector<FlipKey>
flipsOf(const std::vector<device::FlipRecord> &flips)
{
    std::vector<FlipKey> out;
    for (const auto &f : flips)
        out.emplace_back(0, f.bit, f.oneToZero, f.mechanism);
    return out;
}

/** A cell model with the kappa = 0, rho = 1 edit applied (or not). */
using Edit = void (*)(device::CellModelParams &);

void
kappa0Rho1(device::CellModelParams &p)
{
    p.kappaDs = 0.0;
    p.rhoWeakSide = 1.0;
}

/** The degenerate press spread: every cutoff is exactly 0 or 1. */
void
sigmaP0(device::CellModelParams &p)
{
    p.sigmaP = 0.0;
}

chr::Module
moduleWith(Edit edit)
{
    chr::Module module(chr::locationConfig(testConfig(), 64));
    if (edit) {
        auto &cells = module.platform().chip().fault().cells();
        edit(cells.mutableParams());
        cells.invalidateCaches();
    }
    return module;
}

TEST(FastPath, CandidateEvaluateMatchesFullScanAtAcminDose)
{
    // Find ACmin on one module, then run the attempt at exactly that
    // dose on two fresh modules, inspecting one with the candidate
    // path and one with an exhaustive scan.  The flip sets must agree:
    // the candidate cache is sized to contain every ACmin-relevant
    // cell.
    std::size_t flipping_cases = 0;
    for (Time t_on : {36_ns, 7800_ns}) {
        chr::SearchConfig cfg;
        chr::Module search(chr::locationConfig(testConfig(), 64));
        chr::RowLayout layout =
            chr::makeLayout(chr::AccessKind::SingleSided, 1, 64);
        auto res = chr::findAcmin(search.platform(), layout,
                                  chr::DataPattern::CheckerBoard, t_on,
                                  cfg);
        ASSERT_TRUE(res.flipped);

        // At exactly ACmin a fresh attempt is noise-marginal, so also
        // probe slightly above it; candidate and full scan must agree
        // at ACmin-level doses (including the empty-set cases).  Far
        // beyond ACmin the full scan legitimately finds more cells —
        // that regime belongs to the BER experiments, which request
        // full scans.
        for (double mult : {1.0, 1.1, 1.2}) {
            const auto acts =
                std::uint64_t(double(res.acmin) * mult);
            chr::Module cand_mod(chr::locationConfig(testConfig(), 64));
            chr::Module full_mod(chr::locationConfig(testConfig(), 64));
            auto cand = chr::runPressAttempt(
                cand_mod.platform(), layout,
                chr::DataPattern::CheckerBoard, t_on, acts,
                /*full_scan=*/false);
            auto full = chr::runPressAttempt(
                full_mod.platform(), layout,
                chr::DataPattern::CheckerBoard, t_on, acts,
                /*full_scan=*/true);
            flipping_cases += cand.flips.empty() ? 0 : 1;
            EXPECT_EQ(flipsOf(cand.flips), flipsOf(full.flips))
                << "candidate/full-scan divergence at tAggON "
                << formatTime(t_on) << " x" << mult;
        }
    }
    EXPECT_GT(flipping_cases, 0u);
}

/**
 * The word-mask full scan of (1, @p row) against the reference loop,
 * flip for flip and in order; returns the reference's flips.
 */
std::vector<device::FlipRecord>
compareFullScan(const device::CellModel &model, std::uint64_t seed,
                int row, const device::RowContext &ctx, double temp)
{
    const auto fast = model.evaluate(1, row, ctx, true, temp);
    std::vector<device::FlipRecord> want;
    ref::evaluateFullScanReference(model, seed, 1, row, ctx, temp, want);
    EXPECT_EQ(flipsOf(fast), flipsOf(want));
    return want;
}

TEST(FastPath, WordMaskFullScanMatchesReferenceScan)
{
    // The word-mask full scan must reproduce the plain per-bit loop
    // bit-for-bit across every dose regime: zero-ish, retention-only,
    // press-dominated (from ACmin-marginal up to far above the bucket
    // ladder, where the masks degenerate to a plain full scan),
    // hammer-dominated, and mixed.
    for (const auto &die : {device::dieS8GbB(), device::dieM16GbF()}) {
        device::CellModel model(die, 65536, 7);
        std::size_t flips_seen = 0;

        struct Regime
        {
            double press;
            double hammer;
            double retention;
        };
        const Regime regimes[] = {
            {0.0, 0.0, 1e-9},      {0.0, 0.0, 4.0},
            {1e9, 0.0, 0.0},       {1e12 * 8.0, 0.0, 0.0},
            {1e12 * 200.0, 0.0, 0.0}, {1e12 * 5e4, 0.0, 0.0},
            {0.0, 2e4, 0.0},       {0.0, 5e6, 0.0},
            {1e12 * 40.0, 3e4, 0.01},
        };
        for (const Regime &r : regimes) {
            device::DoseState dose;
            dose.press[0] = r.press;
            dose.press[1] = r.press * 0.1;
            dose.hammer[0] = dose.hammer[1] = r.hammer;
            device::RowContext ctx;
            ctx.dose = &dose;
            ctx.victimFill = 0x55;
            ctx.aggrFill[0] = 0x55;
            ctx.aggrFill[1] = 0xAA;
            ctx.retentionSeconds = r.retention;
            ctx.noiseSigma = 0.05;
            ctx.noiseNonce = 987654;
            for (double temp : {50.0, 80.0}) {
                for (int row = 62; row < 67; ++row) {
                    SCOPED_TRACE(testing::Message()
                                 << die.id << " press=" << r.press
                                 << " hammer=" << r.hammer
                                 << " row=" << row);
                    flips_seen +=
                        compareFullScan(model, 7, row, ctx, temp).size();
                }
            }
        }
        // The regimes must exercise real flips, not just empty scans.
        EXPECT_GT(flips_seen, 100u) << die.id;
    }
}

/**
 * One dose of the full-scan differential tests, each term in units of
 * the row's weakest candidate threshold of its mechanism, so that the
 * low multiples flip a few cells of the row and the "far" ones most
 * of the cells their charge state allows.
 */
struct ScanDose
{
    const char *name;
    double press;     ///< press[0], of minThetaP; press[1] is a tenth
    double hammer;    ///< each side, of minThetaH
    double retention; ///< retention time, of minTauRet
};

const ScanDose kScanDoses[] = {
    {"press", 3.0, 0.0, 0.0},
    {"press, far", 1e3, 0.0, 0.0},
    {"hammer", 0.0, 0.6, 0.0},
    {"hammer, far", 0.0, 20.0, 0.0},
    {"mixed", 3.0, 0.6, 0.0},
    {"mixed, retention", 3.0, 0.6, 2.0},
};

/** The flips of every full-scan comparison of one test, by kind. */
struct ScanTally
{
    std::size_t rowHammer = 0;
    std::size_t rowPress = 0;
    std::size_t retention = 0;
    std::size_t pressWithoutRetentionTime = 0;
};

void
compareAt(const device::CellModel &model, std::uint64_t seed, int row,
          device::RowContext ctx, const ScanDose &sd, ScanTally &tally)
{
    const device::RowCandidates &cands = model.rowCandidates(1, row);
    device::DoseState dose;
    dose.press[0] = sd.press * cands.minThetaP;
    dose.press[1] = dose.press[0] * 0.1;
    dose.hammer[0] = dose.hammer[1] = sd.hammer * cands.minThetaH;
    ctx.dose = &dose;
    ctx.retentionSeconds = sd.retention * cands.minTauRet;
    ctx.noiseSigma = 0.05;
    ctx.noiseNonce = 1234 + std::uint64_t(row);
    SCOPED_TRACE(testing::Message() << sd.name << ", row " << row);
    for (const auto &f : compareFullScan(model, seed, row, ctx, 50.0)) {
        switch (f.mechanism) {
        case device::Mechanism::RowHammer:
            ++tally.rowHammer;
            break;
        case device::Mechanism::RowPress:
            ++tally.rowPress;
            tally.pressWithoutRetentionTime += sd.retention == 0.0;
            break;
        case device::Mechanism::Retention:
            ++tally.retention;
            break;
        }
    }
}

TEST(FastPath, FullScanMatchesReferenceAcrossFillsAndPolarities)
{
    // The scan reads a cell's charge state (polarity and stored bit)
    // before its thresholds, so every fill meets dies of both
    // polarities: S-8Gb-B has only true cells, M-16Gb-E mostly
    // anti-cells.  The aggressor rows hold the inverse fill below and
    // the same fill above, so both coupling cases occur.  Without a
    // retention time the charged branch never reads tauRet.
    for (const auto &die :
         {device::dieS8GbB(), device::dieById("M-16Gb-E")}) {
        device::CellModel model(die, 65536, 11);
        ScanTally tally;
        for (std::uint8_t fill : {0x00, 0xFF, 0x55, 0xAA}) {
            device::RowContext ctx;
            ctx.victimFill = fill;
            ctx.aggrFill[0] = std::uint8_t(~fill);
            ctx.aggrFill[1] = fill;
            for (const ScanDose &sd : kScanDoses) {
                SCOPED_TRACE(testing::Message()
                             << die.id << " fill " << int(fill));
                compareAt(model, 11, 70, ctx, sd, tally);
            }
        }
        EXPECT_GT(tally.rowHammer, 100u) << die.id;
        EXPECT_GT(tally.rowPress, 100u) << die.id;
        EXPECT_GT(tally.pressWithoutRetentionTime, 100u) << die.id;
    }
}

TEST(FastPath, FullScanMatchesReferenceWithOverrides)
{
    // Accumulated flips live in the victim's byte overrides, which
    // the scan reads (rowBit) for each cell's charge state: override
    // every third byte, and two whole words, with hashed values.
    device::CellModel model(device::dieM16GbF(), 65536, 5);
    std::unordered_map<int, std::uint8_t> overrides;
    for (int byte = 0; byte < 65536 / 8; byte += 3)
        overrides[byte] = std::uint8_t(hashU64(byte, 99));
    for (int byte = 8 * 17; byte < 8 * 19; ++byte)
        overrides[byte] = std::uint8_t(hashU64(byte, 98));
    ScanTally tally;
    for (std::uint8_t fill : {0x00, 0x55}) {
        device::RowContext ctx;
        ctx.victimFill = fill;
        ctx.victimOverrides = &overrides;
        ctx.aggrFill[0] = 0xAA;
        ctx.aggrFill[1] = 0x55;
        for (const ScanDose &sd : kScanDoses)
            for (int row = 80; row < 82; ++row)
                compareAt(model, 5, row, ctx, sd, tally);
    }
    EXPECT_GT(tally.rowHammer, 100u);
    EXPECT_GT(tally.rowPress, 100u);
}

TEST(FastPath, FullScanMatchesReferenceOnMutatedModels)
{
    // kappa = 0 / rho = 1 changes the damage bounds; sigmaP = 0 makes
    // every press cutoff exactly 0 or 1 (weakQuantileCutoff's
    // degenerate spread).  The "near" doses sit just above the row's
    // weakest press threshold.
    const std::pair<const char *, Edit> edits[] = {
        {"kappa = 0, rho = 1", kappa0Rho1}, {"sigmaP = 0", sigmaP0}};
    for (const auto &[name, edit] : edits) {
        device::CellModel model(device::dieS8GbB(), 65536, 13);
        edit(model.mutableParams());
        model.invalidateCaches();
        ScanTally tally;
        for (std::uint8_t fill : {0x55, 0xFF}) {
            device::RowContext ctx;
            ctx.victimFill = fill;
            ctx.aggrFill[0] = 0xAA;
            ctx.aggrFill[1] = 0x55;
            for (const ScanDose &sd : kScanDoses) {
                SCOPED_TRACE(name);
                compareAt(model, 13, 90, ctx, sd, tally);
            }
            for (double press : {1.2, 2.0}) {
                SCOPED_TRACE(name);
                compareAt(model, 13, 91, ctx, {"press, near", press, 0, 0},
                          tally);
            }
        }
        EXPECT_GT(tally.rowPress, 100u) << name;
        EXPECT_GT(tally.rowHammer, 100u) << name;
    }
}

TEST(FastPath, FullScanMatchesReferenceOnRowsNotAMultipleOf64)
{
    // 1,000-bit rows end 40 bits into their last word, while the draw
    // kernel always draws 64 cells: the 24 cells past the end must
    // reach no flip, no candidate and no word mask.
    constexpr int kBits = 1000;
    for (const auto &die :
         {device::dieS8GbB(), device::dieById("M-16Gb-E")}) {
        device::CellModel model(die, kBits, 17);
        const device::CellModelParams &p = model.params();
        ScanTally tally;
        std::size_t outside_lower = 0;
        for (int row = 0; row < 48; ++row) {
            device::RowContext ctx;
            ctx.victimFill = 0x55;
            ctx.aggrFill[0] = 0xAA;
            ctx.aggrFill[1] = 0x55;
            for (const ScanDose &sd : kScanDoses)
                compareAt(model, 17, row, ctx, sd, tally);

            // Candidates: exactly the in-row cells under the cap.
            const device::RowCandidates &cands =
                model.rowCandidates(1, row);
            const double cap = 96.0 / double(kBits);
            std::vector<std::int32_t> want_bits;
            for (int bit = 0; bit < kBits; ++bit) {
                const HashRng cell(hashU64(17, 1, std::uint64_t(row),
                                           std::uint64_t(bit)));
                if (std::min({cell.uniform(device::celltags::TAG_UH),
                              cell.uniform(device::celltags::TAG_UP),
                              cell.uniform(device::celltags::TAG_RET)}) <
                    cap)
                    want_bits.push_back(bit);
            }
            EXPECT_EQ(cands.bit, want_bits) << die.id << " row " << row;

            // The last word's weakest cells, in-row only: its masks
            // start one ladder level below each minimum threshold.
            const device::RowWordMasks &wm = model.rowWordMasks(1, row);
            ASSERT_EQ(wm.numWords, 16u);
            const device::RowWordZ z =
                device::computeRowWordZ(17, 1, row, 15);
            auto firstLevelOf = [&](const device::BucketLadder &l,
                                    const std::vector<std::uint64_t> &m,
                                    double v) {
                const std::size_t k = l.indexFor(v);
                const std::size_t want = k > 0 ? k - 1 : 0;
                std::size_t got = 0;
                while (got < l.size() &&
                       !((m[got * wm.numGroups] >> 15) & 1))
                    ++got;
                EXPECT_EQ(got, want) << die.id << " row " << row;
            };
            double min_u[3] = {1.0, 1.0, 1.0};
            double min_u_all[3] = {1.0, 1.0, 1.0};
            const std::uint64_t tags[3] = {device::celltags::TAG_UH,
                                           device::celltags::TAG_UP,
                                           device::celltags::TAG_RET};
            for (int bit = 960; bit < 1024; ++bit) {
                const HashRng cell(hashU64(17, 1, std::uint64_t(row),
                                           std::uint64_t(bit)));
                for (int m = 0; m < 3; ++m) {
                    const double u = cell.uniform(tags[m]);
                    min_u_all[m] = std::min(min_u_all[m], u);
                    if (bit < kBits)
                        min_u[m] = std::min(min_u[m], u);
                }
            }
            for (int m = 0; m < 3; ++m)
                outside_lower += min_u_all[m] < min_u[m];
            const auto store = device::ThresholdStore::makePrivate(
                p, kBits, 17);
            firstLevelOf(store->hammerLadder(), wm.hammer,
                         device::hammerThreshold(p, min_u[0], z));
            firstLevelOf(store->pressLadder(), wm.press,
                         device::pressThreshold(p, min_u[1], z));
            firstLevelOf(store->retentionLadder(), wm.retention,
                         device::retentionThreshold(p, min_u[2]));
        }
        // The cells past the end must have mattered somewhere.
        EXPECT_GT(outside_lower, 10u) << die.id;
        EXPECT_GT(tally.rowHammer + tally.rowPress, 50u) << die.id;
    }
}

/** A dose direction, scaled by PreparedRowMatchesCandidateEvaluation. */
struct DoseDirection
{
    const char *name;
    double hammer[2];
    double press[2];
    double retention;
};

/**
 * The flips of evaluatePrepared and evaluateInto(full_scan = false)
 * along @p dir: the dose is scaled so the largest candidate bound sits
 * at each of @p peaks (just above the 0.5 cut, at the flip threshold
 * 1, past it).  Returns the flips seen.
 */
std::size_t
comparePreparedAlong(const device::CellModel &model, int row,
                     const device::PreparedRow &prep,
                     const DoseDirection &dir,
                     const std::vector<double> &peaks,
                     std::size_t &first_checked)
{
    const double terms[] = {dir.hammer[0],
                            dir.hammer[1],
                            std::min(dir.hammer[0], dir.hammer[1]),
                            dir.press[0],
                            dir.press[1],
                            dir.retention};
    double peak = 0.0;
    for (const auto &k : prep.coef) {
        double bound = 0.0;
        for (std::size_t t = 0; t < k.size(); ++t)
            bound += k[t] * terms[t];
        peak = std::max(peak, bound);
    }
    // A direction no candidate responds to (press when the fills leave
    // every cell discharged) is checked at large doses instead.
    const double unit = peak > 0.0 ? 1.0 / peak : 1e12;

    std::size_t flips = 0;
    for (double target : peaks) {
        const double s = target * unit;
        device::DoseState dose;
        dose.hammer[0] = dir.hammer[0] * s;
        dose.hammer[1] = dir.hammer[1] * s;
        dose.press[0] = dir.press[0] * s;
        dose.press[1] = dir.press[1] * s;
        device::RowContext ctx;
        ctx.dose = &dose;
        ctx.victimFill = prep.victimFill;
        ctx.aggrFill[0] = prep.aggrFill[0];
        ctx.aggrFill[1] = prep.aggrFill[1];
        ctx.retentionSeconds = dir.retention * s;
        ctx.noiseNonce = 4242 + std::uint64_t(row);
        // Noise off, the model's level, and one wide enough that cells
        // just above damage 0.5 can flip.
        for (double sigma : {0.0, 0.05, 0.3}) {
            ctx.noiseSigma = sigma;
            std::vector<device::FlipRecord> want;
            model.evaluateInto(1, row, ctx, false, prep.tempC, want);
            std::vector<device::FlipRecord> got;
            model.evaluatePrepared(prep, ctx, false, got);
            EXPECT_EQ(flipsOf(got), flipsOf(want))
                << dir.name << " x" << target << " sigma " << sigma;

            std::vector<device::FlipRecord> first;
            model.evaluatePrepared(prep, ctx, true, first);
            want.resize(std::min<std::size_t>(want.size(), 1));
            EXPECT_EQ(flipsOf(first), flipsOf(want))
                << "first flip, " << dir.name << " x" << target;
            flips += got.size();
            first_checked += first.size();
        }
    }
    return flips;
}

TEST(FastPath, PreparedRowMatchesCandidateEvaluation)
{
    // The oracle's prefiltered evaluation against the candidate path,
    // flip for flip and in order: the fills of all six data patterns
    // (aggressor fill on one side, victim fill on the other, both ways
    // round), three temperatures, hammer-, press-, retention-only and
    // mixed doses, noise on and off, and the kappa = 0, rho = 1 edit.
    const DoseDirection directions[] = {
        {"hammer", {1.0, 0.7}, {0.0, 0.0}, 0.0},
        {"hammer side 1", {0.0, 1.0}, {0.0, 0.0}, 0.0},
        {"press", {0.0, 0.0}, {1.0, 0.2}, 0.0},
        {"press side 1", {0.0, 0.0}, {0.0, 1.0}, 0.0},
        {"retention", {0.0, 0.0}, {0.0, 0.0}, 1.0},
        {"mixed", {0.6, 1.0}, {0.3, 1.0}, 0.5},
    };
    const std::vector<double> peaks = {0.5 * (1.0 + 1e-6), 1.0, 1.05, 1.3,
                                       3.0};

    std::size_t flips_seen = 0;
    std::size_t first_checked = 0;
    for (Edit edit : {Edit(nullptr), Edit(kappa0Rho1)}) {
        device::CellModel model(device::dieS8GbB(), 65536, 7);
        if (edit) {
            edit(model.mutableParams());
            model.invalidateCaches();
        }
        for (chr::DataPattern pattern : chr::allDataPatterns()) {
            const std::uint8_t vf = chr::victimFill(pattern);
            const std::uint8_t af = chr::aggressorFill(pattern);
            for (const auto &[below, above] :
                 {std::pair{af, vf}, std::pair{vf, af}}) {
                for (double temp : {50.0, 65.0, 80.0}) {
                    for (int row = 62; row < 66; ++row) {
                        SCOPED_TRACE(testing::Message()
                                     << (edit ? "kappa=0,rho=1 " : "")
                                     << chr::dataPatternName(pattern)
                                     << " fills " << int(below) << "/"
                                     << int(above) << " " << temp
                                     << "C row " << row);
                        const device::PreparedRow prep = model.prepareRow(
                            1, row, vf, below, above, temp);
                        for (const DoseDirection &dir : directions)
                            flips_seen += comparePreparedAlong(
                                model, row, prep, dir, peaks,
                                first_checked);
                    }
                }
            }
        }
    }
    // The doses must flip cells, not just pass empty lists.
    EXPECT_GT(flips_seen, 50000u);
    EXPECT_GT(first_checked, 5000u);
}

TEST(FastPath, EngineAttemptsMatchSerialAttempts)
{
    // (victim, location) engine tasks against the serial
    // per-location scan, with more engine threads than locations.
    const auto mc = testConfig(3);
    const std::vector<int> rows = chr::baseRowsOf(mc);
    core::ExperimentEngine engine(
        [] {
            core::ExperimentEngine::Options o;
            o.numThreads = 4;
            return o;
        }());

    for (auto kind : {chr::AccessKind::SingleSided,
                      chr::AccessKind::DoubleSided}) {
        auto parallel = chr::maxActivationAttempts(
            mc, engine, rows, kind, chr::DataPattern::CheckerBoard,
            7800_ns);
        ASSERT_EQ(parallel.size(), rows.size());
        std::size_t total = 0;
        for (std::size_t li = 0; li < rows.size(); ++li) {
            chr::Module serial(chr::locationConfig(mc, rows[li]));
            auto expect = chr::maxActivationAttempt(
                serial, 0, kind, chr::DataPattern::CheckerBoard,
                7800_ns);
            EXPECT_EQ(flipsOf(parallel[li].flips), flipsOf(expect.flips))
                << chr::accessKindName(kind) << " row " << rows[li];
            EXPECT_EQ(parallel[li].elapsed, expect.elapsed);
            total += expect.flips.size();
        }
        EXPECT_GT(total, 0u) << chr::accessKindName(kind);
    }
}

namespace fs = std::filesystem;

std::string
slurp(const fs::path &p)
{
    std::ifstream is(p, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

TEST(FastPath, BerEccCsvByteIdenticalAcrossThreadCounts)
{
    // The fig25-shaped pipeline (per-victim max-activation attempts ->
    // word-error stats -> SECDED/Chipkill outcomes -> CSV sink) must
    // write byte-identical artifacts at 1 and 4 threads.
    const auto mc = testConfig(2);
    const std::vector<int> rows = chr::baseRowsOf(mc);
    const api::ExperimentInfo info{"fastpath_ber", "t", "t", "test"};

    auto render = [&](int threads) {
        core::ExperimentEngine engine(
            [threads] {
                core::ExperimentEngine::Options o;
                o.numThreads = threads;
                return o;
            }());
        // Unique per process: concurrent test binaries (e.g. release
        // and sanitizer ctest runs sharing /tmp) must not clobber
        // each other's artifact directories mid-write.
        const fs::path dir = fs::temp_directory_path() /
                             ("rp_fastpath_ber_p" +
                              std::to_string(::getpid()) + "_t" +
                              std::to_string(threads));
        fs::remove_all(dir);
        api::CsvSink sink(dir);
        sink.beginExperiment(info);
        api::Dataset table("ber ecc words");
        table.header({"kind", "tAggON", "1-2", "3-8", ">8", "max",
                      "secded silent", "chipkill silent"});
        for (auto kind : {chr::AccessKind::SingleSided,
                          chr::AccessKind::DoubleSided}) {
            for (Time t : {7800_ns, 70200_ns}) {
                auto attempts = chr::maxActivationAttempts(
                    mc, engine, rows, kind,
                    chr::DataPattern::CheckerBoard, t);
                std::vector<chr::VictimFlip> flips;
                for (auto &attempt : attempts)
                    flips.insert(flips.end(), attempt.flips.begin(),
                                 attempt.flips.end());
                auto stats = chr::analyzeWordErrors(flips);
                auto secded = chr::evaluateSecded(flips);
                auto chipkill = chr::evaluateChipkill(flips, 8);
                table.row({chr::accessKindName(kind), formatTime(t),
                           api::cell(stats.words1to2),
                           api::cell(stats.words3to8),
                           api::cell(stats.wordsOver8),
                           api::cell(stats.maxFlipsPerWord),
                           api::cell(secded.silent),
                           api::cell(chipkill.silent)});
            }
        }
        sink.dataset(table);
        sink.endExperiment();
        return dir / info.id / "ber_ecc_words.csv";
    };

    const std::string csv1 = slurp(render(1));
    const std::string csv4 = slurp(render(4));
    ASSERT_FALSE(csv1.empty());
    EXPECT_EQ(csv1, csv4);
}

TEST(FastPath, OracleAttemptMatchesReplayAttempt)
{
    // Single probes, both kinds, several activation counts spanning
    // the concrete-loop and fast-forward regimes (incl. odd counts
    // exercising the double-sided tail).
    for (auto kind : {chr::AccessKind::SingleSided,
                      chr::AccessKind::DoubleSided}) {
        const chr::RowLayout layout = chr::makeLayout(kind, 1, 64);
        for (std::uint64_t acts :
             {std::uint64_t(1), std::uint64_t(2), std::uint64_t(5),
              std::uint64_t(15), std::uint64_t(16), std::uint64_t(17),
              std::uint64_t(400000), std::uint64_t(400001)}) {
            chr::Module replay_mod(chr::locationConfig(testConfig(), 64));
            chr::Module oracle_mod(chr::locationConfig(testConfig(), 64));
            auto replay = chr::runPressAttempt(
                replay_mod.platform(), layout,
                chr::DataPattern::CheckerBoard, 96_ns, acts);
            chr::AttemptOracle oracle(oracle_mod.platform(), layout,
                                      chr::DataPattern::CheckerBoard);
            chr::AttemptResult predicted;
            oracle.flipsAt(oracle.next(), 96_ns, acts, predicted);
            EXPECT_EQ(predicted.elapsed, replay.elapsed)
                << chr::accessKindName(kind) << " acts=" << acts;
            EXPECT_EQ(flipsOf(predicted.flips), flipsOf(replay.flips))
                << chr::accessKindName(kind) << " acts=" << acts;
            EXPECT_EQ(oracle.probe(96_ns, acts), replay.any())
                << chr::accessKindName(kind) << " acts=" << acts;
        }
    }
}

TEST(FastPath, OracleFindAcminBitIdenticalToReplay)
{
    // Edited cell-model parameters, as the ablation makes them: tauOff
    // changes the dose deposits the oracle records, kappa/rho act when
    // a victim is evaluated.  Either must reach both search paths.
    const std::vector<std::pair<const char *, Edit>> edits = {
        {"default", nullptr},
        {"tauOff=50ns",
         [](device::CellModelParams &p) { p.tauOff = 50_ns; }},
        {"tauOff=5us",
         [](device::CellModelParams &p) { p.tauOff = 5000_ns; }},
        {"kappa=0,rho=1", kappa0Rho1},
    };

    for (const auto &[edit_name, edit] : edits) {
        for (auto kind : {chr::AccessKind::SingleSided,
                          chr::AccessKind::DoubleSided}) {
            for (auto pattern : {chr::DataPattern::CheckerBoard,
                                 chr::DataPattern::RowStripe}) {
                for (Time t_on : {36_ns, 636_ns, 70200_ns}) {
                    const chr::RowLayout layout =
                        chr::makeLayout(kind, 1, 64);

                    chr::Module replay_mod = moduleWith(edit);
                    auto replay = ref::findAcmin(replay_mod.platform(),
                                                 layout, pattern, t_on);

                    chr::Module oracle_mod = moduleWith(edit);
                    auto fast = chr::findAcmin(oracle_mod.platform(),
                                               layout, pattern, t_on);

                    EXPECT_EQ(fast.flipped, replay.flipped);
                    EXPECT_EQ(fast.acmin, replay.acmin)
                        << edit_name << " "
                        << chr::accessKindName(kind) << " "
                        << chr::dataPatternName(pattern) << " "
                        << formatTime(t_on);
                    EXPECT_EQ(flipsOf(fast.flips), flipsOf(replay.flips));
                }
            }
        }
    }
}

TEST(FastPath, OracleFindTAggOnMinBitIdenticalToReplay)
{
    // The only test of the first-flip probes without the flip
    // re-evaluation of findAcmin.
    std::size_t flipped = 0;
    for (Edit edit : {Edit(nullptr), Edit(kappa0Rho1)}) {
        for (auto kind : {chr::AccessKind::SingleSided,
                          chr::AccessKind::DoubleSided}) {
            for (auto pattern : {chr::DataPattern::CheckerBoard,
                                 chr::DataPattern::RowStripe}) {
                for (std::uint64_t acts : {std::uint64_t(8),
                                           std::uint64_t(512),
                                           std::uint64_t(4096)}) {
                    const chr::RowLayout layout =
                        chr::makeLayout(kind, 1, 64);

                    chr::Module replay_mod = moduleWith(edit);
                    auto replay = ref::findTAggOnMin(
                        replay_mod.platform(), layout, pattern, acts);

                    chr::Module oracle_mod = moduleWith(edit);
                    auto fast = chr::findTAggOnMin(
                        oracle_mod.platform(), layout, pattern, acts);

                    EXPECT_EQ(fast.flipped, replay.flipped);
                    EXPECT_EQ(fast.tAggOnMin, replay.tAggOnMin)
                        << (edit ? "kappa=0,rho=1 " : "default ")
                        << chr::accessKindName(kind) << " "
                        << chr::dataPatternName(pattern)
                        << " acts=" << acts;
                    flipped += replay.flipped ? 1 : 0;
                }
            }
        }
    }
    EXPECT_GT(flipped, 0u);
}

TEST(FastPath, OracleEngineSweepMatchesPerPointModules)
{
    // The per-location engine driver (one Module per location slice,
    // reset before each search) against the replay reference on one
    // fresh Module per (location, point).
    const auto mc = testConfig();
    const std::vector<Time> sweep = {36_ns, 7800_ns};
    core::ExperimentEngine engine(
        [] {
            core::ExperimentEngine::Options o;
            o.numThreads = 2;
            return o;
        }());

    auto points = chr::acminSweep(mc, engine, sweep,
                                  chr::AccessKind::SingleSided);

    for (std::size_t ti = 0; ti < sweep.size(); ++ti) {
        for (int row : chr::baseRowsOf(mc)) {
            chr::Module fresh(chr::locationConfig(mc, row));
            auto expect = ref::findAcmin(
                fresh.platform(),
                chr::makeLayout(chr::AccessKind::SingleSided, mc.bank,
                                row),
                chr::DataPattern::CheckerBoard, sweep[ti]);
            const auto &got =
                points[ti].locations[std::size_t(
                    (row - mc.firstRow) / mc.rowStride)];
            EXPECT_EQ(got.row, row);
            EXPECT_EQ(got.flipped, expect.flipped);
            EXPECT_EQ(got.acmin, expect.acmin);
            EXPECT_EQ(flipsOf(got.flips), flipsOf(expect.flips));
        }
    }
}

} // namespace
} // namespace rp
