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
 *  - the word-mask full scan (per-row occupancy masks + per-cell
 *    uniform-quantile prefilter) must be bit-identical to the plain
 *    per-bit reference loop (evaluateFullScanReference) at any dose,
 *    and the (location, victim-chunk) BER task chunking must merge
 *    back to the serial per-location scan;
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
                    auto fast =
                        model.evaluate(1, row, ctx, true, temp);
                    std::vector<device::FlipRecord> ref;
                    model.evaluateFullScanReference(1, row, ctx, temp,
                                                    ref);
                    ASSERT_EQ(fast.size(), ref.size())
                        << die.id << " press=" << r.press
                        << " hammer=" << r.hammer << " row=" << row;
                    for (std::size_t i = 0; i < ref.size(); ++i) {
                        EXPECT_EQ(fast[i].bit, ref[i].bit);
                        EXPECT_EQ(fast[i].oneToZero, ref[i].oneToZero);
                        EXPECT_EQ(fast[i].mechanism, ref[i].mechanism);
                    }
                    flips_seen += ref.size();
                }
            }
        }
        // The regimes must exercise real flips, not just empty scans.
        EXPECT_GT(flips_seen, 100u) << die.id;
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

TEST(FastPath, ChunkedAttemptsMatchSerialAttempts)
{
    // (location, victim-chunk) engine tasks against the serial
    // per-location scan, with more workers than locations so the
    // chunking actually splits victim lists.
    const auto mc = testConfig(3);
    const std::vector<int> rows = chr::baseRowsOf(mc);
    core::ExperimentEngine engine(
        [] {
            core::ExperimentEngine::Options o;
            o.numThreads = 4;
            return o;
        }());
    ASSERT_GT(engine.chunksPerTask(rows.size()), 1u);

    for (auto kind : {chr::AccessKind::SingleSided,
                      chr::AccessKind::DoubleSided}) {
        auto chunked = chr::maxActivationAttempts(
            mc, engine, rows, kind, chr::DataPattern::CheckerBoard,
            7800_ns);
        ASSERT_EQ(chunked.size(), rows.size());
        std::size_t total = 0;
        for (std::size_t li = 0; li < rows.size(); ++li) {
            chr::Module serial(chr::locationConfig(mc, rows[li]));
            auto expect = chr::maxActivationAttempt(
                serial, 0, kind, chr::DataPattern::CheckerBoard,
                7800_ns);
            EXPECT_EQ(flipsOf(chunked[li].flips), flipsOf(expect.flips))
                << chr::accessKindName(kind) << " row " << rows[li];
            EXPECT_EQ(chunked[li].elapsed, expect.elapsed);
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
    // The fig25-shaped pipeline (chunked max-activation attempts ->
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
