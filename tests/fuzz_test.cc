/**
 * @file
 * Tests of the src/fuzz/ attack-pattern search engine: genome
 * compilation pinned byte-identical to the fixed paper patterns,
 * shared aggressor placement, per-operator mutation validity, every
 * Score field pinned on fixed genomes against each mitigation, search
 * determinism at 1 vs 4 threads, the Graphene-bypass acceptance
 * property, and the fuzz.bypass_matrix CLI smoke path.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "api/cli.h"
#include "chr/export.h"
#include "fuzz/experiments.h"
#include "fuzz/search.h"

namespace rp::fuzz {
namespace {

namespace fs = std::filesystem;
using namespace rp::literals;

/** Register the real fuzz.* experiments for the CLI smoke tests. */
struct RegisterFuzz
{
    RegisterFuzz() { registerFuzzExperiments(); }
};
const RegisterFuzz register_fuzz;

bool
sameNodes(const std::vector<bender::ProgramNode> &a,
          const std::vector<bender::ProgramNode> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto &x = a[i];
        const auto &y = b[i];
        if (x.kind != y.kind || x.cmd != y.cmd || x.bank != y.bank ||
            x.row != y.row || x.column != y.column ||
            x.duration != y.duration || x.count != y.count ||
            !sameNodes(x.body, y.body))
            return false;
    }
    return true;
}

dram::TimingParams
timingOf()
{
    bender::PlatformConfig pc;
    pc.die = device::dieS8GbB();
    return bender::TestPlatform(pc).timing();
}

core::ExperimentEngine::Options
withThreads(int n)
{
    core::ExperimentEngine::Options opts;
    opts.numThreads = n;
    return opts;
}

EvalConfig
tinyEvalConfig(Time budget = 2_ms)
{
    EvalConfig ec;
    ec.module.die = device::dieS8GbB();
    ec.budget = budget;
    return ec;
}

// ---- genome + compilation -------------------------------------------

TEST(FuzzPattern, FixedGenomesMatchPaperLayouts)
{
    const auto ss = fixedSingleSided(1, 64);
    const auto ds = fixedDoubleSided(1, 64);
    const auto lss = chr::makeLayout(chr::AccessKind::SingleSided, 1, 64);
    const auto lds = chr::makeLayout(chr::AccessKind::DoubleSided, 1, 64);

    EXPECT_EQ(ss.layout().aggressors, lss.aggressors);
    EXPECT_EQ(ss.layout().victims, lss.victims);
    EXPECT_EQ(ds.layout().aggressors, lds.aggressors);
    EXPECT_EQ(ds.layout().victims, lds.victims);
}

TEST(FuzzPattern, MakeAggressorLayoutMatchesMakeLayout)
{
    for (int row0 : {8, 64, 1000}) {
        const auto a =
            chr::makeLayout(chr::AccessKind::SingleSided, 1, row0);
        const auto b = chr::makeAggressorLayout(1, {row0});
        EXPECT_EQ(a.aggressors, b.aggressors);
        EXPECT_EQ(a.victims, b.victims);

        const auto c =
            chr::makeLayout(chr::AccessKind::DoubleSided, 2, row0);
        const auto d = chr::makeAggressorLayout(2, {row0, row0 + 2});
        EXPECT_EQ(c.aggressors, d.aggressors);
        EXPECT_EQ(c.victims, d.victims);
    }
}

TEST(FuzzPattern, DegenerateGenomesCompileByteIdentical)
{
    const auto timing = timingOf();
    const PatternBuilder builder(timing);
    const Time t_on = dwellGrid()[0];

    // Odd and even totals cover the partial-period tail path.
    for (std::uint64_t total : {1u, 2u, 7u, 64u}) {
        const auto ss = fixedSingleSided(1, 64);
        const auto ref_ss = chr::makePressProgram(
            ss.layout(), t_on, total, timing);
        EXPECT_TRUE(sameNodes(builder.build(ss, total).nodes(),
                              ref_ss.nodes()))
            << "single-sided diverged at total=" << total;

        const auto ds = fixedDoubleSided(1, 64);
        const auto ref_ds = chr::makePressProgram(
            ds.layout(), t_on, total, timing);
        EXPECT_TRUE(sameNodes(builder.build(ds, total).nodes(),
                              ref_ds.nodes()))
            << "double-sided diverged at total=" << total;
    }
}

TEST(FuzzPattern, PeriodActsMatchesDeclaredShape)
{
    PatternSpec spec;
    spec.slots = {
        {0, 1, 0, 2, 0}, // every round, twice
        {2, 4, 1, 1, 3}, // rounds 1, 5 of 4-round period
        {5, 2, 0, 1, 1}, // rounds 0, 2
    };
    ASSERT_TRUE(validPattern(spec));
    EXPECT_EQ(periodRounds(spec), 4);
    const auto acts = periodActs(spec);
    EXPECT_EQ(std::uint64_t(acts.size()), actsPerPeriod(spec));
    // Round 0: slot0 x2, slot2; round 1: slot0 x2, slot1; ...
    const std::vector<int> rows = {
        64, 64, 69,       // round 0
        64, 64, 66,       // round 1
        64, 64, 69,       // round 2
        64, 64,           // round 3
    };
    ASSERT_EQ(acts.size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(acts[i].first, rows[i]) << "act " << i;
    EXPECT_EQ(acts[2].second, dwellGrid()[1]);
    EXPECT_EQ(acts[5].second, dwellGrid()[3]);
}

TEST(FuzzPattern, KeyRoundTripsAndHashIsStable)
{
    const auto ds = fixedDoubleSided(1, 64);
    EXPECT_EQ(ds.key(), "b1@64:CB|o0.f1.p0.i1.d0|o2.f1.p0.i1.d0");
    EXPECT_EQ(ds.hash(), fixedDoubleSided(1, 64).hash());
    EXPECT_NE(ds.hash(), fixedSingleSided(1, 64).hash());
}

// ---- random sampling + mutation operators ---------------------------

TEST(FuzzSearch, RandomPatternsAlwaysValid)
{
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        Rng rng(hashU64(42, seed));
        const auto spec = randomPattern(rng, 1, 64);
        EXPECT_TRUE(validPattern(spec)) << spec.key();
    }
}

TEST(FuzzSearch, EveryMutationOperatorPreservesValidity)
{
    for (MutationOp op : allMutationOps()) {
        for (std::uint64_t seed = 0; seed < 100; ++seed) {
            Rng rng(hashU64(7, seed, std::uint64_t(op)));
            auto spec = randomPattern(rng, 1, 64);
            applyMutation(spec, op, rng);
            EXPECT_TRUE(validPattern(spec))
                << "op " << int(op) << " seed " << seed << ": "
                << spec.key();
        }
    }
}

TEST(FuzzSearch, MutationOperatorsReachTheirAxis)
{
    // Sanity that the named operators actually move their own axis at
    // least once over many draws (guards against no-op wirings).
    bool off_changed = false, dwell_changed = false,
         grew = false, shrank = false;
    for (std::uint64_t seed = 0; seed < 100; ++seed) {
        Rng rng(hashU64(9, seed));
        auto spec = randomPattern(rng, 1, 64);
        auto before = spec;
        applyMutation(spec, MutationOp::RowOffset, rng);
        off_changed |= !(spec == before);
        before = spec;
        applyMutation(spec, MutationOp::Dwell, rng);
        dwell_changed |= !(spec == before);
        before = spec;
        applyMutation(spec, MutationOp::AddSlot, rng);
        grew |= spec.slots.size() > before.slots.size();
        before = spec;
        applyMutation(spec, MutationOp::DropSlot, rng);
        shrank |= spec.slots.size() < before.slots.size();
    }
    EXPECT_TRUE(off_changed);
    EXPECT_TRUE(dwell_changed);
    EXPECT_TRUE(grew);
    EXPECT_TRUE(shrank);
}

// ---- evaluation + search --------------------------------------------

TEST(FuzzEvaluator, UnmitigatedDoubleSidedFlipsWithinBudget)
{
    const Evaluator evaluator(tinyEvalConfig(30_ms),
                              MitigationKind::None);
    // Deep-dwell double-sided: the paper's strongest fixed pattern.
    const auto score =
        evaluator.evaluate(fixedDoubleSided(1, 64, /*dwell_idx=*/4));
    EXPECT_TRUE(score.flipped);
    EXPECT_LT(score.minCostActs, Score::kNoFlip);
    EXPECT_LE(score.minCostActs, score.totalActs);
    EXPECT_GT(score.flipCount, 0u);
    EXPECT_GT(score.rowsCovered, 0);
    EXPECT_EQ(score.preventiveRefreshes, 0u);
}

TEST(FuzzEvaluator, ScoreOrderingIsLexicographic)
{
    Score none;
    Score cheap;
    cheap.flipped = true;
    cheap.minCostActs = 100;
    cheap.flipCount = 1;
    Score costly = cheap;
    costly.minCostActs = 500;
    costly.flipCount = 10;

    EXPECT_TRUE(betterScore(cheap, none));
    EXPECT_TRUE(betterScore(cheap, costly)); // cost beats flip count
    EXPECT_FALSE(betterScore(none, cheap));
    EXPECT_FALSE(betterScore(cheap, cheap));
}

/** Every Score field of one evaluation, as recorded on a fixed genome. */
struct PinnedScore
{
    MitigationKind kind;
    bool flipped;
    std::uint64_t minCostActs;
    std::uint64_t flipCount;
    int rowsCovered;
    std::uint64_t totalActs;
    std::uint64_t preventiveRefreshes;
};

void
expectPinnedScores(const PatternSpec &spec, Time budget,
                   const std::vector<PinnedScore> &pins)
{
    for (const PinnedScore &pin : pins) {
        SCOPED_TRACE(mitigationKindName(pin.kind));
        const Score s =
            Evaluator(tinyEvalConfig(budget), pin.kind).evaluate(spec);
        EXPECT_EQ(s.flipped, pin.flipped);
        EXPECT_EQ(s.minCostActs, pin.minCostActs);
        EXPECT_EQ(s.flipCount, pin.flipCount);
        EXPECT_EQ(s.rowsCovered, pin.rowsCovered);
        EXPECT_EQ(s.totalActs, pin.totalActs);
        EXPECT_EQ(s.preventiveRefreshes, pin.preventiveRefreshes);
    }
}

// Golden scores: any change to the evaluator, the platform, or a
// mitigation model that moves one count shows up here.

TEST(FuzzEvaluator, PinnedScoresOfDoubleSidedDeepDwell)
{
    // Flips unmitigated; TRR, Graphene and PARA each refresh it away.
    constexpr std::uint64_t no_flip = Score::kNoFlip;
    expectPinnedScores(
        fixedDoubleSided(1, 64, /*dwell_idx=*/3), 30_ms,
        {
            {MitigationKind::None, true, 19342, 1, 1, 19342, 0},
            {MitigationKind::Trr, false, no_flip, 0, 0, 19342, 26943},
            {MitigationKind::Graphene, false, no_flip, 0, 0, 19342, 232},
            {MitigationKind::Para, false, no_flip, 0, 0, 19342, 584},
        });
}

TEST(FuzzEvaluator, PinnedScoresOfMultiSlotGenome)
{
    // Flips under every mitigation; TRR doubles its cost.
    PatternSpec spec;
    spec.dataPattern = chr::DataPattern::RowStripeI;
    spec.slots = {{2, 8, 5, 3, 7}, {7, 2, 1, 4, 1}, {4, 2, 0, 4, 7}};
    ASSERT_EQ(spec.key(),
              "b1@64:RSI|o2.f8.p5.i3.d7|o7.f2.p1.i4.d1|o4.f2.p0.i4.d7");
    expectPinnedScores(
        spec, 30_ms,
        {
            {MitigationKind::None, true, 70, 263, 1, 175, 0},
            {MitigationKind::Trr, true, 140, 1, 1, 175, 426},
            {MitigationKind::Graphene, true, 70, 263, 1, 175, 0},
            {MitigationKind::Para, true, 70, 263, 1, 175, 6},
        });
}

TEST(FuzzSearch, RandomSearchDeterministicAcrossThreadCounts)
{
    const Evaluator evaluator(tinyEvalConfig(), MitigationKind::Trr);
    SearchSpec spec;
    spec.strategy = Strategy::Random;
    spec.trials = 8;
    spec.rootSeed = 3;

    core::ExperimentEngine serial(withThreads(1));
    core::ExperimentEngine parallel(withThreads(4));
    const auto a = Searcher(evaluator, serial).run(spec);
    const auto b = Searcher(evaluator, parallel).run(spec);

    EXPECT_EQ(a.spec.key(), b.spec.key());
    EXPECT_EQ(a.score.minCostActs, b.score.minCostActs);
    EXPECT_EQ(a.score.flipCount, b.score.flipCount);
    EXPECT_EQ(a.score.totalActs, b.score.totalActs);
    EXPECT_EQ(a.score.preventiveRefreshes, b.score.preventiveRefreshes);
}

TEST(FuzzSearch, EvolveSearchDeterministicAcrossThreadCounts)
{
    const Evaluator evaluator(tinyEvalConfig(), MitigationKind::Para);
    SearchSpec spec;
    spec.strategy = Strategy::Evolve;
    spec.trials = 12;
    spec.population = 6;
    spec.rootSeed = 5;

    core::ExperimentEngine serial(withThreads(1));
    core::ExperimentEngine parallel(withThreads(4));
    const auto a = Searcher(evaluator, serial).run(spec);
    const auto b = Searcher(evaluator, parallel).run(spec);

    EXPECT_EQ(a.spec.key(), b.spec.key());
    EXPECT_EQ(a.score.minCostActs, b.score.minCostActs);
    EXPECT_EQ(a.score.flipCount, b.score.flipCount);
}

TEST(FuzzSearch, SearchedPatternBeatsFixedDoubleSidedUnderGraphene)
{
    // The headline acceptance property: against a Graphene instance
    // sized for the base threshold, a searched pattern reaches a flip
    // at strictly lower activation cost than the paper's fixed 36 ns
    // double-sided pattern (which Graphene keeps refreshing away).
    const Evaluator evaluator(tinyEvalConfig(30_ms),
                              MitigationKind::Graphene);
    const auto ds_base = evaluator.evaluate(fixedDoubleSided(1, 64));

    core::ExperimentEngine engine(withThreads(4));
    SearchSpec spec;
    spec.strategy = Strategy::Random;
    spec.trials = 16;
    spec.rootSeed = 1;
    const auto best = Searcher(evaluator, engine).run(spec);

    EXPECT_TRUE(best.score.flipped) << best.spec.key();
    EXPECT_LT(best.score.minCostActs, ds_base.minCostActs)
        << "searched " << best.spec.key();
}

// ---- CLI smoke -------------------------------------------------------

int
cli(const std::vector<std::string> &args, std::string *out_text = nullptr)
{
    std::ostringstream out, err;
    const int rc = api::runCli(args, out, err);
    if (out_text)
        *out_text = out.str() + err.str();
    return rc;
}

std::string
slurp(const fs::path &p)
{
    std::ifstream in(p);
    std::stringstream body;
    body << in.rdbuf();
    return body.str();
}

TEST(FuzzCli, BypassMatrixSmokeAndThreadCountDeterminism)
{
    const fs::path base =
        fs::path(::testing::TempDir()) / "rp_fuzz_matrix";
    fs::remove_all(base);
    const std::vector<std::string> common = {
        "run",       "fuzz.bypass_matrix",
        "--trials",  "4",
        "--population", "4",
        "--budget",  "2",
        "--seed",    "7",
        "--format",  "csv",
    };

    auto run_with_threads = [&](const std::string &threads) {
        auto args = common;
        args.insert(args.end(), {"--threads", threads, "--out",
                                 (base / ("t" + threads)).string()});
        return cli(args);
    };
    ASSERT_EQ(run_with_threads("1"), 0);
    ASSERT_EQ(run_with_threads("4"), 0);

    const fs::path csv1 = base / "t1" / "fuzz.bypass_matrix" /
                          "table_bypass_resistance.csv";
    const fs::path csv4 = base / "t4" / "fuzz.bypass_matrix" /
                          "table_bypass_resistance.csv";
    ASSERT_TRUE(fs::exists(csv1));
    ASSERT_TRUE(fs::exists(csv4));
    const std::string body = slurp(csv1);
    // Identical artifact bytes at 1 vs 4 threads (also CI-enforced on
    // the real binary).
    EXPECT_EQ(body, slurp(csv4));

    const auto records = chr::parseCsv(body);
    ASSERT_EQ(records.size(), 5u); // header + one row per mitigation
    for (const char *name : {"none", "trr", "graphene", "para"}) {
        EXPECT_NE(body.find(name), std::string::npos) << name;
    }
}

TEST(FuzzCli, RandomAndEvolveRunWithTinyBudgets)
{
    std::string text;
    EXPECT_EQ(cli({"run", "fuzz.random", "--trials", "2", "--budget",
                   "1", "--mitigation", "none", "--threads", "2"},
                  &text),
              0);
    EXPECT_NE(text.find("searched best"), std::string::npos);
    EXPECT_EQ(cli({"run", "fuzz.evolve", "--trials", "4",
                   "--population", "2", "--budget", "1",
                   "--mitigation", "trr", "--threads", "2"},
                  &text),
              0);
    EXPECT_EQ(cli({"run", "fuzz.random", "--mitigation", "bogus",
                   "--trials", "1"}),
              2);
    EXPECT_EQ(cli({"run", "fuzz.bypass_matrix", "--strategy", "bogus",
                   "--trials", "1"}),
              2);
}

} // namespace
} // namespace rp::fuzz
