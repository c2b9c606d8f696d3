/**
 * @file
 * fuzz.* — frequency-based attack-pattern search experiments.
 *
 * The scenario axis the paper itself never explored: instead of the
 * fixed single/double-sided patterns, a Blacksmith/ZenHammer-style
 * fuzzer searches the frequency-phased genome space (src/fuzz/) for
 * patterns that minimize the activation cost to the first bitflip
 * against a configured mitigation.
 *
 *  - fuzz.random:        pure random sampling vs one mitigation;
 *  - fuzz.evolve:        mutation-based evolutionary refinement;
 *  - fuzz.bypass_matrix: one search per mitigation in {none, trr,
 *    graphene, para}, emitting the `table.bypass_resistance` artifact
 *    (best pattern + minimum cost per mitigation, scored against the
 *    paper's fixed double-sided baseline).
 *
 * All three are deterministic at any --threads count for a fixed
 * --seed; CI diffs the CSV artifacts at 1 vs 4 threads.
 */

#include "fuzz/experiments.h"

#include "api/context.h"
#include "fuzz/search.h"

namespace rp::fuzz {
namespace {

void
declareFuzzOptions(api::ConfigSchema &schema)
{
    schema.add({"trials", api::OptionType::Int, "48",
                "search trials (evolve: total evaluation budget)", 1.0,
                true});
    schema.add({"population", api::OptionType::Int, "16",
                "evolve: genomes per generation", 1.0, true});
    schema.add({"budget", api::OptionType::Int, "8",
                "per-trial pattern budget in ms", 1.0, true});
    schema.add({"trh", api::OptionType::Int, "1000",
                "base RowHammer threshold sizing Graphene/PARA", 1.0,
                true});
}

void
declareMitigationOption(api::ConfigSchema &schema)
{
    schema.add({"mitigation", api::OptionType::String, "graphene",
                "mitigation to search against: "
                "none | trr | graphene | para"});
}

EvalConfig
evalConfigOf(api::ExperimentContext &ctx)
{
    EvalConfig ec;
    ec.module = ctx.moduleConfig(device::dieS8GbB(), 50.0);
    ec.budget = Time(ctx.config().getInt("budget")) * units::MS;
    ec.trh = std::uint32_t(ctx.config().getInt("trh"));
    return ec;
}

SearchSpec
searchSpecOf(api::ExperimentContext &ctx, const EvalConfig &ec,
             Strategy strategy)
{
    SearchSpec spec;
    spec.strategy = strategy;
    spec.trials = ctx.config().getInt("trials");
    spec.population = ctx.config().getInt("population");
    spec.bank = ec.module.bank;
    spec.baseRow = ec.module.firstRow;
    spec.rootSeed = ctx.seed();
    return spec;
}

std::string
costCell(std::uint64_t cost)
{
    return cost == Score::kNoFlip ? "inf" : std::to_string(cost);
}

void
appendScoreCells(std::vector<std::string> &row, const Score &s)
{
    row.push_back(s.flipped ? "yes" : "no");
    row.push_back(costCell(s.minCostActs));
    row.push_back(std::to_string(s.flipCount));
    row.push_back(std::to_string(s.rowsCovered));
    row.push_back(std::to_string(s.totalActs));
    row.push_back(std::to_string(s.preventiveRefreshes));
}

const std::vector<std::string> kScoreHeader = {
    "flipped", "min cost acts", "flips",
    "rows",    "total acts",    "preventive refreshes"};

/** CLI-facing kind lookup: ConfigError (exit 2), not fatal(). */
MitigationKind
mitigationOptionOf(api::ExperimentContext &ctx)
{
    const std::string name = ctx.config().getString("mitigation");
    for (auto kind : allMitigationKinds()) {
        if (name == mitigationKindName(kind))
            return kind;
    }
    throw api::ConfigError("unknown --mitigation '" + name +
                           "' (expected none|trr|graphene|para)");
}

void
runFuzzSearch(api::ExperimentContext &ctx, Strategy strategy)
{
    const auto ec = evalConfigOf(ctx);
    const auto kind = mitigationOptionOf(ctx);
    const Evaluator evaluator(ec, kind);
    const Searcher searcher(evaluator, ctx.engine());
    const auto spec = searchSpecOf(ctx, ec, strategy);

    const auto best = searcher.run(spec);
    const auto ds_base =
        evaluator.evaluate(fixedDoubleSided(spec.bank, spec.baseRow));

    api::Dataset table(std::string("Best pattern (") +
                       strategyName(strategy) + " search vs " +
                       mitigationKindName(kind) + ")");
    std::vector<std::string> header = {"candidate", "pattern"};
    header.insert(header.end(), kScoreHeader.begin(),
                  kScoreHeader.end());
    table.header(header);
    std::vector<std::string> row = {"searched best", best.spec.key()};
    appendScoreCells(row, best.score);
    table.row(row);
    row = {"fixed double-sided",
           fixedDoubleSided(spec.bank, spec.baseRow).key()};
    appendScoreCells(row, ds_base);
    table.row(row);
    ctx.emit(table);
    ctx.notef("%d trials, seed %llu, budget %d ms\n", spec.trials,
              (unsigned long long)spec.rootSeed,
              ctx.config().getInt("budget"));
}

void
runFuzzRandom(api::ExperimentContext &ctx)
{
    runFuzzSearch(ctx, Strategy::Random);
}

void
runFuzzEvolve(api::ExperimentContext &ctx)
{
    runFuzzSearch(ctx, Strategy::Evolve);
}

void
runFuzzBypassMatrix(api::ExperimentContext &ctx)
{
    const auto ec = evalConfigOf(ctx);
    const std::string sname = ctx.config().getString("strategy");
    if (sname != "random" && sname != "evolve")
        throw api::ConfigError("unknown --strategy '" + sname +
                               "' (expected random | evolve)");
    const auto strategy =
        sname == "random" ? Strategy::Random : Strategy::Evolve;

    api::Dataset table("table.bypass_resistance");
    std::vector<std::string> header = {"mitigation", "best pattern"};
    header.insert(header.end(), kScoreHeader.begin(),
                  kScoreHeader.end());
    header.push_back("fixed ds min cost");
    header.push_back("beats fixed ds");
    table.header(header);

    int bypasses = 0;
    for (auto kind : allMitigationKinds()) {
        const Evaluator evaluator(ec, kind);
        const Searcher searcher(evaluator, ctx.engine());
        const auto spec = searchSpecOf(ctx, ec, strategy);
        const auto best = searcher.run(spec);
        const auto ds_base = evaluator.evaluate(
            fixedDoubleSided(spec.bank, spec.baseRow));

        const bool beats = best.score.minCostActs < ds_base.minCostActs;
        bypasses += beats ? 1 : 0;
        std::vector<std::string> row = {mitigationKindName(kind),
                                        best.spec.key()};
        appendScoreCells(row, best.score);
        row.push_back(costCell(ds_base.minCostActs));
        row.push_back(beats ? "yes" : "no");
        table.row(row);
    }
    ctx.emit(table);
    ctx.notef("searched pattern beats the fixed double-sided baseline "
              "on min-cost against %d of %d mitigations\n",
              bypasses, int(allMitigationKinds().size()));
}

} // namespace

void
registerFuzzExperiments()
{
    static const bool once = [] {
        auto &registry = api::ExperimentRegistry::instance();
        registry.add(
            {{"fuzz.random",
              "Fuzz: random pattern search vs one mitigation",
              "attack-pattern search beyond the paper's fixed patterns",
              "fuzz"},
             [](api::ConfigSchema &schema) {
                 declareFuzzOptions(schema);
                 declareMitigationOption(schema);
             },
             runFuzzRandom});
        registry.add(
            {{"fuzz.evolve",
              "Fuzz: evolutionary pattern search vs one mitigation",
              "attack-pattern search beyond the paper's fixed patterns",
              "fuzz"},
             [](api::ConfigSchema &schema) {
                 declareFuzzOptions(schema);
                 declareMitigationOption(schema);
             },
             runFuzzEvolve});
        registry.add(
            {{"fuzz.bypass_matrix",
              "Fuzz: bypass-resistance table over all mitigations",
              "attack-pattern search beyond the paper's fixed patterns",
              "fuzz"},
             [](api::ConfigSchema &schema) {
                 declareFuzzOptions(schema);
                 schema.add({"strategy", api::OptionType::String, "evolve",
                             "search strategy: random | evolve"});
             },
             runFuzzBypassMatrix});
        return true;
    }();
    (void)once;
}

} // namespace rp::fuzz
