/**
 * @file
 * Mitigation-aware objective layer of the pattern search.
 *
 * An Evaluator scores one genome against one configured mitigation
 * (none / TRR-like / Graphene / PARA) on a private simulated DIMM:
 *
 *  1. the genome's act stream is pre-simulated through the mitigation
 *     model to find every preventive-refresh intervention (PARA's
 *     draws are seeded from (module seed, genome hash), so the whole
 *     evaluation is a pure function of the genome — the property the
 *     1-vs-N-thread determinism guarantee rests on);
 *  2. the compiled program then runs on the platform in counted
 *     period chunks (eligible for the loop fast-forward), breaking at
 *     intervention periods to apply the preventive refreshes and at
 *     geometrically spaced checkpoints to probe for the first bitflip
 *     with the non-destructive Chip::rowWouldFlip gate (an O(1)
 *     ThresholdStore cannot-flip proof before any cell is evaluated);
 *  3. final scoring materializes every victim row with the word-mask
 *     full scan and reports flip count and per-row coverage.
 *
 * Interventions and checkpoints are applied at pattern-period
 * granularity: the modelled controller flushes preventive refreshes
 * at the end of the period in which they were requested, and
 * minimum-cost-to-first-flip is measured in activations at checkpoint
 * resolution.
 */

#ifndef ROWPRESS_FUZZ_EVALUATOR_H
#define ROWPRESS_FUZZ_EVALUATOR_H

#include <limits>

#include "chr/experiments.h"
#include "fuzz/pattern.h"

namespace rp::fuzz {

/** The mitigation a pattern is scored against. */
enum class MitigationKind
{
    None,
    Trr,
    Graphene,
    Para,
};

const char *mitigationKindName(MitigationKind kind);

/** All kinds, in bypass-matrix presentation order. */
const std::vector<MitigationKind> &allMitigationKinds();

/** Evaluation parameters shared by every trial of a search. */
struct EvalConfig
{
    chr::ModuleConfig module;  ///< Die, bank, temperature, seed.
    Time budget = 60 * units::MS;  ///< Pattern wall-clock budget.
    /** Base RowHammer threshold sizing Graphene/PARA (paper Table 3). */
    std::uint32_t trh = 1000;
};

/** Objective values of one (genome, mitigation) evaluation. */
struct Score
{
    static constexpr std::uint64_t kNoFlip =
        std::numeric_limits<std::uint64_t>::max();

    bool flipped = false;
    /** Activations issued when the first flip was observed (kNoFlip
        if the pattern never flipped within the budget). */
    std::uint64_t minCostActs = kNoFlip;
    std::uint64_t flipCount = 0;   ///< Total flipped bits at budget end.
    int rowsCovered = 0;           ///< Victim rows with >= 1 flip.
    std::uint64_t totalActs = 0;   ///< Activations issued in budget.
    std::uint64_t preventiveRefreshes = 0;
};

/**
 * Strict "a beats b": flips beat no-flips, then lower minimum cost,
 * then more flips, then wider row coverage.  Ties are broken by the
 * caller on the canonical genome key, so search results are totally
 * ordered and thread-count independent.
 */
bool betterScore(const Score &a, const Score &b);

/** Scores genomes against one mitigation on private platforms. */
class Evaluator
{
  public:
    Evaluator(EvalConfig cfg, MitigationKind kind)
        : cfg_(cfg), kind_(kind)
    {
    }

    const EvalConfig &config() const { return cfg_; }
    MitigationKind kind() const { return kind_; }

    /** Pure function of (config, kind, genome). */
    Score evaluate(const PatternSpec &spec) const;

  private:
    EvalConfig cfg_;
    MitigationKind kind_;
};

} // namespace rp::fuzz

#endif // ROWPRESS_FUZZ_EVALUATOR_H
