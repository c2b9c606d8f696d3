/**
 * @file
 * Overlap analysis between RowPress-, RowHammer-, and retention-
 * vulnerable cells (paper section 4.3, Figs. 10 and 11).
 */

#ifndef ROWPRESS_CHR_OVERLAP_H
#define ROWPRESS_CHR_OVERLAP_H

#include <vector>

#include "chr/experiments.h"

namespace rp::chr {

/** Overlap of the RowPress-vulnerable cell set at one tAggON. */
struct OverlapResult
{
    Time tAggOn = 0;
    std::size_t rpCells = 0;        ///< |RowPress-vulnerable set|.
    double withRowHammer = 0.0;     ///< |RP intersect RH| / |RP|.
    double withRetention = 0.0;     ///< |RP intersect retention| / |RP|.
};

/** Set of stable flip identities from a collection of victim flips. */
std::vector<std::uint64_t> flipIdSet(const std::vector<VictimFlip> &flips);

/** Fraction of @p a's elements also present in @p b (both sorted). */
double overlapFraction(const std::vector<std::uint64_t> &a,
                       const std::vector<std::uint64_t> &b);

/**
 * Overlap at ACmin (Fig. 10): for each tAggON, the cells that flip at
 * that tAggON's ACmin are compared against the RowHammer set (cells
 * flipping at tAggON = tRAS) and the retention-failure set.  The
 * retention reference and every (tAggON, location) cell run as one
 * engine task set, each cell on a fresh single-location Module.
 */
std::vector<OverlapResult>
overlapAtAcmin(const ModuleConfig &mc, core::ExperimentEngine &engine,
               const std::vector<Time> &t_agg_ons, AccessKind kind,
               const SearchConfig &cfg = {});

/**
 * Overlap at maximum activation count (Fig. 11): same comparison with
 * all patterns driven as hard as the 60 ms budget allows, in the
 * same task shape.
 */
std::vector<OverlapResult>
overlapAtMaxAc(const ModuleConfig &mc, core::ExperimentEngine &engine,
               const std::vector<Time> &t_agg_ons, AccessKind kind);

} // namespace rp::chr

#endif // ROWPRESS_CHR_OVERLAP_H
