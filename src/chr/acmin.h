/**
 * @file
 * ACmin and tAggONmin search algorithms (paper section 4.1).
 *
 * ACmin is found with the paper's modified bisection method: start
 * from the maximum activation count that fits the 60 ms experiment
 * budget (strictly inside the 64 ms refresh window); if that produces
 * no bitflip the location is recorded as not flippable at this tAggON.
 * Otherwise bisect to 1 % relative accuracy.  Each search is repeated
 * (default five times, like the paper) and the minimum is reported.
 */

#ifndef ROWPRESS_CHR_ACMIN_H
#define ROWPRESS_CHR_ACMIN_H

#include <cstdint>
#include <vector>

#include "chr/patterns.h"
#include "device/cell_model.h"

namespace rp::chr {

/** One bitflip observed in a victim row. */
struct VictimFlip
{
    int victimRow;
    device::FlipRecord flip;

    /**
     * Stable identity for overlap analyses: row in the high 32 bits,
     * bit in the low 32 — collision-free for any in-range bit (a
     * 20-bit field would alias bits >= 2^20 into neighboring rows)
     * and ordered exactly like (victimRow, bit).
     */
    std::uint64_t
    id() const
    {
        return (std::uint64_t(std::uint32_t(victimRow)) << 32) |
               std::uint32_t(flip.bit);
    }
};

/** Outcome of running one access-pattern attempt. */
struct AttemptResult
{
    std::vector<VictimFlip> flips;
    Time elapsed = 0;

    bool any() const { return !flips.empty(); }
};

/**
 * Initialize the layout's rows per @p pattern, run the press pattern
 * with @p total_acts activations of @p t_agg_on each, and inspect all
 * victim rows.
 */
AttemptResult runPressAttempt(bender::TestPlatform &platform,
                              const RowLayout &layout, DataPattern pattern,
                              Time t_agg_on, std::uint64_t total_acts,
                              bool full_scan = false);

/**
 * runPressAttempt variant that full-scans only @p victims (a subset
 * of the layout's victim list): maxActivationAttempts scans one
 * victim per engine task.  Scanning a subset does not change any
 * row's result — each row's dose is evaluated independently — so
 * concatenating per-victim results in victim order reproduces the
 * full attempt bit-for-bit.
 */
AttemptResult runPressAttemptOn(bender::TestPlatform &platform,
                                const RowLayout &layout,
                                DataPattern pattern, Time t_agg_on,
                                std::uint64_t total_acts,
                                const std::vector<int> &victims);

/** Search configuration (paper defaults). */
struct SearchConfig
{
    Time budget = 60 * units::MS;
    double accuracy = 0.01;
    int repeats = 5;
};

/** Result of an ACmin search at one (location, tAggON) point. */
struct AcminResult
{
    bool flipped = false;
    std::uint64_t acmin = 0;
    /** Flips observed at the reported ACmin. */
    std::vector<VictimFlip> flips;
};

/**
 * Bisection ACmin search at fixed @p t_agg_on.  Every probe is one
 * runPressAttempt on @p platform, answered by the AttemptOracle from
 * the platform's state at the start of the search; the platform is
 * left as executing every probe would have left it.
 */
AcminResult findAcmin(bender::TestPlatform &platform,
                      const RowLayout &layout, DataPattern pattern,
                      Time t_agg_on, const SearchConfig &cfg = {});

/** Result of a tAggONmin search at fixed activation count. */
struct TAggOnMinResult
{
    bool flipped = false;
    Time tAggOnMin = 0;
};

/**
 * Bisection tAggONmin search at fixed @p total_acts (Figs. 9, 15),
 * probed like findAcmin.
 */
TAggOnMinResult findTAggOnMin(bender::TestPlatform &platform,
                              const RowLayout &layout, DataPattern pattern,
                              std::uint64_t total_acts,
                              const SearchConfig &cfg = {});

} // namespace rp::chr

#endif // ROWPRESS_CHR_ACMIN_H
