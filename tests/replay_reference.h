/**
 * @file
 * The ACmin / tAggONmin searches with every bisection probe replayed
 * on the platform: initLayout, the press program, and checkRow of
 * every victim, one attempt after another.  This is the search the
 * production path (chr::findAcmin / chr::findTAggOnMin, whose probes
 * the AttemptOracle answers) must reproduce bit for bit, including the
 * state it leaves the platform in; the differential tests compare the
 * two.  Keep it the plain, obviously-correct loop.
 */

#ifndef ROWPRESS_TESTS_REPLAY_REFERENCE_H
#define ROWPRESS_TESTS_REPLAY_REFERENCE_H

#include <algorithm>
#include <utility>

#include "chr/acmin.h"

namespace rp::ref {

/**
 * The paper's modified bisection: each of cfg.repeats repeats probes
 * @p hi and, if that flips, bisects (@p lo, @p hi] down to
 * cfg.accuracy (and at least @p step).  @p improved(v) runs whenever
 * a repeat ends at a new minimum v.  Returns whether any repeat
 * flipped.
 */
template <typename T, typename FlipsAt, typename Improved>
bool
bisect(T lo, T hi, T step, const chr::SearchConfig &cfg, FlipsAt flips_at,
       Improved improved)
{
    bool found = false;
    T best = hi;
    for (int rep = 0; rep < cfg.repeats; ++rep) {
        if (!flips_at(hi))
            continue;
        T l = lo;
        T h = hi;
        while (h - l > std::max<T>(step, T(cfg.accuracy * double(h)))) {
            const T mid = l + (h - l) / 2;
            if (flips_at(mid))
                h = mid;
            else
                l = mid;
        }
        if (!found || h < best) {
            found = true;
            best = h;
            improved(h);
        }
    }
    return found;
}

inline chr::AcminResult
findAcmin(bender::TestPlatform &platform, const chr::RowLayout &layout,
          chr::DataPattern pattern, Time t_agg_on,
          const chr::SearchConfig &cfg = {})
{
    const std::uint64_t max_acts = chr::maxActsWithinBudget(
        t_agg_on, platform.timing(), platform.cmdGap(), cfg.budget);
    if (max_acts == 0)
        return {};

    chr::AcminResult best;
    std::vector<chr::VictimFlip> last_flips; // of the last flipping probe
    best.flipped = bisect<std::uint64_t>(
        0, max_acts, 1, cfg,
        [&](std::uint64_t acts) {
            auto res = chr::runPressAttempt(platform, layout, pattern,
                                            t_agg_on, acts);
            if (!res.any())
                return false;
            last_flips = std::move(res.flips);
            return true;
        },
        [&](std::uint64_t acmin) {
            best.acmin = acmin;
            best.flips = last_flips;
        });
    return best;
}

inline chr::TAggOnMinResult
findTAggOnMin(bender::TestPlatform &platform, const chr::RowLayout &layout,
              chr::DataPattern pattern, std::uint64_t total_acts,
              const chr::SearchConfig &cfg = {})
{
    const auto &timing = platform.timing();
    const Time overhead = chr::pressActPeriod(0, timing, platform.cmdGap());
    const Time max_on = cfg.budget / Time(total_acts) - overhead;
    if (max_on <= timing.tRAS)
        return {};

    chr::TAggOnMinResult best;
    best.flipped = bisect<Time>(
        timing.tRAS, max_on, Time(units::NS), cfg,
        [&](Time t_on) {
            return chr::runPressAttempt(platform, layout, pattern, t_on,
                                        total_acts)
                .any();
        },
        [&](Time t_min) { best.tAggOnMin = t_min; });
    return best;
}

} // namespace rp::ref

#endif // ROWPRESS_TESTS_REPLAY_REFERENCE_H
