#include "chr/acmin.h"

#include <algorithm>
#include <utility>

#include "chr/oracle.h"
#include "common/logging.h"

namespace rp::chr {

namespace {

void
collectRows(bender::TestPlatform &platform, int bank,
            const std::vector<int> &rows, bool full_scan, Time elapsed,
            AttemptResult &out)
{
    out.flips.clear();
    out.elapsed = elapsed;
    thread_local std::vector<device::FlipRecord> row_flips;
    for (int row : rows) {
        row_flips.clear();
        platform.checkRowInto(bank, row, full_scan, row_flips);
        for (const auto &f : row_flips)
            out.flips.push_back({row, f});
    }
}

/**
 * The probes of one search, answered by the AttemptOracle from the
 * platform's state at the start of the search.  flips() runs one
 * attempt and answers whether it flipped anything; keep() marks that
 * attempt as the one whose flips the search reports, and kept()
 * evaluates them again from its saved start.  finish() leaves the
 * platform as executing every probe would have: it executes the last
 * one, from that probe's start state.
 */
class Probes
{
  public:
    Probes(bender::TestPlatform &platform, const RowLayout &layout,
           DataPattern pattern)
        : oracle_(platform, layout, pattern)
    {
    }

    bool
    flips(Time t_agg_on, std::uint64_t total_acts)
    {
        last_ = {oracle_.next(), t_agg_on, total_acts};
        lastFlipped_ = oracle_.probe(t_agg_on, total_acts);
        probed_ = true;
        return lastFlipped_;
    }

    void keep() { kept_ = last_; }

    std::vector<VictimFlip>
    kept()
    {
        AttemptResult res;
        oracle_.flipsAt(kept_.start, kept_.tAggOn, kept_.acts, res);
        return std::move(res.flips);
    }

    void
    finish()
    {
        if (!probed_)
            return;
        const AttemptResult res =
            oracle_.runOnModule(last_.start, last_.tAggOn, last_.acts);
        // A cheap self-check of the oracle: the executed attempt must
        // take the time and give the answer it predicted.
        if (res.any() != lastFlipped_ ||
            last_.start.vnow + res.elapsed != oracle_.next().vnow)
            panic("oracle disagrees with the platform on the attempt "
                  "(tAggON %s, %llu activations)",
                  formatTime(last_.tAggOn).c_str(),
                  (unsigned long long)last_.acts);
    }

  private:
    /** An oracle attempt, enough to evaluate it again. */
    struct Attempt
    {
        AttemptOracle::Start start;
        Time tAggOn = 0;
        std::uint64_t acts = 0;
    };

    AttemptOracle oracle_;
    Attempt last_;
    Attempt kept_;
    bool lastFlipped_ = false;
    bool probed_ = false;
};

/**
 * The paper's modified bisection, shared by both searches: each of
 * cfg.repeats repeats probes @p hi and, if that flips, bisects (@p lo,
 * @p hi] down to cfg.accuracy (and at least @p step).  @p improved(v)
 * runs whenever a repeat ends at a new minimum v.  Returns whether any
 * repeat flipped.
 */
template <typename T, typename FlipsAt, typename Improved>
bool
bisect(T lo, T hi, T step, const SearchConfig &cfg, FlipsAt flips_at,
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

} // namespace

AttemptResult
runPressAttempt(bender::TestPlatform &platform, const RowLayout &layout,
                DataPattern pattern, Time t_agg_on,
                std::uint64_t total_acts, bool full_scan)
{
    initLayout(platform, layout, pattern);
    auto program = makePressProgram(layout, t_agg_on, total_acts,
                                    platform.timing());
    const Time elapsed = platform.run(program);
    AttemptResult res;
    collectRows(platform, layout.bank, layout.victims, full_scan,
                elapsed, res);
    return res;
}

AttemptResult
runPressAttemptOn(bender::TestPlatform &platform,
                  const RowLayout &layout, DataPattern pattern,
                  Time t_agg_on, std::uint64_t total_acts,
                  const std::vector<int> &victims)
{
    initLayout(platform, layout, pattern);
    auto program = makePressProgram(layout, t_agg_on, total_acts,
                                    platform.timing());
    const Time elapsed = platform.run(program);
    AttemptResult res;
    collectRows(platform, layout.bank, victims, /*full_scan=*/true,
                elapsed, res);
    return res;
}

AcminResult
findAcmin(bender::TestPlatform &platform, const RowLayout &layout,
          DataPattern pattern, Time t_agg_on, const SearchConfig &cfg)
{
    const std::uint64_t max_acts = maxActsWithinBudget(
        t_agg_on, platform.timing(), platform.cmdGap(), cfg.budget);
    if (max_acts == 0)
        return {};

    Probes probes(platform, layout, pattern);
    AcminResult best;
    best.flipped = bisect<std::uint64_t>(
        0, max_acts, 1, cfg,
        [&](std::uint64_t acts) {
            if (!probes.flips(t_agg_on, acts))
                return false;
            probes.keep();
            return true;
        },
        [&](std::uint64_t acmin) {
            best.acmin = acmin;
            best.flips = probes.kept();
        });
    probes.finish();
    return best;
}

TAggOnMinResult
findTAggOnMin(bender::TestPlatform &platform, const RowLayout &layout,
              DataPattern pattern, std::uint64_t total_acts,
              const SearchConfig &cfg)
{
    const auto &timing = platform.timing();
    // The largest per-activation on-time that keeps the whole program
    // within the budget.
    const Time overhead =
        pressActPeriod(0, timing, platform.cmdGap());
    const Time max_on = cfg.budget / Time(total_acts) - overhead;
    if (max_on <= timing.tRAS)
        return {};

    Probes probes(platform, layout, pattern);
    TAggOnMinResult best;
    best.flipped = bisect<Time>(
        timing.tRAS, max_on, Time(units::NS), cfg,
        [&](Time t_on) { return probes.flips(t_on, total_acts); },
        [&](Time t_min) { best.tAggOnMin = t_min; });
    probes.finish();
    return best;
}

} // namespace rp::chr
