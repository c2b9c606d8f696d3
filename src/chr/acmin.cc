#include "chr/acmin.h"

#include <algorithm>
#include <optional>
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

void
collectVictims(bender::TestPlatform &platform, const RowLayout &layout,
               bool full_scan, Time elapsed, AttemptResult &out)
{
    collectRows(platform, layout.bank, layout.victims, full_scan,
                elapsed, out);
}

/**
 * The probes of one search: program replay on the platform, or the
 * AttemptOracle when cfg.useOracle.  flips() runs one attempt and
 * answers whether it flipped anything; keep() marks that attempt as
 * the one whose flips the search reports, and kept() returns them.
 * Replay collects every probe's flips as it goes; oracle probes stop
 * at the first flip, and kept() re-evaluates the kept attempt from its
 * saved start.
 */
class Probes
{
  public:
    Probes(bender::TestPlatform &platform, const RowLayout &layout,
           DataPattern pattern, const SearchConfig &cfg)
        : platform_(platform), layout_(layout), pattern_(pattern)
    {
        if (cfg.useOracle)
            oracle_.emplace(platform, layout, pattern);
    }

    bool
    flips(Time t_agg_on, std::uint64_t total_acts)
    {
        if (oracle_) {
            last_ = {oracle_->next(), t_agg_on, total_acts};
            return oracle_->probe(t_agg_on, total_acts);
        }
        initLayout(platform_, layout_, pattern_);
        const Time elapsed = platform_.run(makePressProgram(
            layout_, t_agg_on, total_acts, platform_.timing()));
        collectVictims(platform_, layout_, /*full_scan=*/false, elapsed,
                       replayed_);
        return replayed_.any();
    }

    void
    keep()
    {
        if (oracle_)
            kept_ = last_;
        else
            std::swap(keptFlips_, replayed_.flips);
    }

    std::vector<VictimFlip>
    kept()
    {
        if (oracle_) {
            AttemptResult res;
            oracle_->flipsAt(kept_.start, kept_.tAggOn, kept_.acts, res);
            return std::move(res.flips);
        }
        return std::move(keptFlips_);
    }

  private:
    /** An oracle attempt, enough to evaluate it again. */
    struct Attempt
    {
        AttemptOracle::Start start;
        Time tAggOn = 0;
        std::uint64_t acts = 0;
    };

    bender::TestPlatform &platform_;
    const RowLayout &layout_;
    DataPattern pattern_;
    std::optional<AttemptOracle> oracle_;
    Attempt last_;
    Attempt kept_;
    AttemptResult replayed_;
    std::vector<VictimFlip> keptFlips_;
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
    collectVictims(platform, layout, full_scan, elapsed, res);
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

    Probes probes(platform, layout, pattern, cfg);
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

    Probes probes(platform, layout, pattern, cfg);
    TAggOnMinResult best;
    best.flipped = bisect<Time>(
        timing.tRAS, max_on, Time(units::NS), cfg,
        [&](Time t_on) { return probes.flips(t_on, total_acts); },
        [&](Time t_min) { best.tAggOnMin = t_min; });
    return best;
}

} // namespace rp::chr
