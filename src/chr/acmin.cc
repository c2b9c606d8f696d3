#include "chr/acmin.h"

#include <algorithm>
#include <functional>

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
 * One probe of a search: fill the dose/flip state for (t_agg_on,
 * total_acts) into @p out.  Either replays the program on the platform
 * or asks the AttemptOracle.
 */
using AttemptFn =
    std::function<void(Time, std::uint64_t, AttemptResult &)>;

/** The bisection core shared by the replay and oracle paths. */
AcminResult
findAcminWith(const AttemptFn &attempt, Time t_agg_on,
              std::uint64_t max_acts, const SearchConfig &cfg)
{
    AcminResult best;
    AttemptResult probe;
    for (int rep = 0; rep < cfg.repeats; ++rep) {
        attempt(t_agg_on, max_acts, probe);
        if (!probe.any())
            continue;

        std::uint64_t lo = 0;
        std::uint64_t hi = max_acts;
        std::vector<VictimFlip> hi_flips = std::move(probe.flips);
        while (hi - lo > std::max<std::uint64_t>(
                             1, std::uint64_t(cfg.accuracy * double(hi)))) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            attempt(t_agg_on, mid, probe);
            if (probe.any()) {
                hi = mid;
                hi_flips = std::move(probe.flips);
            } else {
                lo = mid;
            }
        }
        if (!best.flipped || hi < best.acmin) {
            best.flipped = true;
            best.acmin = hi;
            best.flips = std::move(hi_flips);
        }
    }
    return best;
}

TAggOnMinResult
findTAggOnMinWith(const AttemptFn &attempt, std::uint64_t total_acts,
                  Time max_on, Time t_ras, const SearchConfig &cfg)
{
    TAggOnMinResult best;
    AttemptResult probe;
    for (int rep = 0; rep < cfg.repeats; ++rep) {
        attempt(max_on, total_acts, probe);
        if (!probe.any())
            continue;

        Time lo = t_ras;
        Time hi = max_on;
        while (hi - lo > std::max<Time>(Time(units::NS),
                                        Time(cfg.accuracy * double(hi)))) {
            const Time mid = lo + (hi - lo) / 2;
            attempt(mid, total_acts, probe);
            if (probe.any())
                hi = mid;
            else
                lo = mid;
        }
        if (!best.flipped || hi < best.tAggOnMin) {
            best.flipped = true;
            best.tAggOnMin = hi;
        }
    }
    return best;
}

AttemptFn
replayAttempt(bender::TestPlatform &platform, const RowLayout &layout,
              DataPattern pattern)
{
    return [&platform, layout, pattern](Time t_on, std::uint64_t acts,
                                        AttemptResult &out) {
        initLayout(platform, layout, pattern);
        auto program =
            makePressProgram(layout, t_on, acts, platform.timing());
        const Time elapsed = platform.run(program);
        collectVictims(platform, layout, /*full_scan=*/false, elapsed,
                       out);
    };
}

AttemptFn
oracleAttempt(AttemptOracle &oracle)
{
    return [&oracle](Time t_on, std::uint64_t acts, AttemptResult &out) {
        oracle.pressAttempt(t_on, acts, out);
    };
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

    if (cfg.useOracle) {
        AttemptOracle oracle(platform, layout, pattern);
        return findAcminWith(oracleAttempt(oracle), t_agg_on, max_acts,
                             cfg);
    }
    return findAcminWith(replayAttempt(platform, layout, pattern),
                         t_agg_on, max_acts, cfg);
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

    if (cfg.useOracle) {
        AttemptOracle oracle(platform, layout, pattern);
        return findTAggOnMinWith(oracleAttempt(oracle), total_acts,
                                 max_on, timing.tRAS, cfg);
    }
    return findTAggOnMinWith(replayAttempt(platform, layout, pattern),
                             total_acts, max_on, timing.tRAS, cfg);
}

} // namespace rp::chr
