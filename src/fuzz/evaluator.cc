#include "fuzz/evaluator.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "common/rng.h"
#include "mitigation/defaults.h"
#include "mitigation/trr.h"

namespace rp::fuzz {

const char *
mitigationKindName(MitigationKind kind)
{
    switch (kind) {
      case MitigationKind::None: return "none";
      case MitigationKind::Trr: return "trr";
      case MitigationKind::Graphene: return "graphene";
      case MitigationKind::Para: return "para";
    }
    return "?";
}

const std::vector<MitigationKind> &
allMitigationKinds()
{
    static const std::vector<MitigationKind> all = {
        MitigationKind::None,
        MitigationKind::Trr,
        MitigationKind::Graphene,
        MitigationKind::Para,
    };
    return all;
}

bool
betterScore(const Score &a, const Score &b)
{
    if (a.flipped != b.flipped)
        return a.flipped;
    if (a.minCostActs != b.minCostActs)
        return a.minCostActs < b.minCostActs;
    if (a.flipCount != b.flipCount)
        return a.flipCount > b.flipCount;
    if (a.rowsCovered != b.rowsCovered)
        return a.rowsCovered > b.rowsCovered;
    return false;
}

namespace {

/** Per-period preventive-refresh requests of the pre-simulation. */
using RefreshSchedule =
    std::unordered_map<std::uint64_t, std::vector<int>>;

/** A fresh mechanism of @p kind for one evaluation (null for None). */
std::unique_ptr<mitigation::Mitigation>
makeMitigation(const EvalConfig &cfg, MitigationKind kind,
               const PatternSpec &spec)
{
    switch (kind) {
      case MitigationKind::None:
        return nullptr;
      case MitigationKind::Trr:
        return std::make_unique<mitigation::Trr>();
      case MitigationKind::Graphene:
        return std::make_unique<mitigation::Graphene>(
            mitigation::standardGrapheneFor(cfg.trh));
      case MitigationKind::Para:
        // The draw stream is keyed to (module seed, genome), so each
        // candidate's evaluation is self-contained and reproducible.
        return std::make_unique<mitigation::Para>(mitigation::paraFor(
            cfg.trh, hashU64(cfg.module.seed, spec.hash(),
                             0x50415241ULL /* "PARA" */)));
    }
    return nullptr;
}

/**
 * Feed the genome's act stream to the configured mitigation model and
 * collect the victim rows it wants refreshed, keyed by the pattern
 * period the request fell in.  Wall time is tracked analytically
 * (chr::pressActPeriod per activation) for the REF schedule (every
 * tREFI) and the refresh window (every 64 ms); everything here is a
 * pure function of (cfg, kind, spec), so the schedule is identical on
 * every thread.
 */
RefreshSchedule
simulateMitigation(const EvalConfig &cfg, MitigationKind kind,
                   const PatternSpec &spec,
                   const dram::TimingParams &timing, Time cmd_gap,
                   std::uint64_t total_periods)
{
    RefreshSchedule schedule;
    const auto mit = makeMitigation(cfg, kind, spec);
    if (!mit)
        return schedule;

    const auto acts = periodActs(spec);
    Time cursor = 0;
    Time next_ref = timing.tREFI;
    Time next_window = mitigation::kGrapheneResetWindow;
    std::vector<int> victims;
    for (std::uint64_t p = 0; p < total_periods; ++p) {
        for (const auto &[row, t_on] : acts) {
            mit->onActivate(spec.bank, row, victims);
            cursor += chr::pressActPeriod(t_on, timing, cmd_gap);
            for (; cursor >= next_ref; next_ref += timing.tREFI)
                mit->onRefresh(spec.bank, victims);
            for (; cursor >= next_window;
                 next_window += mitigation::kGrapheneResetWindow)
                mit->onRefreshWindow();
        }
        if (!victims.empty()) {
            schedule[p] = std::move(victims);
            victims.clear();
        }
    }
    return schedule;
}

} // namespace

Score
Evaluator::evaluate(const PatternSpec &spec) const
{
    bender::PlatformConfig pc;
    pc.die = cfg_.module.die;
    pc.org = dram::Organization{};
    pc.seed = cfg_.module.seed;
    pc.temperatureC = cfg_.module.temperatureC;
    bender::TestPlatform platform(pc);

    const chr::RowLayout layout = spec.layout();
    chr::initLayout(platform, layout, spec.dataPattern);

    PatternBuilder builder(platform.timing());
    const bender::Program body = builder.periodBody(spec);
    const std::uint64_t per = actsPerPeriod(spec);

    // Steady-state period duration, measured once on a scratch
    // platform (the third run is past the initial ramp).
    Time period_dur = 0;
    {
        bender::TestPlatform scratch(pc);
        scratch.run(body);
        scratch.run(body);
        period_dur = scratch.run(body);
    }
    if (period_dur <= 0)
        return {};

    // At least one full period always runs, even if a single period
    // of a deep-dwell genome overshoots the budget.
    const std::uint64_t total_periods = std::max<std::uint64_t>(
        1, std::uint64_t(cfg_.budget / period_dur));
    Score score;
    score.totalActs = total_periods * per;

    const RefreshSchedule schedule =
        simulateMitigation(cfg_, kind_, spec, platform.timing(),
                           platform.cmdGap(), total_periods);

    // Break points, in completed periods: after every intervention
    // period, and at geometrically spaced first-flip checkpoints
    // (~12 % resolution on the minimum-cost measurement).
    std::vector<std::uint64_t> breaks;
    for (const auto &[p, v] : schedule) {
        (void)v;
        breaks.push_back(p + 1);
    }
    for (std::uint64_t cp = 1; cp < total_periods;
         cp += std::max<std::uint64_t>(1, cp / 8))
        breaks.push_back(cp);
    breaks.push_back(total_periods);
    std::sort(breaks.begin(), breaks.end());
    breaks.erase(std::unique(breaks.begin(), breaks.end()),
                 breaks.end());

    const auto flipped_now = [&]() {
        for (int row : layout.victims) {
            if (!platform.chip()
                     .storedFlipBits(layout.bank, row)
                     .empty())
                return true;
            if (platform.rowWouldFlip(layout.bank, row))
                return true;
        }
        return false;
    };

    std::uint64_t done = 0;
    for (std::uint64_t b : breaks) {
        if (b > total_periods)
            break;
        if (b > done) {
            bender::Program segment;
            segment.loop(b - done, body);
            platform.run(segment);
            done = b;
        }
        // Preventive refreshes requested during the period just
        // completed are flushed now (period-granular controller).
        auto it = schedule.find(b - 1);
        if (it != schedule.end()) {
            for (int v : it->second) {
                if (v < 0 || v >= pc.org.rows)
                    continue;
                platform.chip().refreshRow(layout.bank, v,
                                           platform.now());
                ++score.preventiveRefreshes;
            }
        }
        if (!score.flipped && flipped_now()) {
            score.flipped = true;
            score.minCostActs = done * per;
        }
    }

    // Final scoring: latch everything with the word-mask full scan
    // and count the stored flips (includes bits latched earlier by
    // preventive refreshes).
    for (int row : layout.victims)
        platform.checkRow(layout.bank, row, /*full_scan=*/true);
    for (int row : layout.victims) {
        const auto bits =
            platform.chip().storedFlipBits(layout.bank, row);
        if (!bits.empty()) {
            ++score.rowsCovered;
            score.flipCount += bits.size();
        }
    }
    if (score.flipCount > 0 && !score.flipped) {
        score.flipped = true;
        score.minCostActs = score.totalActs;
    }
    return score;
}

} // namespace rp::fuzz
