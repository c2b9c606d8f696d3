#include "chr/experiments.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/logging.h"

namespace rp::chr {

using namespace rp::literals;

std::vector<int>
baseRowsOf(const ModuleConfig &cfg)
{
    std::vector<int> rows;
    rows.reserve(std::size_t(cfg.numLocations));
    for (int i = 0; i < cfg.numLocations; ++i)
        rows.push_back(cfg.firstRow + i * cfg.rowStride);
    return rows;
}

int
maxLocations(const ModuleConfig &cfg)
{
    int reach = 0;
    for (AccessKind kind :
         {AccessKind::SingleSided, AccessKind::DoubleSided})
        reach = std::max(reach, makeLayout(kind, cfg.bank, 0).highRow());
    const int last_base = dram::Organization{}.rows - 1 - reach;
    return (last_base - cfg.firstRow) / cfg.rowStride + 1;
}

ModuleConfig
locationConfig(const ModuleConfig &cfg, int row)
{
    ModuleConfig loc = cfg;
    loc.numLocations = 1;
    loc.firstRow = row;
    return loc;
}

Module::Module(const ModuleConfig &cfg) : cfg_(cfg)
{
    bender::PlatformConfig pc;
    pc.die = cfg_.die;
    pc.org = dram::Organization{};
    pc.seed = cfg_.seed;
    pc.temperatureC = cfg_.temperatureC;
    platform_ = std::make_unique<bender::TestPlatform>(pc);

    baseRows_ = baseRowsOf(cfg_);
}

const std::vector<Time> &
standardTAggOnSweep()
{
    static const std::vector<Time> sweep = {
        36_ns,  66_ns,   96_ns,   186_ns,  336_ns, 636_ns,
        1536_ns, 3_us,   7800_ns, 15_us,   30_us,  70200_ns,
        150_us, 300_us,  1_ms,    3_ms,    10_ms,  30_ms,
    };
    return sweep;
}

const std::vector<Time> &
dataPatternTAggOnSweep()
{
    // Paper section 5.3: 36 ns, 66 ns, 636 ns, tREFI, 9 x tREFI,
    // 300 us, 6 ms.
    static const std::vector<Time> sweep = {
        36_ns, 66_ns, 636_ns, 7800_ns, 70200_ns, 300_us, 6_ms,
    };
    return sweep;
}

BoxSummary
SweepPoint::acminSummary() const
{
    std::vector<double> values;
    for (const auto &loc : locations) {
        if (loc.flipped)
            values.push_back(double(loc.acmin));
    }
    return summarize(std::move(values));
}

double
SweepPoint::fractionFlipped() const
{
    if (locations.empty())
        return 0.0;
    std::size_t n = 0;
    for (const auto &loc : locations)
        n += loc.flipped ? 1 : 0;
    return double(n) / double(locations.size());
}

double
SweepPoint::fractionOneToZero() const
{
    std::size_t one_to_zero = 0;
    std::size_t total = 0;
    for (const auto &loc : locations) {
        for (const auto &vf : loc.flips) {
            ++total;
            one_to_zero += vf.flip.oneToZero ? 1 : 0;
        }
    }
    return total ? double(one_to_zero) / double(total) : 0.0;
}

double
SweepPoint::meanAcmin() const
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto &loc : locations) {
        if (loc.flipped) {
            sum += double(loc.acmin);
            ++n;
        }
    }
    return n ? sum / double(n) : 0.0;
}

LocationResult
acminAtLocation(Module &module, int row, Time t_agg_on, AccessKind kind,
                DataPattern pattern, const SearchConfig &cfg)
{
    RowLayout layout = makeLayout(kind, module.config().bank, row);
    AcminResult res = findAcmin(module.platform(), layout, pattern,
                                t_agg_on, cfg);
    LocationResult loc;
    loc.row = row;
    loc.flipped = res.flipped;
    loc.acmin = res.acmin;
    loc.flips = std::move(res.flips);
    return loc;
}

SweepPoint
acminPoint(Module &module, Time t_agg_on, AccessKind kind,
           DataPattern pattern, const SearchConfig &cfg)
{
    SweepPoint point;
    point.tAggOn = t_agg_on;
    for (int row : module.baseRows())
        point.locations.push_back(
            acminAtLocation(module, row, t_agg_on, kind, pattern, cfg));
    return point;
}

SweepPoint
acminPoint(const ModuleConfig &mc, core::ExperimentEngine &engine,
           Time t_agg_on, AccessKind kind, DataPattern pattern,
           const SearchConfig &cfg)
{
    auto points = acminSweep(mc, engine, {t_agg_on}, kind, pattern, cfg);
    return std::move(points.front());
}

std::vector<SweepPoint>
acminSweep(Module &module, const std::vector<Time> &t_agg_ons,
           AccessKind kind, DataPattern pattern, const SearchConfig &cfg)
{
    std::vector<SweepPoint> points;
    points.reserve(t_agg_ons.size());
    for (Time t : t_agg_ons)
        points.push_back(acminPoint(module, t, kind, pattern, cfg));
    return points;
}

std::vector<SweepPoint>
acminSweep(const ModuleConfig &mc, core::ExperimentEngine &engine,
           const std::vector<Time> &t_agg_ons, AccessKind kind,
           DataPattern pattern, const SearchConfig &cfg)
{
    // One task per (tAggON, location) cell, point-major, each on a
    // fresh single-location Module: threads that start together
    // search different locations, so they build different rows of the
    // shared ThresholdStore instead of waiting on one.
    const std::vector<int> rows = baseRowsOf(mc);
    const std::size_t n_rows = rows.size();
    auto cells = engine.map<LocationResult>(
        t_agg_ons.size() * n_rows, [&](const core::TaskContext &ctx) {
            const int row = rows[ctx.index % n_rows];
            Module local(locationConfig(mc, row));
            return acminAtLocation(local, row,
                                   t_agg_ons[ctx.index / n_rows], kind,
                                   pattern, cfg);
        });

    std::vector<SweepPoint> points(t_agg_ons.size());
    for (std::size_t ti = 0; ti < t_agg_ons.size(); ++ti)
        points[ti].tAggOn = t_agg_ons[ti];
    for (std::size_t i = 0; i < cells.size(); ++i)
        points[i / n_rows].locations.push_back(std::move(cells[i]));
    return points;
}

BoxSummary
TAggOnMinPoint::summary() const
{
    std::vector<double> values;
    for (const auto &[row, res] : locations) {
        (void)row;
        if (res.flipped)
            values.push_back(toUs(res.tAggOnMin));
    }
    return summarize(std::move(values));
}

TAggOnMinPoint
tAggOnMinPoint(Module &module, std::uint64_t acts, AccessKind kind,
               DataPattern pattern, const SearchConfig &cfg)
{
    TAggOnMinPoint point;
    point.acts = acts;
    for (int row : module.baseRows()) {
        RowLayout layout = makeLayout(kind, module.config().bank, row);
        point.locations.emplace_back(
            row, findTAggOnMin(module.platform(), layout, pattern, acts,
                               cfg));
    }
    return point;
}

TAggOnMinPoint
tAggOnMinPoint(const ModuleConfig &mc, core::ExperimentEngine &engine,
               std::uint64_t acts, AccessKind kind, DataPattern pattern,
               const SearchConfig &cfg)
{
    const std::vector<int> rows = baseRowsOf(mc);
    auto results = engine.map<std::pair<int, TAggOnMinResult>>(
        rows.size(), [&](const core::TaskContext &ctx) {
            const int row = rows[ctx.index];
            Module local(locationConfig(mc, row));
            RowLayout layout = makeLayout(kind, mc.bank, row);
            return std::make_pair(
                row, findTAggOnMin(local.platform(), layout, pattern,
                                   acts, cfg));
        });

    TAggOnMinPoint point;
    point.acts = acts;
    point.locations = std::move(results);
    return point;
}

std::vector<VictimFlip>
retentionFailures(Module &module, double seconds, double temp_c)
{
    auto &platform = module.platform();
    const double saved_temp = platform.temperature();
    platform.setTemperature(temp_c);

    // Initialize every victim row with the checkerboard victim fill,
    // idle with refresh disabled, then inspect (paper footnote 12).
    std::vector<int> rows;
    for (int base : module.baseRows()) {
        RowLayout layout = makeLayout(AccessKind::SingleSided,
                                      module.config().bank, base);
        for (int v : layout.victims)
            rows.push_back(v);
    }
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());

    const int bank = module.config().bank;
    for (int r : rows)
        platform.fillRow(bank, r,
                         victimFill(DataPattern::CheckerBoard));

    bender::Program idle;
    idle.wait(Time(seconds * double(units::SEC)));
    platform.run(idle);

    std::vector<VictimFlip> fails;
    for (int r : rows) {
        for (const auto &f : platform.checkRow(bank, r))
            fails.push_back({r, f});
    }
    platform.setTemperature(saved_temp);
    return fails;
}

double
onOffBer(Module &module, int location_idx, AccessKind kind,
         Time delta_a2a, double on_fraction, int repeats)
{
    auto &platform = module.platform();
    const auto &timing = platform.timing();
    const int row = module.baseRows().at(std::size_t(location_idx));
    RowLayout layout = makeLayout(kind, module.config().bank, row);

    const Time t_on =
        timing.tRAS + Time(on_fraction * double(delta_a2a));
    const Time t_off =
        timing.tRP + Time((1.0 - on_fraction) * double(delta_a2a));
    const Time period = t_on + t_off + 2 * platform.cmdGap();
    const std::uint64_t acts = std::uint64_t((60_ms) / period);

    // BER is dominated by the distance-1 victims; restrict the (full)
    // scans to them to keep the experiment fast.
    std::vector<int> scan_victims;
    for (int victim : layout.victims) {
        for (int aggr : layout.aggressors) {
            if (std::abs(victim - aggr) == 1) {
                scan_victims.push_back(victim);
                break;
            }
        }
    }

    double best = 0.0;
    const double bits = double(bitsPerRow(module));
    for (int rep = 0; rep < repeats; ++rep) {
        initLayout(platform, layout, DataPattern::CheckerBoard);
        auto program = makeOnOffProgram(layout, t_on, t_off, acts, timing);
        platform.run(program);
        for (int victim : scan_victims) {
            auto flips = platform.checkRow(module.config().bank, victim,
                                           /*full_scan=*/true);
            best = std::max(best, double(flips.size()) / bits);
        }
    }
    return best;
}

AttemptResult
maxActivationAttempt(Module &module, int location_idx, AccessKind kind,
                     DataPattern pattern, Time t_agg_on)
{
    auto &platform = module.platform();
    const int row = module.baseRows().at(std::size_t(location_idx));
    RowLayout layout = makeLayout(kind, module.config().bank, row);
    const std::uint64_t acts = maxActsWithinBudget(
        t_agg_on, platform.timing(), platform.cmdGap(), 60_ms);
    return runPressAttempt(platform, layout, pattern, t_agg_on, acts,
                           /*full_scan=*/true);
}

std::vector<AttemptResult>
maxActivationAttempts(const ModuleConfig &mc,
                      core::ExperimentEngine &engine,
                      const std::vector<int> &rows, AccessKind kind,
                      DataPattern pattern, Time t_agg_on)
{
    if (rows.empty())
        return {};

    // One task per (victim, location) cell, victim-major: each replays
    // the (fast-forwarded, cheap) attempt on a fresh Module and
    // full-scans its one victim.  Rows materialize independently, so
    // a location's cells concatenated in victim order are its serial
    // full scan.  Layouts are translates of one shape, so every
    // location has the same number of victims.
    std::vector<RowLayout> layouts;
    layouts.reserve(rows.size());
    for (int row : rows)
        layouts.push_back(makeLayout(kind, mc.bank, row));
    const std::size_t n_rows = rows.size();
    const std::size_t n_victims = layouts.front().victims.size();

    auto cells = engine.map<AttemptResult>(
        n_victims * n_rows, [&](const core::TaskContext &ctx) {
            const std::size_t li = ctx.index % n_rows;
            const RowLayout &layout = layouts[li];
            Module local(locationConfig(mc, rows[li]));
            auto &platform = local.platform();
            const std::uint64_t acts = maxActsWithinBudget(
                t_agg_on, platform.timing(), platform.cmdGap(), 60_ms);
            return runPressAttemptOn(
                platform, layout, pattern, t_agg_on, acts,
                {layout.victims[ctx.index / n_rows]});
        });

    std::vector<AttemptResult> results(n_rows);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        AttemptResult &dst = results[i % n_rows];
        dst.elapsed = cells[i].elapsed;
        dst.flips.insert(dst.flips.end(),
                         std::make_move_iterator(cells[i].flips.begin()),
                         std::make_move_iterator(cells[i].flips.end()));
    }
    return results;
}

int
bitsPerRow(const Module &module)
{
    const auto &org = module.platform().org();
    return org.columns * org.blockBytes * 8;
}

} // namespace rp::chr
