#include "sys/demo.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "dram/timing.h"
#include "mitigation/trr.h"
#include "sys/cache.h"

namespace rp::sys {

using namespace rp::literals;

namespace {

using DoseOp = device::FaultModel::DoseOp;

// Row layout in the demo's bank: victims 512 rows apart from row 2048,
// each with its dummy rows at least 100 rows above it, spread out so
// they do not disturb each other (paper footnote 21).
constexpr int kBank = 1;
constexpr int kFirstVictim = 2048;
constexpr int kVictimStride = 512;
constexpr int kDummyOffset = 128;
constexpr int kDummyStride = 8;

/** Longest cycle, in iterations, that runDemo looks for. */
constexpr std::size_t kMaxPeriod = 16;

/** Rows above its victim that one victim's layout uses. */
int
layoutSpan(const DemoConfig &cfg)
{
    return cfg.numDummies > 0
               ? kDummyOffset + (cfg.numDummies - 1) * kDummyStride
               : 1;
}

/** Line address encoding used by the demo's cache model. */
std::uint64_t
lineAddr(int bank, int row, int column)
{
    return (std::uint64_t(std::uint32_t(bank)) << 40) |
           (std::uint64_t(std::uint32_t(row)) << 8) |
           std::uint32_t(column);
}

/** Per-victim working state of the demonstration program. */
struct VictimRun
{
    int bank;
    int victim;
    int aggr[2];
    std::vector<int> dummies;
    /** Every cache line the program touches. */
    std::vector<std::uint64_t> lines;
};

VictimRun
layoutVictim(const DemoConfig &cfg, int v)
{
    VictimRun run;
    run.bank = kBank;
    run.victim = kFirstVictim + v * kVictimStride;
    run.aggr[0] = run.victim - 1;
    run.aggr[1] = run.victim + 1;
    for (int d = 0; d < cfg.numDummies; ++d)
        run.dummies.push_back(run.victim + kDummyOffset + d * kDummyStride);
    for (int side = 0; side < 2; ++side) {
        for (int j = 0; j < cfg.numReads; ++j)
            run.lines.push_back(lineAddr(run.bank, run.aggr[side], j));
    }
    for (int d : run.dummies)
        run.lines.push_back(lineAddr(run.bank, d, 0));
    return run;
}

/**
 * One iteration of Algorithm 1 (or 2, with interleaved flushes) from
 * its start @p t; leaves @p t at the next iteration's start.
 */
void
runIteration(const DemoConfig &cfg, Time spacing, const VictimRun &run,
             MemCtrl &mc, CacheModel &cache, Time &t)
{
    // Synchronize with refresh: start each iteration right after a REF
    // so the aggressor phase sits at the start of a tREFI slot and the
    // dummy phase covers the next REF (prior-work technique the demo
    // borrows, section 6.2).
    if (cfg.syncWithRefresh) {
        mc.advanceTo(mc.nextRefreshAt());
        t = std::max(t, mc.now());
    }

    for (int a = 0; a < cfg.numAggrActs; ++a) {
        // Read NUM_READS blocks of each aggressor, then flush them and
        // fence (Algorithm 1, lines 8-17; the flush block is inside
        // the NUM_AGGR_ACTS loop).
        for (int side = 0; side < 2; ++side) {
            for (int j = 0; j < cfg.numReads; ++j) {
                const std::uint64_t la =
                    lineAddr(run.bank, run.aggr[side], j);
                if (cache.load(la))
                    continue; // served on-chip
                const Time ready =
                    mc.readBlock(run.bank, run.aggr[side], j, t);
                t = std::max(t + spacing, ready - 40_ns);
                if (cfg.interleavedFlush)
                    cache.clflush(la);
            }
        }
        if (!cfg.interleavedFlush) {
            for (int side = 0; side < 2; ++side) {
                for (int j = 0; j < cfg.numReads; ++j)
                    cache.clflush(lineAddr(run.bank, run.aggr[side], j));
            }
            t += Time(2 * cfg.numReads) * cfg.flushCost;
        }
        t += cfg.mfenceCost;
    }

    // Activate the dummy rows to bypass TRR (line 18): each dummy
    // access is a flushed, fenced DRAM read, so the dummy phase is
    // long enough to cover the upcoming REF.
    for (int rep = 0; rep < cfg.dummyActsPerIter; ++rep) {
        for (int d : run.dummies) {
            const std::uint64_t la = lineAddr(run.bank, d, 0);
            cache.clflush(la);
            const Time ready = mc.readBlock(run.bank, d, 0, t);
            t = std::max(t + cfg.dummySpacing, ready - 40_ns);
            cache.load(la);
        }
    }

    mc.advanceTo(t);
    t = std::max(t, mc.now());
}

/**
 * The control state an iteration starts from, relative to its start
 * @p t: everything that decides which commands the iteration issues,
 * when, and which doses they deposit.  Iterations that start from
 * equal states issue the same commands at the same offsets and
 * deposit the same values.  Row doses and data are not part of it:
 * they never feed back into timing, TRR or cache decisions.
 */
std::vector<std::int64_t>
startState(const VictimRun &run, MemCtrl &mc, const mitigation::Trr &trr,
           const CacheModel &cache, Time t)
{
    constexpr std::int64_t kPast = std::numeric_limits<std::int64_t>::min();
    constexpr Time kIllegal = std::numeric_limits<Time>::max();

    std::vector<std::int64_t> s;
    s.push_back(t - mc.now());
    s.push_back(mc.nextRefreshAt() - t);

    // No later command issues before `past`, and a timing constraint
    // only ever enters as max(issue time, constraint): one at or before
    // `past` no longer constrains anything, however old it is.
    const Time past = std::min({t, mc.now(), mc.nextRefreshAt()});
    device::Chip &chip = mc.chip();
    for (int b = 0; b < chip.org().totalBanks(); ++b) {
        const dram::Bank &bank = chip.bank(b);
        s.push_back(bank.isOpen());
        s.push_back(bank.openRow());
        s.push_back(bank.isOpen() ? bank.openedAt() - t : 0);
        for (dram::Command c : {dram::Command::ACT, dram::Command::PRE,
                                dram::Command::RD, dram::Command::WR}) {
            const Time e = bank.earliest(c);
            s.push_back(e == kIllegal ? kIllegal : e <= past ? kPast : e - t);
        }
    }

    trr.appendState(s);
    for (std::uint64_t line : run.lines)
        s.push_back(cache.resident(line));

    // The last close of each row the program activates sets its next
    // ACT's hammer off-weight.
    auto last_close = [&](int row) {
        const Time c = chip.fault().lastClose(run.bank, row);
        s.push_back(c == device::FaultModel::kNever ? -1 : t - c);
    };
    last_close(run.aggr[0]);
    last_close(run.aggr[1]);
    for (int d : run.dummies)
        last_close(d);
    return s;
}

/** What one simulated iteration started from and what it did. */
struct Iteration
{
    Time start = 0;
    MemCtrl::Counters counters;
    /** REFs before the next one that restores the victim row or
     *  reaches a tREFW boundary. */
    std::uint64_t refsBeforeEvent = 0;
    std::vector<std::int64_t> state;
    /** The victim row's deposits and restores, in order. */
    std::vector<DoseOp> victimOps;
    /** Keys of the other rows it activated or restored. */
    std::vector<std::uint64_t> restored;
};

/**
 * The shortest p such that @p now starts from the state the iteration
 * p earlier in @p recent started from, with no event REF in between;
 * 0 if there is none.
 */
std::size_t
period(const std::deque<Iteration> &recent, const Iteration &now)
{
    for (std::size_t p = 1; p <= recent.size(); ++p) {
        const Iteration &then = recent[recent.size() - p];
        const std::uint64_t refs = now.counters.refs - then.counters.refs;
        if (refs <= then.refsBeforeEvent && then.state == now.state)
            return p;
    }
    return 0;
}

/**
 * If @p now closes a cycle of the iterations in @p recent, skip as many
 * whole repetitions of it as fit before the next event REF and within
 * the @p iters_left iterations still to run; returns the iterations
 * skipped.
 *
 * The victim row's events are replayed in order: each deposit with the
 * same floating-point add, each restore through Chip::refreshRow at
 * its exact time, so flips latch through the production evaluation
 * with the same dose, retention and noise nonce.  The controller,
 * bank timing, refresh stripe and the close and restore clocks of the
 * rows the cycle activated or restored move on by whole cycles; the
 * TRR sampler and the cache are already equal by construction.
 *
 * Not maintained across the skip: the dose and data of every other
 * row, and the mitigation's preventiveRefreshes().  DemoResult reads
 * none of them, and doses never feed back into timing, TRR or cache
 * decisions.
 */
std::uint64_t
skipCycles(const std::deque<Iteration> &recent, const Iteration &now,
           int iters_left, const VictimRun &run, MemCtrl &mc, Time &t)
{
    const std::size_t p = period(recent, now);
    if (p == 0)
        return 0;
    const Iteration &first = recent[recent.size() - p];
    const std::uint64_t refs = now.counters.refs - first.counters.refs;
    const std::uint64_t fit = std::uint64_t(iters_left) / p;
    const std::uint64_t cycles =
        refs ? std::min(fit, now.refsBeforeEvent / refs) : fit;
    if (cycles == 0)
        return 0;

    std::vector<DoseOp> ops;
    std::vector<std::uint64_t> rows;
    for (std::size_t i = recent.size() - p; i < recent.size(); ++i) {
        ops.insert(ops.end(), recent[i].victimOps.begin(),
                   recent[i].victimOps.end());
        rows.insert(rows.end(), recent[i].restored.begin(),
                    recent[i].restored.end());
    }

    const Time span = now.start - first.start;
    device::Chip &chip = mc.chip();
    for (std::uint64_t c = 1; c <= cycles; ++c) {
        const Time shift = Time(c) * span;
        for (const DoseOp &op : ops) {
            if (op.comp == DoseOp::kRestore)
                chip.refreshRow(run.bank, run.victim, op.at + shift);
            else
                chip.fault().redeposit(run.bank, run.victim, op.comp,
                                       op.value);
        }
    }

    const Time jump = Time(cycles) * span;
    mc.repeatCycle(cycles, span, first.counters);
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    for (std::uint64_t key : rows)
        chip.fault().shiftRowHistory(int(key >> 32), int(std::uint32_t(key)),
                                     jump);
    t += jump;
    return cycles * p;
}

} // namespace

int
maxDemoVictims(const DemoConfig &cfg)
{
    const dram::Organization org;
    return (org.rows - 1 - layoutSpan(cfg) - kFirstVictim) / kVictimStride +
           1;
}

DemoResult
runDemo(const DemoConfig &cfg)
{
    const int max_victims = maxDemoVictims(cfg);
    if (cfg.numVictims > max_victims)
        throw std::invalid_argument(
            "runDemo: " + std::to_string(cfg.numVictims) +
            " victims do not fit the bank; at most " +
            std::to_string(max_victims) + " do (victim v sits at row " +
            std::to_string(kFirstVictim) + " + " +
            std::to_string(kVictimStride) + " v, its dummy rows up to " +
            std::to_string(layoutSpan(cfg)) + " rows above it)");

    dram::Organization org;
    device::Chip chip(device::dieById(cfg.dieId), org, dram::ddr4_2400(),
                      cfg.seed);
    chip.setTemperature(cfg.temperatureC);

    mitigation::Trr trr;
    MemCtrl::Config mc_cfg;
    mc_cfg.mitigation = &trr;
    MemCtrl mc(chip, mc_cfg);
    CacheModel cache;

    DemoResult result;

    // Per-read row-open contribution.  Algorithm 2 interleaves a flush
    // after every load, stretching the open time further (Appendix G).
    const Time spacing = cfg.interleavedFlush
                             ? cfg.readSpacing + 4 * cfg.flushCost
                             : cfg.readSpacing;

    std::vector<DoseOp> ops;
    for (int v = 0; v < cfg.numVictims; ++v) {
        const VictimRun run = layoutVictim(cfg, v);
        const std::uint64_t victim_key =
            device::FaultModel::doseKey(run.bank, run.victim);

        mc.trackRow(run.bank, run.aggr[0]);
        mc.trackRow(run.bank, run.aggr[1]);

        Time t = mc.now();
        chip.fillRow(run.bank, run.victim, 0x55, t);
        chip.fillRow(run.bank, run.aggr[0], 0xAA, t);
        chip.fillRow(run.bank, run.aggr[1], 0xAA, t);
        for (int d : run.dummies)
            chip.fillRow(run.bank, d, 0x00, t);

        // Simulate iterations, recording what each started from and
        // did, until one starts where an earlier one did; then skip
        // as many whole cycles as fit before the next event.
        std::deque<Iteration> recent;
        chip.fault().setDoseOpRecorder(&ops);
        for (int iter = 0; iter < cfg.numIters;) {
            Iteration now;
            now.start = t;
            now.counters = mc.counters();
            now.refsBeforeEvent =
                std::min(chip.refreshesBefore(run.victim),
                         mc.refreshesBeforeWindow());
            now.state = startState(run, mc, trr, cache, t);

            if (const std::uint64_t skipped = skipCycles(
                    recent, now, cfg.numIters - iter, run, mc, t)) {
                iter += int(skipped);
                result.replayedIterations += skipped;
                recent.clear();
                ops.clear(); // the replayed restores
                continue;
            }

            runIteration(cfg, spacing, run, mc, cache, t);
            ++iter;
            for (const DoseOp &op : ops) {
                if (op.key == victim_key)
                    now.victimOps.push_back(op);
                else if (op.comp == DoseOp::kRestore)
                    now.restored.push_back(op.key);
            }
            ops.clear();
            recent.push_back(std::move(now));
            if (recent.size() > kMaxPeriod)
                recent.pop_front();
        }
        chip.fault().setDoseOpRecorder(nullptr);

        // Inspect the victim row (latched flips + any pending dose).
        chip.materializeRow(run.bank, run.victim, mc.now());
        const auto flips = chip.storedFlipBits(run.bank, run.victim);
        result.totalBitflips += flips.size();
        if (!flips.empty())
            ++result.rowsWithBitflips;

        // Drop the cached aggressor lines before the next victim.
        cache.clear();
    }

    const MemCtrl::Counters &n = mc.counters();
    result.aggressorActs = n.acts;
    result.targetedRefreshes = n.targeted;
    if (n.trackedPres > 0)
        result.avgTAggOnNs = toNs(n.trackedOpenTime) / double(n.trackedPres);
    return result;
}

LatencyProbeResult
rowOpenLatencyProbe(int trials, double cpu_ghz, std::uint64_t seed)
{
    dram::Organization org;
    device::Chip chip(device::dieById("S-8Gb-C"), org, dram::ddr4_2400(),
                      seed);
    mitigation::Trr trr;
    MemCtrl::Config mc_cfg;
    mc_cfg.mitigation = &trr;
    MemCtrl mc(chip, mc_cfg);
    Rng rng(seed);

    LatencyProbeResult res{Histogram(160, 280, 24),
                           Histogram(160, 280, 24), 0.0, 0.0};

    // Base load-to-use latency of an LLC-missing access on the demo
    // system (core + uncore + DRAM column access), in ns.
    const double base_ns = 125.0;
    const int bank = 1;
    const int tested_row = 4096;
    const int other_row = 8192;

    std::vector<double> first_samples, rest_samples;
    Time t = mc.now();
    for (int trial = 0; trial < trials; ++trial) {
        // Step 2 of the probe: touch another row to force a PRE.
        mc.readBlock(bank, other_row, 0, t + 100_ns);
        t = mc.now() + 100_ns;

        // First access re-opens the row: pays tRCD.
        const Time t0 = t;
        const Time r0 = mc.readBlock(bank, tested_row, 0, t0);
        const double first_ns =
            base_ns + toNs(r0 - t0) + 2.0 * rng.normal();
        const double first_cy = first_ns * cpu_ghz;
        res.first.add(first_cy);
        first_samples.push_back(first_cy);
        t = r0;

        // A few of the remaining accesses (row now open).
        for (int j = 1; j <= 4; ++j) {
            const Time tj = t;
            const Time rj = mc.readBlock(bank, tested_row, j, tj);
            const double rest_ns =
                base_ns + toNs(rj - tj) + 2.0 * rng.normal();
            const double rest_cy = rest_ns * cpu_ghz;
            res.rest.add(rest_cy);
            rest_samples.push_back(rest_cy);
            t = rj;
        }
        t += 200_ns;
    }

    res.medianFirstCycles = summarize(std::move(first_samples)).median;
    res.medianRestCycles = summarize(std::move(rest_samples)).median;
    return res;
}

} // namespace rp::sys
