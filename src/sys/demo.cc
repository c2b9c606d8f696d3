#include "sys/demo.h"

#include <algorithm>

#include "common/rng.h"
#include "dram/timing.h"
#include "mitigation/trr.h"
#include "sys/cache.h"

namespace rp::sys {

using namespace rp::literals;

namespace {

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
};

} // namespace

DemoResult
runDemo(const DemoConfig &cfg)
{
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
    const int bank = 1;
    const std::uint64_t acts_before = mc.activates();

    for (int v = 0; v < cfg.numVictims; ++v) {
        VictimRun run;
        run.bank = bank;
        run.victim = 2048 + v * 512;
        run.aggr[0] = run.victim - 1;
        run.aggr[1] = run.victim + 1;
        // Dummy rows at least 100 rows away from the victim, spread out
        // so they do not disturb each other (paper footnote 21).
        for (int d = 0; d < cfg.numDummies; ++d)
            run.dummies.push_back(run.victim + 128 + d * 8);

        mc.trackRow(run.bank, run.aggr[0]);
        mc.trackRow(run.bank, run.aggr[1]);

        Time t = mc.now();
        chip.fillRow(run.bank, run.victim, 0x55, t);
        chip.fillRow(run.bank, run.aggr[0], 0xAA, t);
        chip.fillRow(run.bank, run.aggr[1], 0xAA, t);
        for (int d : run.dummies)
            chip.fillRow(run.bank, d, 0x00, t);

        // Per-read row-open contribution.  Algorithm 2 interleaves a
        // flush after every load, stretching the open time further
        // (Appendix G).
        const Time spacing = cfg.interleavedFlush
                                 ? cfg.readSpacing + 4 * cfg.flushCost
                                 : cfg.readSpacing;

        for (int iter = 0; iter < cfg.numIters; ++iter) {
            // Synchronize with refresh: start each iteration right
            // after a REF so the aggressor phase sits at the start of
            // a tREFI slot and the dummy phase covers the next REF
            // (prior-work technique the demo borrows, section 6.2).
            if (cfg.syncWithRefresh) {
                mc.advanceTo(mc.nextRefreshAt());
                t = std::max(t, mc.now());
            }

            for (int a = 0; a < cfg.numAggrActs; ++a) {
                // Read NUM_READS blocks of each aggressor, then flush
                // them and fence (Algorithm 1, lines 8-17; the flush
                // block is inside the NUM_AGGR_ACTS loop).
                for (int side = 0; side < 2; ++side) {
                    for (int j = 0; j < cfg.numReads; ++j) {
                        const std::uint64_t la =
                            lineAddr(run.bank, run.aggr[side], j);
                        if (cache.load(la))
                            continue; // served on-chip
                        const Time ready = mc.readBlock(
                            run.bank, run.aggr[side], j, t);
                        t = std::max(t + spacing, ready - 40_ns);
                        if (cfg.interleavedFlush)
                            cache.clflush(la);
                    }
                }
                if (!cfg.interleavedFlush) {
                    for (int side = 0; side < 2; ++side) {
                        for (int j = 0; j < cfg.numReads; ++j)
                            cache.clflush(
                                lineAddr(run.bank, run.aggr[side], j));
                    }
                    t += Time(2 * cfg.numReads) * cfg.flushCost;
                }
                t += cfg.mfenceCost;
            }

            // Activate the dummy rows to bypass TRR (line 18): each
            // dummy access is a flushed, fenced DRAM read, so the
            // dummy phase is long enough to cover the upcoming REF.
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

        // Inspect the victim row (latched flips + any pending dose).
        chip.materializeRow(run.bank, run.victim, mc.now());
        const auto flips = chip.storedFlipBits(run.bank, run.victim);
        result.totalBitflips += flips.size();
        if (!flips.empty())
            ++result.rowsWithBitflips;

        // Drop the cached aggressor lines before the next victim.
        cache.clear();
    }

    result.aggressorActs = mc.activates() - acts_before;
    result.targetedRefreshes = mc.targetedRefreshes();
    if (mc.trackedPrecharges() > 0)
        result.avgTAggOnNs =
            toNs(mc.trackedOpenTime()) / double(mc.trackedPrecharges());
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
