/**
 * @file
 * Concrete-only reference of sys::runDemo, a test-only copy.
 *
 * This is runDemo's program loop without the cycle replay: it
 * simulates every read, ACT, PRE and REF of every iteration.  The
 * differential test (sys_demo_replay_test.cc) holds the production
 * runDemo to exact equality with it on every DemoResult field it
 * fills.  Keep it a faithful copy: it must reproduce sys_demo_test's
 * pinned values.
 */

#ifndef ROWPRESS_TESTS_DEMO_REFERENCE_H
#define ROWPRESS_TESTS_DEMO_REFERENCE_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dram/timing.h"
#include "mitigation/trr.h"
#include "sys/cache.h"
#include "sys/demo.h"

namespace rp::sys {

/**
 * runDemo, simulating every command; replayedIterations stays 0.  If
 * @p refs is set, it receives the number of REFs the run issued.
 */
inline DemoResult
runDemoConcrete(const DemoConfig &cfg, std::uint64_t *refs = nullptr)
{
    using namespace rp::literals;

    auto line_addr = [](int bank, int row, int column) {
        return (std::uint64_t(std::uint32_t(bank)) << 40) |
               (std::uint64_t(std::uint32_t(row)) << 8) |
               std::uint32_t(column);
    };

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

    for (int v = 0; v < cfg.numVictims; ++v) {
        const int victim = 2048 + v * 512;
        const int aggr[2] = {victim - 1, victim + 1};
        std::vector<int> dummies;
        for (int d = 0; d < cfg.numDummies; ++d)
            dummies.push_back(victim + 128 + d * 8);

        mc.trackRow(bank, aggr[0]);
        mc.trackRow(bank, aggr[1]);

        Time t = mc.now();
        chip.fillRow(bank, victim, 0x55, t);
        chip.fillRow(bank, aggr[0], 0xAA, t);
        chip.fillRow(bank, aggr[1], 0xAA, t);
        for (int d : dummies)
            chip.fillRow(bank, d, 0x00, t);

        const Time spacing = cfg.interleavedFlush
                                 ? cfg.readSpacing + 4 * cfg.flushCost
                                 : cfg.readSpacing;

        for (int iter = 0; iter < cfg.numIters; ++iter) {
            if (cfg.syncWithRefresh) {
                mc.advanceTo(mc.nextRefreshAt());
                t = std::max(t, mc.now());
            }

            for (int a = 0; a < cfg.numAggrActs; ++a) {
                for (int side = 0; side < 2; ++side) {
                    for (int j = 0; j < cfg.numReads; ++j) {
                        const std::uint64_t la =
                            line_addr(bank, aggr[side], j);
                        if (cache.load(la))
                            continue;
                        const Time ready =
                            mc.readBlock(bank, aggr[side], j, t);
                        t = std::max(t + spacing, ready - 40_ns);
                        if (cfg.interleavedFlush)
                            cache.clflush(la);
                    }
                }
                if (!cfg.interleavedFlush) {
                    for (int side = 0; side < 2; ++side) {
                        for (int j = 0; j < cfg.numReads; ++j)
                            cache.clflush(line_addr(bank, aggr[side], j));
                    }
                    t += Time(2 * cfg.numReads) * cfg.flushCost;
                }
                t += cfg.mfenceCost;
            }

            for (int rep = 0; rep < cfg.dummyActsPerIter; ++rep) {
                for (int d : dummies) {
                    const std::uint64_t la = line_addr(bank, d, 0);
                    cache.clflush(la);
                    const Time ready = mc.readBlock(bank, d, 0, t);
                    t = std::max(t + cfg.dummySpacing, ready - 40_ns);
                    cache.load(la);
                }
            }

            mc.advanceTo(t);
            t = std::max(t, mc.now());
        }

        chip.materializeRow(bank, victim, mc.now());
        const auto flips = chip.storedFlipBits(bank, victim);
        result.totalBitflips += flips.size();
        if (!flips.empty())
            ++result.rowsWithBitflips;

        cache.clear();
    }

    const MemCtrl::Counters &n = mc.counters();
    result.aggressorActs = n.acts;
    result.targetedRefreshes = n.targeted;
    if (n.trackedPres > 0)
        result.avgTAggOnNs = toNs(n.trackedOpenTime) / double(n.trackedPres);
    if (refs)
        *refs = n.refs;
    return result;
}

} // namespace rp::sys

#endif // ROWPRESS_TESTS_DEMO_REFERENCE_H
