/**
 * @file
 * Real-system demonstration of RowPress (paper section 6 and
 * Appendix G): user-level access patterns (Algorithms 1 and 2) driven
 * through a cache model and an adaptive-open-row memory controller
 * against a TRR-protected DDR4 chip model.
 */

#ifndef ROWPRESS_SYS_DEMO_H
#define ROWPRESS_SYS_DEMO_H

#include <cstdint>

#include "common/stats.h"
#include "device/chip.h"
#include "sys/memctrl.h"

namespace rp::sys {

/** Parameters of the demonstration program (Algorithm 1 / 2). */
struct DemoConfig
{
    /** The demo system's module: Samsung 8Gb C-die (section 6.1). */
    std::string dieId = "S-8Gb-C";
    /** DIMM temperature of the loaded system under sustained attack. */
    double temperatureC = 65.0;

    int numAggrActs = 4;      ///< NUM_AGGR_ACTS.
    int numReads = 16;        ///< NUM_READS (cache blocks per ACT).
    int numIters = 24000;     ///< NUM_ITER (scaled from the paper's 800K).
    int numVictims = 12;      ///< Victim rows tested (paper: 1500).

    int numDummies = 16;      ///< TRR-bypass dummy rows (section 6.2).
    int dummyActsPerIter = 4; ///< Activations per dummy per iteration.

    /** Algorithm 2: flush each block right after reading it. */
    bool interleavedFlush = false;
    bool syncWithRefresh = true;

    // Core-side timing.  The effective per-read row-open contribution
    // (~24 ns: uncore + fill-buffer contention with the in-loop
    // flushes) is set so that the aggressor phase outgrows a tREFI
    // slot between NUM_READS = 32 and 48, where the paper's bitflip
    // counts collapse (Obsv. 21).  Each dummy access is a flushed,
    // fenced read (~150 ns).
    Time readSpacing = 24 * units::NS;
    Time flushCost = 6 * units::NS;
    Time mfenceCost = 45 * units::NS;
    /** Dummy accesses are plain read+flush pairs (no fence): the
     *  64-activation dummy phase takes ~2 us and sits right before
     *  the REF the iteration synchronizes on. */
    Time dummySpacing = 30 * units::NS;

    std::uint64_t seed = 1;
};

/** Outcome of one demo run (one cell of Fig. 23 / Fig. 49). */
struct DemoResult
{
    std::uint64_t totalBitflips = 0;
    int rowsWithBitflips = 0;
    double avgTAggOnNs = 0.0;     ///< Measured mean aggressor on-time.
    /** Every ACT of the run, dummy-row ACTs included (the name is
     *  older than the dummy rows). */
    std::uint64_t aggressorActs = 0;
    std::uint64_t targetedRefreshes = 0;
    /** Iterations accounted for by replaying a proven cycle rather
     *  than simulated command by command. */
    std::uint64_t replayedIterations = 0;
};

/**
 * Run the demonstration program over all victim rows.
 *
 * Once an iteration starts from the same control state as one up to
 * 16 iterations earlier, the iterations in between form a cycle that
 * repeats exactly until the next REF that refreshes the victim row or
 * reaches a tREFW boundary.  runDemo skips whole cycles up to there:
 * it replays the victim row's recorded dose deposits and restores and
 * advances the controller by whole cycles, so every DemoResult field
 * equals that of simulating each command.  Throws
 * std::invalid_argument if the victims do not fit the bank
 * (maxDemoVictims).
 */
DemoResult runDemo(const DemoConfig &cfg);

/**
 * Most victims runDemo can lay out in one bank of the default
 * organisation: victim v sits at row 2048 + 512 v, with @p cfg's
 * dummy rows 128 to 248 rows above it (124 victims with 16 dummies).
 */
int maxDemoVictims(const DemoConfig &cfg);

/** Result of the row-open-time verification probe (Fig. 24). */
struct LatencyProbeResult
{
    Histogram first;        ///< First cache-block access (needs ACT).
    Histogram rest;         ///< Subsequent accesses (row already open).
    double medianFirstCycles = 0.0;
    double medianRestCycles = 0.0;
};

/**
 * Reproduce the section 6.3 verification: measure per-cache-block load
 * latency for the first vs the remaining blocks of a freshly-closed
 * DRAM row.  @p cpu_ghz converts the controller's timings to the
 * time-stamp-counter cycles the paper reports.
 */
LatencyProbeResult rowOpenLatencyProbe(int trials = 100000,
                                       double cpu_ghz = 1.3,
                                       std::uint64_t seed = 1);

} // namespace rp::sys

#endif // ROWPRESS_SYS_DEMO_H
