/**
 * @file
 * DRAM-Bender-equivalent test platform.
 *
 * Executes command-level test programs against a device::Chip while
 * enforcing DDR4 bank timings and the command-bus granularity of the
 * paper's FPGA infrastructure (one command per 1.5 ns).  Plays the
 * role of the Alveo U200 + DRAM Bender + heater/PID-controller rig of
 * paper Fig. 4:
 *
 *  - programs run with auto-refresh disabled (interference-source
 *    isolation, section 3.1) unless REF commands are issued explicitly;
 *  - a temperature-controller model holds the chip at a target
 *    temperature;
 *  - counted loops are fast-forwarded analytically once they reach
 *    steady state (dose accumulation per iteration is constant), so
 *    ACmin searches over millions of activations run in microseconds
 *    of host time while producing the same dose state as a concrete
 *    command-by-command execution.
 */

#ifndef ROWPRESS_BENDER_PLATFORM_H
#define ROWPRESS_BENDER_PLATFORM_H

#include <memory>
#include <vector>

#include "bender/program.h"
#include "device/chip.h"
#include "dram/address.h"

namespace rp::bender {

/** Platform construction parameters. */
struct PlatformConfig
{
    device::DieConfig die;
    dram::Organization org;
    dram::TimingParams timing = dram::benderTiming();
    std::uint64_t seed = 0x5AFA21;
    Time cmdGap = 1500;             ///< Command bus granularity (ps).
    double temperatureC = 50.0;
    /**
     * Loops at least this long are eligible for fast-forwarding: two
     * concrete iterations, `count - 3` extrapolated ones and a
     * concrete last one.  At least 4.
     */
    std::uint64_t fastForwardThreshold = 8;
};

/** The FPGA-based testing infrastructure model. */
class TestPlatform
{
  public:
    explicit TestPlatform(PlatformConfig cfg);

    device::Chip &chip() { return *chip_; }
    const device::Chip &chip() const { return *chip_; }
    const PlatformConfig &config() const { return cfg_; }
    const dram::TimingParams &timing() const { return cfg_.timing; }
    const dram::Organization &org() const { return cfg_.org; }
    Time cmdGap() const { return cfg_.cmdGap; }
    std::uint64_t fastForwardThreshold() const
    {
        return cfg_.fastForwardThreshold;
    }

    /** Temperature controller (instantaneous settling model). */
    void setTemperature(double temp_c);
    double temperature() const { return chip_->temperature(); }

    /** Current command-bus time. */
    Time now() const { return nextFree_; }

    /**
     * Execute @p program; returns the elapsed command-bus time.  The
     * paper's methodology requires every test program to finish within
     * 60 ms (strictly inside the 64 ms refresh window).
     */
    Time run(const Program &program);

    // --- convenience wrappers for harness code ---

    /** Fill a row with a pattern byte (functional write + restore). */
    void fillRow(int bank, int row, std::uint8_t fill);

    /** Materialize and return the bitflips of a row. */
    std::vector<device::FlipRecord>
    checkRow(int bank, int row, bool full_scan = false);

    /**
     * Allocation-free checkRow: appends the flips to @p out.  Each
     * row's materialization is independent — the chip evaluates the
     * row's own accumulated dose against its own damage bound and
     * clears it — so callers may partition a victim set across engine
     * tasks and concatenate the per-row results; the BER drivers'
     * one-victim tasks rely on this.
     */
    void checkRowInto(int bank, int row, bool full_scan,
                      std::vector<device::FlipRecord> &out);

    /**
     * Non-destructive probe: would @p row show any flip if inspected
     * now?  Unlike checkRow, nothing is latched or cleared, so search
     * layers (fuzz minimum-cost checkpoints) may poll mid-pattern
     * without perturbing subsequent dose accumulation.
     */
    bool rowWouldFlip(int bank, int row) const
    {
        return chip_->rowWouldFlip(bank, row, nextFree_);
    }

    /**
     * Take @p src's command clock and last issue time, the timing
     * state of its bank @p bank and the close/restore history of that
     * bank's @p rows, all moved @p shift later (kNever stays); doses,
     * stored data and other rows stay as they are.  A program that
     * activates only @p rows then takes the same time and deposits
     * the same doses here as on @p src, given the same cell model and
     * temperature (chr::AttemptOracle's start state).
     */
    void copyStateOf(const TestPlatform &src, int bank,
                     const std::vector<int> &rows, Time shift = 0);

    // --- steady-state dose-delta extraction (chr::AttemptOracle) ---

    /** One traced execution: its dose ops (deposits and restores) and
     *  its duration. */
    struct TracedRun
    {
        std::vector<device::FaultModel::DoseOp> ops;
        Time duration = 0;
    };

    /**
     * Execute @p program while recording every dose accumulation and
     * row restore it performs.  Running a loop body this way, iteration
     * by iteration, measures the warm-up and steady-state per-iteration
     * dose deltas that the loop fast-forward path scales analytically —
     * exposed so the ACmin/tAggONmin attempt oracle can replay whole
     * attempts without re-executing their programs.
     */
    TracedRun runTraced(const Program &program);

    /**
     * The clock jump of the loop fast-forward, as a public primitive:
     * advance the command clock by @p jump and shift the close/restore
     * history of @p act_rows (bank, row pairs) along with it, exactly
     * as the steady-state extrapolation inside run() does.
     */
    void fastForwardBy(Time jump,
                       const std::vector<std::pair<int, int>> &act_rows);

  private:
    void execNodes(const std::vector<ProgramNode> &nodes);
    void execCmd(const ProgramNode &n);
    void execLoop(const ProgramNode &n);

    static bool containsRef(const std::vector<ProgramNode> &nodes);
    static void collectActRows(const std::vector<ProgramNode> &nodes,
                               std::vector<std::pair<int, int>> &out);

    PlatformConfig cfg_;
    std::unique_ptr<device::Chip> chip_;

    Time nextFree_ = 0;     ///< Earliest time the command bus is free.
    Time lastIssue_ = 0;    ///< Issue time of the last command.
};

} // namespace rp::bender

#endif // ROWPRESS_BENDER_PLATFORM_H
