/**
 * @file
 * Adaptive-open-row memory controller of the real-system demo.
 *
 * Models the behaviour the paper verifies in section 6.3: the
 * controller keeps a DRAM row open while requests keep hitting it, so
 * a program that reads many cache blocks of the same row stretches the
 * aggressor's tAggON.  Auto-refresh fires every tREFI; an optional
 * mitigation (the demo's in-DRAM TRR) sees every ACT and every bank's
 * REF, and the victims it returns are refreshed on the spot.
 */

#ifndef ROWPRESS_SYS_MEMCTRL_H
#define ROWPRESS_SYS_MEMCTRL_H

#include <cstdint>
#include <vector>

#include "device/chip.h"
#include "mitigation/mitigation.h"

namespace rp::sys {

/** Single-channel memory controller over a device::Chip. */
class MemCtrl
{
  public:
    struct Config
    {
        /** Optional mitigation (not owned). */
        mitigation::Mitigation *mitigation = nullptr;
        /** Extra on-die queuing/arbitration cost per column access. */
        Time columnOverhead = 4 * units::NS;
    };

    /** Everything the controller counts. */
    struct Counters
    {
        std::uint64_t acts = 0;
        std::uint64_t pres = 0;
        std::uint64_t refs = 0;
        /** Per-bank REFs whose mitigation hook returned any victim. */
        std::uint64_t targeted = 0;
        /** Open time and PREs of the tracked rows. */
        Time trackedOpenTime = 0;
        std::uint64_t trackedPres = 0;
    };

    MemCtrl(device::Chip &chip, Config cfg);

    device::Chip &chip() { return chip_; }
    Time now() const { return now_; }
    Time nextRefreshAt() const { return nextRef_; }
    const Counters &counters() const { return n_; }

    /** Track a row's open intervals (e.g., the demo's aggressors). */
    void trackRow(int bank, int row);

    /**
     * REFs that will issue before the first one at or past the next
     * tREFW boundary, the one that calls onRefreshWindow.
     */
    std::uint64_t refreshesBeforeWindow() const;

    /**
     * Repeat, @p cycles more times, the command cycle that began when
     * the counters read @p start and ends now, @p span later: the
     * clock, the next REF and every bank's timing move @p cycles x
     * @p span on, each counter grows by @p cycles times its growth over
     * the cycle, and the chip's refresh stripe moves on by the skipped
     * REFs, none of which restores a row.  Sound only for a cycle
     * proven to repeat exactly, whose skipped REFs restore no row the
     * caller still reads and stay short of refreshesBeforeWindow().
     */
    void repeatCycle(std::uint64_t cycles, Time span, const Counters &start);

    /**
     * Serve a cache-block read arriving at @p arrive; returns the
     * data-ready time.  Opens the row if needed; an open row stays
     * open (adaptive open-row policy).
     */
    Time readBlock(int bank, int row, int column, Time arrive);

    /** Let wall-clock advance to @p t, performing due refreshes. */
    void advanceTo(Time t);

  private:
    void doRefresh(Time t);
    void closeOpenRows(Time t);
    /** Refresh the in-range rows of victims_ in @p bank. */
    void refreshVictims(int bank, Time t);

    device::Chip &chip_;
    Config cfg_;
    Time now_ = 0;
    Time nextRef_ = 0;
    Time nextWindow_ = 0;
    Counters n_;
    std::vector<int> victims_; ///< Reused victim buffer of the hooks.
    /** device::packRowKey of each tracked row (a handful per demo). */
    std::vector<std::uint64_t> tracked_;

    void recordInterval(int bank, const dram::Bank::OpenInterval &iv);
};

} // namespace rp::sys

#endif // ROWPRESS_SYS_MEMCTRL_H
