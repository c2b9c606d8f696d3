/**
 * @file
 * Adaptive-open-row memory controller of the real-system demo.
 *
 * Models the behaviour the paper verifies in section 6.3: the
 * controller keeps a DRAM row open while requests keep hitting it, so
 * a program that reads many cache blocks of the same row stretches the
 * aggressor's tAggON.  Auto-refresh fires every tREFI and drives the
 * in-DRAM TRR engine.
 */

#ifndef ROWPRESS_SYS_MEMCTRL_H
#define ROWPRESS_SYS_MEMCTRL_H

#include <cstdint>
#include <vector>

#include "device/chip.h"
#include "sys/trr.h"

namespace rp::sys {

/** Single-channel memory controller over a device::Chip. */
class MemCtrl
{
  public:
    struct Config
    {
        bool autoRefresh = true;
        bool trrEnabled = true;
        TrrEngine::Config trr;
        /** Extra on-die queuing/arbitration cost per column access. */
        Time columnOverhead = 4 * units::NS;
    };

    MemCtrl(device::Chip &chip, Config cfg);

    device::Chip &chip() { return chip_; }
    Time now() const { return now_; }
    Time nextRefreshAt() const { return nextRef_; }
    std::uint64_t refreshesIssued() const { return refs_; }
    std::uint64_t activates() const { return acts_; }
    std::uint64_t precharges() const { return pres_; }
    /** Cumulative row-open time across all precharged intervals. */
    Time openTimeSum() const { return openTimeSum_; }

    /** Track a row's open intervals (e.g., the demo's aggressors). */
    void trackRow(int bank, int row);
    Time trackedOpenTime() const { return trackedOpenTime_; }
    std::uint64_t trackedPrecharges() const { return trackedPres_; }

    /** Total targeted (TRR) refreshes across banks. */
    std::uint64_t targetedRefreshes() const;

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

    device::Chip &chip_;
    Config cfg_;
    std::vector<TrrEngine> trr_;
    Time now_ = 0;
    Time nextRef_ = 0;
    std::uint64_t refs_ = 0;
    std::uint64_t acts_ = 0;
    std::uint64_t pres_ = 0;
    Time openTimeSum_ = 0;
    /** device::packRowKey of each tracked row (a handful per demo). */
    std::vector<std::uint64_t> tracked_;
    Time trackedOpenTime_ = 0;
    std::uint64_t trackedPres_ = 0;

    void recordInterval(int bank, const dram::Bank::OpenInterval &iv);
};

} // namespace rp::sys

#endif // ROWPRESS_SYS_MEMCTRL_H
