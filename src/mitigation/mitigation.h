/**
 * @file
 * Read-disturbance mitigation interface: the one way every memory
 * controller model (sys::MemCtrl, sim::Controller) and the fuzz
 * pre-simulation drive a mitigation (paper sections 6 and 7).
 *
 * A mitigation observes every row activation and every per-bank REF,
 * and may request *preventive refreshes* of potential victim rows at
 * either; the host decides what a refresh costs (sim::Controller
 * charges one row cycle per refreshed row).
 */

#ifndef ROWPRESS_MITIGATION_MITIGATION_H
#define ROWPRESS_MITIGATION_MITIGATION_H

#include <cstdint>
#include <string>
#include <vector>

namespace rp::mitigation {

/** Base class for activation- and refresh-triggered mechanisms. */
class Mitigation
{
  public:
    virtual ~Mitigation() = default;

    virtual std::string name() const = 0;

    /**
     * Observe an activation of @p row in @p flat_bank; append any
     * victim rows that must be preventively refreshed to @p victims.
     */
    virtual void onActivate(int flat_bank, int row,
                            std::vector<int> &victims) = 0;

    /**
     * A REF command reached @p flat_bank; append any victim rows to
     * refresh alongside it to @p victims (in-DRAM TRR's hook).
     */
    virtual void
    onRefresh(int flat_bank, std::vector<int> &victims)
    {
        (void)flat_bank;
        (void)victims;
    }

    /** Called at every refresh-window (tREFW) boundary. */
    virtual void onRefreshWindow() {}

    /** Victim-row refreshes requested so far. */
    std::uint64_t preventiveRefreshes() const { return preventive_; }

  protected:
    std::uint64_t preventive_ = 0;
};

} // namespace rp::mitigation

#endif // ROWPRESS_MITIGATION_MITIGATION_H
