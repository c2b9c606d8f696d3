/**
 * @file
 * Timing-checked DRAM bank state machine.
 *
 * The bank tracks its open/closed state, the identity of the open row,
 * and the earliest legal issue time of each command class.  It is the
 * shared substrate of both the DRAM-Bender-style test platform (which
 * *enforces* timings, since characterization programs must be legal)
 * and the performance simulator's command scheduler (which *queries*
 * earliest-issue times).
 *
 * Rank-level constraints (tRRD, tFAW, tCCD across banks, tRFC) are the
 * responsibility of the containing rank/controller model.
 */

#ifndef ROWPRESS_DRAM_BANK_H
#define ROWPRESS_DRAM_BANK_H

#include "common/units.h"
#include "dram/command.h"
#include "dram/timing.h"

namespace rp::dram {

/** One DRAM bank with command timing bookkeeping. */
class Bank
{
  public:
    /** The row-open interval closed by a PRE (fed to the fault model). */
    struct OpenInterval
    {
        int row;
        Time openAt;
        Time closeAt;

        Time onTime() const { return closeAt - openAt; }
    };

    explicit Bank(const TimingParams &timing) : timing_(&timing) {}

    bool isOpen() const { return open_; }
    int openRow() const { return openRow_; }
    Time openedAt() const { return openedAt_; }

    /** Earliest legal issue time of @p cmd in the current state. */
    Time earliest(Command cmd) const;

    /** True if @p cmd may legally issue at time @p now. */
    bool
    canIssue(Command cmd, Time now) const
    {
        return now >= earliest(cmd);
    }

    /** Open @p row at time @p now.  Fails fatally on protocol errors. */
    void act(int row, Time now);

    /** Column read at @p now; returns data-ready time. */
    Time read(Time now);

    /** Column write at @p now; returns write-recovery-complete time. */
    Time write(Time now);

    /** Close the open row; returns the open interval just ended. */
    OpenInterval pre(Time now);

    /** Apply a rank-level REF (bank must be closed). */
    void ref(Time now);

    /**
     * Move the open time and every earliest-issue time @p delta later,
     * as if the bank's history had happened @p delta later (a
     * fast-forward over whole repeating command cycles).
     */
    void shiftTiming(Time delta);

    /**
     * Take @p other's open row and timing history, moved @p delta
     * later (shiftTiming), keeping this bank's own timing parameters.
     */
    void copyStateOf(const Bank &other, Time delta);

  private:
    const TimingParams *timing_;

    bool open_ = false;
    int openRow_ = -1;
    Time openedAt_ = 0;

    Time earliestAct_ = 0;
    Time earliestPre_ = 0;
    Time earliestRead_ = 0;
    Time earliestWrite_ = 0;
};

} // namespace rp::dram

#endif // ROWPRESS_DRAM_BANK_H
