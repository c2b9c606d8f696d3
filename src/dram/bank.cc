#include "dram/bank.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace rp::dram {

Time
Bank::earliest(Command cmd) const
{
    switch (cmd) {
      case Command::ACT:
        return open_ ? std::numeric_limits<Time>::max() : earliestAct_;
      case Command::PRE:
        return open_ ? earliestPre_ : earliestAct_;
      case Command::RD:
        return open_ ? earliestRead_ : std::numeric_limits<Time>::max();
      case Command::WR:
        return open_ ? earliestWrite_ : std::numeric_limits<Time>::max();
      case Command::REF:
        return open_ ? std::numeric_limits<Time>::max() : earliestAct_;
      default:
        return 0;
    }
}

void
Bank::act(int row, Time now)
{
    if (open_)
        panic("ACT to open bank (row %d open since %s)", openRow_,
              formatTime(openedAt_).c_str());
    if (now < earliestAct_)
        panic("ACT at %s violates tRP/tRFC (earliest %s)",
              formatTime(now).c_str(), formatTime(earliestAct_).c_str());

    open_ = true;
    openRow_ = row;
    openedAt_ = now;
    earliestPre_ = now + timing_->tRAS;
    earliestRead_ = now + timing_->tRCD;
    earliestWrite_ = now + timing_->tRCD;
}

Time
Bank::read(Time now)
{
    if (!open_)
        panic("RD to closed bank at %s", formatTime(now).c_str());
    if (now < earliestRead_)
        panic("RD at %s violates tRCD/tCCD (earliest %s)",
              formatTime(now).c_str(), formatTime(earliestRead_).c_str());

    earliestRead_ = now + timing_->tCCDL;
    earliestWrite_ = std::max(earliestWrite_, now + timing_->tCCDL);
    earliestPre_ = std::max(earliestPre_, now + timing_->tRTP);
    return now + timing_->tCL + timing_->tBL;
}

Time
Bank::write(Time now)
{
    if (!open_)
        panic("WR to closed bank at %s", formatTime(now).c_str());
    if (now < earliestWrite_)
        panic("WR at %s violates tRCD/tCCD (earliest %s)",
              formatTime(now).c_str(), formatTime(earliestWrite_).c_str());

    Time done = now + timing_->tCWL + timing_->tBL + timing_->tWR;
    earliestWrite_ = now + timing_->tCCDL;
    earliestRead_ = std::max(earliestRead_,
                             now + timing_->tCWL + timing_->tBL +
                                 timing_->tWTRL);
    earliestPre_ = std::max(earliestPre_, done);
    return done;
}

Bank::OpenInterval
Bank::pre(Time now)
{
    if (!open_)
        panic("PRE to closed bank at %s", formatTime(now).c_str());
    if (now < earliestPre_)
        panic("PRE at %s violates tRAS/tRTP/tWR (earliest %s)",
              formatTime(now).c_str(), formatTime(earliestPre_).c_str());

    OpenInterval interval{openRow_, openedAt_, now};
    open_ = false;
    openRow_ = -1;
    earliestAct_ = now + timing_->tRP;
    return interval;
}

void
Bank::ref(Time now)
{
    if (open_)
        panic("REF with open bank (row %d) at %s", openRow_,
              formatTime(now).c_str());
    if (now < earliestAct_)
        panic("REF at %s violates tRP (earliest %s)",
              formatTime(now).c_str(), formatTime(earliestAct_).c_str());

    earliestAct_ = now + timing_->tRFC;
}

void
Bank::shiftTiming(Time delta)
{
    openedAt_ += delta;
    earliestAct_ += delta;
    earliestPre_ += delta;
    earliestRead_ += delta;
    earliestWrite_ += delta;
}

void
Bank::copyStateOf(const Bank &other, Time delta)
{
    const TimingParams *own = timing_;
    *this = other;
    timing_ = own;
    shiftTiming(delta);
}

} // namespace rp::dram
