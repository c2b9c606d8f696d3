#include "sys/memctrl.h"

#include <algorithm>

namespace rp::sys {

MemCtrl::MemCtrl(device::Chip &chip, Config cfg)
    : chip_(chip), cfg_(cfg)
{
    nextRef_ = chip_.timing().tREFI;
    nextWindow_ = chip_.timing().tREFW;
}

void
MemCtrl::trackRow(int bank, int row)
{
    const std::uint64_t key = device::packRowKey(bank, row);
    if (std::find(tracked_.begin(), tracked_.end(), key) == tracked_.end())
        tracked_.push_back(key);
}

void
MemCtrl::recordInterval(int bank, const dram::Bank::OpenInterval &iv)
{
    ++n_.pres;
    const std::uint64_t key = device::packRowKey(bank, iv.row);
    if (std::find(tracked_.begin(), tracked_.end(), key) != tracked_.end()) {
        n_.trackedOpenTime += iv.onTime();
        ++n_.trackedPres;
    }
}

void
MemCtrl::closeOpenRows(Time t)
{
    for (int b = 0; b < chip_.org().totalBanks(); ++b) {
        auto &bank = chip_.bank(b);
        if (bank.isOpen()) {
            const Time pre_at =
                std::max(t, bank.earliest(dram::Command::PRE));
            auto interval = chip_.pre(b, pre_at);
            recordInterval(b, interval);
            now_ = std::max(now_, pre_at);
        }
    }
}

void
MemCtrl::refreshVictims(int bank, Time t)
{
    for (int victim : victims_) {
        if (victim >= 0 && victim < chip_.org().rows)
            chip_.refreshRow(bank, victim, t);
    }
}

void
MemCtrl::doRefresh(Time t)
{
    closeOpenRows(t);
    Time ref_at = std::max(t, now_);
    for (int b = 0; b < chip_.org().totalBanks(); ++b)
        ref_at = std::max(ref_at,
                          chip_.bank(b).earliest(dram::Command::REF));
    chip_.refresh(ref_at);
    now_ = ref_at + chip_.timing().tRFC;
    ++n_.refs;

    if (!cfg_.mitigation)
        return;
    // The mitigation piggybacks victim refreshes on each bank's REF.
    for (int b = 0; b < chip_.org().totalBanks(); ++b) {
        victims_.clear();
        cfg_.mitigation->onRefresh(b, victims_);
        if (!victims_.empty())
            ++n_.targeted;
        refreshVictims(b, now_);
    }
    if (t >= nextWindow_) {
        cfg_.mitigation->onRefreshWindow();
        nextWindow_ += chip_.timing().tREFW;
    }
}

void
MemCtrl::advanceTo(Time t)
{
    while (nextRef_ <= t) {
        doRefresh(nextRef_);
        nextRef_ += chip_.timing().tREFI;
    }
    now_ = std::max(now_, t);
}

std::uint64_t
MemCtrl::refreshesBeforeWindow() const
{
    if (nextRef_ >= nextWindow_)
        return 0;
    const Time refi = chip_.timing().tREFI;
    return std::uint64_t((nextWindow_ - nextRef_ + refi - 1) / refi);
}

void
MemCtrl::repeatCycle(std::uint64_t cycles, Time span, const Counters &start)
{
    const std::uint64_t skipped_refs = cycles * (n_.refs - start.refs);
    n_.acts += cycles * (n_.acts - start.acts);
    n_.pres += cycles * (n_.pres - start.pres);
    n_.refs += skipped_refs;
    n_.targeted += cycles * (n_.targeted - start.targeted);
    n_.trackedOpenTime +=
        Time(cycles) * (n_.trackedOpenTime - start.trackedOpenTime);
    n_.trackedPres += cycles * (n_.trackedPres - start.trackedPres);

    const Time jump = Time(cycles) * span;
    now_ += jump;
    nextRef_ += jump;
    for (int b = 0; b < chip_.org().totalBanks(); ++b)
        chip_.bank(b).shiftTiming(jump);
    chip_.skipRefreshes(skipped_refs);
}

Time
MemCtrl::readBlock(int bank, int row, int column, Time arrive)
{
    advanceTo(arrive);
    Time t = std::max(now_, arrive);

    auto &bk = chip_.bank(bank);
    if (bk.isOpen() && bk.openRow() != row) {
        const Time pre_at = std::max(t, bk.earliest(dram::Command::PRE));
        auto interval = chip_.pre(bank, pre_at);
        recordInterval(bank, interval);
        t = pre_at;
    }
    if (!bk.isOpen()) {
        const Time act_at = std::max(t, bk.earliest(dram::Command::ACT));
        chip_.act(bank, row, act_at);
        ++n_.acts;
        if (cfg_.mitigation) {
            victims_.clear();
            cfg_.mitigation->onActivate(bank, row, victims_);
            refreshVictims(bank, act_at);
        }
        t = act_at;
    }
    const Time rd_at = std::max(t + cfg_.columnOverhead,
                                bk.earliest(dram::Command::RD));
    const Time ready = chip_.read(bank, column, rd_at);
    now_ = std::max(now_, rd_at);
    return ready;
}

} // namespace rp::sys
