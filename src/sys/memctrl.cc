#include "sys/memctrl.h"

#include <algorithm>

namespace rp::sys {

MemCtrl::MemCtrl(device::Chip &chip, Config cfg)
    : chip_(chip), cfg_(cfg)
{
    trr_.resize(std::size_t(chip_.org().totalBanks()),
                TrrEngine(cfg_.trr));
    nextRef_ = chip_.timing().tREFI;
}

std::uint64_t
MemCtrl::targetedRefreshes() const
{
    std::uint64_t total = 0;
    for (const auto &t : trr_)
        total += t.targetedRefreshes();
    return total;
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
    openTimeSum_ += iv.onTime();
    ++pres_;
    const std::uint64_t key = device::packRowKey(bank, iv.row);
    if (std::find(tracked_.begin(), tracked_.end(), key) != tracked_.end()) {
        trackedOpenTime_ += iv.onTime();
        ++trackedPres_;
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
MemCtrl::doRefresh(Time t)
{
    closeOpenRows(t);
    Time ref_at = std::max(t, now_);
    for (int b = 0; b < chip_.org().totalBanks(); ++b)
        ref_at = std::max(ref_at,
                          chip_.bank(b).earliest(dram::Command::REF));
    chip_.refresh(ref_at);
    now_ = ref_at + chip_.timing().tRFC;
    ++refs_;

    if (cfg_.trrEnabled) {
        // TRR piggybacks victim refreshes on the REF.
        for (int b = 0; b < chip_.org().totalBanks(); ++b) {
            for (int victim : trr_[std::size_t(b)].onRefresh()) {
                if (victim >= 0 && victim < chip_.org().rows)
                    chip_.refreshRow(b, victim, now_);
            }
        }
    }
}

void
MemCtrl::advanceTo(Time t)
{
    while (cfg_.autoRefresh && nextRef_ <= t) {
        doRefresh(nextRef_);
        nextRef_ += chip_.timing().tREFI;
    }
    now_ = std::max(now_, t);
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
        ++acts_;
        if (cfg_.trrEnabled)
            trr_[std::size_t(bank)].onActivate(row);
        t = act_at;
    }
    const Time rd_at = std::max(t + cfg_.columnOverhead,
                                bk.earliest(dram::Command::RD));
    const Time ready = chip_.read(bank, column, rd_at);
    now_ = std::max(now_, rd_at);
    return ready;
}

} // namespace rp::sys
