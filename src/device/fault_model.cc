#include "device/fault_model.h"

#include <algorithm>

#include "common/logging.h"

namespace rp::device {

FaultModel::FaultModel(const DieConfig &die, const dram::Organization &org,
                       std::uint64_t seed)
    : org_(org),
      cells_(die, org.columns * org.blockBytes * 8, seed),
      slotIndex_(std::size_t(org.totalBanks()))
{
}

const FaultModel::RowSlot *
FaultModel::findSlot(int bank, int row) const
{
    if (!bankTouched(bank) || row < 0 || row >= org_.rows)
        return nullptr;
    const std::uint32_t idx =
        slotIndex_[std::size_t(bank)][std::size_t(row)];
    return idx ? &slots_[idx - 1] : nullptr;
}

FaultModel::RowSlot &
FaultModel::slot(int bank, int row)
{
    if (bank < 0 || bank >= int(slotIndex_.size()) || row < 0 ||
        row >= org_.rows)
        panic("FaultModel: row (%d, %d) outside the %d x %d array", bank,
              row, int(slotIndex_.size()), org_.rows);
    auto &index = slotIndex_[std::size_t(bank)];
    if (index.empty())
        index.resize(std::size_t(org_.rows), 0);
    std::uint32_t &idx = index[std::size_t(row)];
    if (!idx) {
        slots_.push_back(RowSlot{});
        slots_.back().bank = bank;
        slots_.back().row = row;
        idx = std::uint32_t(slots_.size());
    }
    return slots_[idx - 1];
}

DoseState &
FaultModel::liveDose(int bank, int row)
{
    RowSlot &s = slot(bank, row);
    s.live = true;
    return s.dose;
}

void
FaultModel::onActivate(int bank, int row, Time now)
{
    // Hammer weight depends on how long this aggressor rested since it
    // was last closed (charge recombination; paper section 5.4).
    Time t_off = -1;
    if (const RowSlot *s = findSlot(bank, row); s && s->lastClose != kNever)
        t_off = now - s->lastClose;

    const double w = cells_.hammerOffWeight(t_off) *
                     cells_.tempFactors(temperatureC_).hammer;
    const auto &p = cells_.params();
    const double atten[4] = {0.0, 1.0, p.dist2Rh, p.dist3Rh};

    for (int d = 1; d <= 3; ++d) {
        for (int sign : {-1, +1}) {
            const int victim = row + sign * d;
            if (victim < 0 || victim >= org_.rows)
                continue;
            // The aggressor sits below (side 0) or above (side 1) the
            // victim.
            const int side = sign > 0 ? 0 : 1;
            const double inc = w * atten[d];
            liveDose(bank, victim).hammer[side] += inc;
            if (opRecorder_)
                opRecorder_->push_back({doseKey(bank, victim), side, inc});
        }
    }
}

void
FaultModel::onPrecharge(int bank, int row, Time open_at, Time close_at)
{
    slot(bank, row).lastClose = close_at;

    // The press-onset transient of each open interval contributes no
    // passing-gate stress (CellModelParams::pressOnset).
    const double on_time =
        double(close_at - open_at - cells_.params().pressOnset);
    if (on_time <= 0.0)
        return;
    const double scaled =
        on_time * cells_.tempFactors(temperatureC_).press;
    const auto &p = cells_.params();
    const double atten[4] = {0.0, 1.0, p.dist2Rp, p.dist3Rp};

    for (int d = 1; d <= 3; ++d) {
        for (int sign : {-1, +1}) {
            const int victim = row + sign * d;
            if (victim < 0 || victim >= org_.rows)
                continue;
            const int side = sign > 0 ? 0 : 1;
            const double inc = scaled * atten[d];
            liveDose(bank, victim).press[side] += inc;
            if (opRecorder_)
                opRecorder_->push_back(
                    {doseKey(bank, victim), 2 + side, inc});
        }
    }
}

void
FaultModel::onRestore(int bank, int row, Time now)
{
    RowSlot &s = slot(bank, row);
    s.dose = DoseState{};
    s.live = false;
    s.lastRestore = now;
}

const DoseState &
FaultModel::dose(int bank, int row) const
{
    static const DoseState zero;
    const RowSlot *s = findSlot(bank, row);
    return s ? s->dose : zero;
}

double
FaultModel::retentionSeconds(int bank, int row, Time now) const
{
    Time since = now;
    if (const RowSlot *s = findSlot(bank, row);
        s && s->lastRestore != kNever)
        since = now - s->lastRestore;
    if (since <= 0)
        return 0.0;
    return toSec(since) * cells_.tempFactors(temperatureC_).retention;
}

std::vector<std::pair<int, int>>
FaultModel::disturbedRows() const
{
    std::vector<std::pair<int, int>> rows;
    for (const RowSlot &s : slots_) {
        if (!s.dose.empty())
            rows.emplace_back(s.bank, s.row);
    }
    std::sort(rows.begin(), rows.end());
    return rows;
}

void
FaultModel::reset()
{
    // Keep the index allocations; only the touched entries need zeroing.
    for (const RowSlot &s : slots_)
        slotIndex_[std::size_t(s.bank)][std::size_t(s.row)] = 0;
    slots_.clear();
}

std::vector<DoseState>
FaultModel::snapshotDoses() const
{
    std::vector<DoseState> doses;
    doses.reserve(slots_.size());
    for (const RowSlot &s : slots_)
        doses.push_back(s.dose);
    return doses;
}

void
FaultModel::scaleDoseDelta(const std::vector<DoseState> &before,
                           double factor)
{
    if (factor <= 0.0)
        return;
    static const DoseState zero;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        RowSlot &slot = slots_[i];
        if (!slot.live)
            continue;
        // A slot that was not live at snapshot time recorded zero; one
        // created after it has no entry.
        const DoseState &prev = i < before.size() ? before[i] : zero;
        DoseState &cur = slot.dose;
        for (int s = 0; s < 2; ++s) {
            cur.hammer[s] += (cur.hammer[s] - prev.hammer[s]) * factor;
            cur.press[s] += (cur.press[s] - prev.press[s]) * factor;
        }
    }
}

void
FaultModel::shiftRowHistory(int bank, int row, Time delta)
{
    if (!findSlot(bank, row))
        return;
    RowSlot &s = slot(bank, row);
    if (s.lastClose != kNever)
        s.lastClose += delta;
    if (s.lastRestore != kNever)
        s.lastRestore += delta;
}

} // namespace rp::device
