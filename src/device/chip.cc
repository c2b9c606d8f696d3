#include "device/chip.h"

#include <algorithm>

#include "common/logging.h"

namespace rp::device {

Chip::Chip(const DieConfig &die, dram::Organization org,
           dram::TimingParams timing, std::uint64_t seed)
    : org_(org), timing_(timing), fault_(die, org, seed)
{
    banks_.reserve(std::size_t(org_.totalBanks()));
    for (int b = 0; b < org_.totalBanks(); ++b)
        banks_.emplace_back(timing_);
    rowsPerRef_ = std::max(1, org_.rows / 8192);
}

dram::Bank &
Chip::bank(int b)
{
    if (b < 0 || b >= int(banks_.size()))
        panic("bank index %d out of range", b);
    return banks_[std::size_t(b)];
}

const dram::Bank &
Chip::bank(int b) const
{
    return const_cast<Chip *>(this)->bank(b);
}

void
Chip::restoreRow(int b, int row, Time now)
{
    const DoseState &dose = fault_.dose(b, row);
    const double ret = fault_.retentionSeconds(b, row, now);
    if (dose.empty() && ret <= 0.0) {
        fault_.onRestore(b, row, now);
        return;
    }

    // One cannot-flip proof for the whole model: the same rigorous
    // bound the candidate-path evaluate gates on (damage below 0.5 is
    // below the noise threshold, so no draw can flip), backed by the
    // shared ThresholdStore's precomputed row minima.
    if (!fault_.cells().rowMayFlip(b, row, dose, ret,
                                   fault_.temperature())) {
        fault_.onRestore(b, row, now);
        return;
    }

    materializeRow(b, row, now, false);
}

void
Chip::act(int b, int row, Time now)
{
    bank(b).act(row, now);
    // Opening the row restores its own cells (latching any flips the
    // accumulated dose already caused) and disturbs its neighbors.
    restoreRow(b, row, now);
    fault_.onActivate(b, row, now);
}

dram::Bank::OpenInterval
Chip::pre(int b, Time now)
{
    auto interval = bank(b).pre(now);
    fault_.onPrecharge(b, interval.row, interval.openAt, interval.closeAt);
    return interval;
}

Time
Chip::read(int b, int column, Time now)
{
    (void)column;
    return bank(b).read(now);
}

Time
Chip::write(int b, int column, Time now)
{
    (void)column;
    return bank(b).write(now);
}

void
Chip::refresh(Time now)
{
    for (auto &bk : banks_)
        bk.ref(now);

    const int lo = refreshPtr_;
    const int hi = std::min(org_.rows, refreshPtr_ + rowsPerRef_);
    refreshPtr_ = hi >= org_.rows ? 0 : hi;

    // Restore the stripe's rows that carry dose or stored data, in
    // (bank, row) order.  Storing data restores the row (fillRow,
    // materializeRowInto), so a row the fault model never touched has
    // neither and needs no data lookup.
    for (int b = 0; b < int(banks_.size()); ++b) {
        if (!fault_.bankTouched(b))
            continue;
        for (int r = lo; r < hi; ++r) {
            if (fault_.touched(b, r) &&
                (!fault_.dose(b, r).empty() || data_.count(key(b, r))))
                restoreRow(b, r, now);
        }
    }
}

void
Chip::refreshRow(int b, int row, Time now)
{
    restoreRow(b, row, now);
}

void
Chip::fillRow(int b, int row, std::uint8_t fill, Time now)
{
    RowData &rd = data_[key(b, row)];
    rd.fill = fill;
    rd.overrides.clear();
    fault_.onRestore(b, row, now);
}

std::uint8_t
Chip::rowFill(int b, int row) const
{
    auto it = data_.find(key(b, row));
    return it != data_.end() ? it->second.fill : 0x00;
}

std::uint8_t
Chip::readByte(int b, int row, int byte_idx) const
{
    auto it = data_.find(key(b, row));
    if (it == data_.end())
        return 0x00;
    auto ov = it->second.overrides.find(byte_idx);
    return ov != it->second.overrides.end() ? ov->second
                                            : it->second.fill;
}

void
Chip::materializeRowInto(int b, int row, Time now, bool full_scan,
                         std::vector<FlipRecord> &out)
{
    RowData &rd = data_[key(b, row)];

    RowContext ctx;
    DoseState dose = fault_.dose(b, row);
    ctx.dose = &dose;
    ctx.victimFill = rd.fill;
    ctx.victimOverrides = &rd.overrides;
    ctx.aggrFill[0] = row > 0 ? rowFill(b, row - 1) : 0x00;
    ctx.aggrFill[1] = row + 1 < org_.rows ? rowFill(b, row + 1) : 0x00;
    ctx.retentionSeconds = fault_.retentionSeconds(b, row, now);
    ctx.noiseSigma = fault_.evalNoiseSigma();
    ctx.noiseNonce = std::uint64_t(now);

    const std::size_t first = out.size();
    fault_.cells().evaluateInto(b, row, ctx, full_scan,
                                fault_.temperature(), out);

    for (std::size_t i = first; i < out.size(); ++i) {
        const FlipRecord &f = out[i];
        const int byte_idx = f.bit >> 3;
        auto ov = rd.overrides.find(byte_idx);
        std::uint8_t cur = ov != rd.overrides.end() ? ov->second : rd.fill;
        cur = std::uint8_t(cur ^ (1u << (f.bit & 7)));
        rd.overrides[byte_idx] = cur;
    }

    fault_.onRestore(b, row, now);
}

void
Chip::peekRowInto(int b, int row, Time now, bool full_scan,
                  std::vector<FlipRecord> &out) const
{
    static const std::unordered_map<int, std::uint8_t> no_overrides;
    auto it = data_.find(key(b, row));

    RowContext ctx;
    DoseState dose = fault_.dose(b, row);
    ctx.dose = &dose;
    ctx.victimFill = it != data_.end() ? it->second.fill : 0x00;
    ctx.victimOverrides =
        it != data_.end() ? &it->second.overrides : &no_overrides;
    ctx.aggrFill[0] = row > 0 ? rowFill(b, row - 1) : 0x00;
    ctx.aggrFill[1] = row + 1 < org_.rows ? rowFill(b, row + 1) : 0x00;
    ctx.retentionSeconds = fault_.retentionSeconds(b, row, now);
    ctx.noiseSigma = fault_.evalNoiseSigma();
    ctx.noiseNonce = std::uint64_t(now);

    fault_.cells().evaluateInto(b, row, ctx, full_scan,
                                fault_.temperature(), out);
}

bool
Chip::rowWouldFlip(int b, int row, Time now) const
{
    const DoseState &dose = fault_.dose(b, row);
    const double ret = fault_.retentionSeconds(b, row, now);
    if (dose.empty() && ret <= 0.0)
        return false;
    if (!fault_.cells().rowMayFlip(b, row, dose, ret,
                                   fault_.temperature()))
        return false;
    thread_local std::vector<FlipRecord> probe;
    probe.clear();
    peekRowInto(b, row, now, /*full_scan=*/false, probe);
    return !probe.empty();
}

std::vector<FlipRecord>
Chip::materializeRow(int b, int row, Time now, bool full_scan)
{
    std::vector<FlipRecord> flips;
    materializeRowInto(b, row, now, full_scan, flips);
    return flips;
}

std::vector<int>
Chip::storedFlipBits(int b, int row) const
{
    std::vector<int> bits;
    auto it = data_.find(key(b, row));
    if (it == data_.end())
        return bits;
    for (const auto &[byte_idx, value] : it->second.overrides) {
        const std::uint8_t diff = value ^ it->second.fill;
        for (int i = 0; i < 8; ++i) {
            if (diff & (1u << i))
                bits.push_back(byte_idx * 8 + i);
        }
    }
    std::sort(bits.begin(), bits.end());
    return bits;
}

void
Chip::reset()
{
    for (auto &bk : banks_)
        bk.reset();
    data_.clear();
    fault_.reset();
    refreshPtr_ = 0;
}

} // namespace rp::device
