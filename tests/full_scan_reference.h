/**
 * @file
 * Reference full scan: the plain per-bit evaluation loop that the
 * word-mask full scan of CellModel::evaluateInto(full_scan = true)
 * must reproduce flip for flip.  Every cell of the row gets its full
 * computeCellProps and goes through evaluateCell, with no mask, no
 * cutoff and no charge-state shortcut.  The row/word variance context
 * is derived once per data word, which gives the same doubles as
 * deriving it per bit.
 */

#ifndef ROWPRESS_TESTS_FULL_SCAN_REFERENCE_H
#define ROWPRESS_TESTS_FULL_SCAN_REFERENCE_H

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "device/cell_model.h"

namespace rp::ref {

/**
 * The flips of (@p bank, @p row) under @p ctx, appended to @p out in
 * bit order.  @p seed must be the seed @p model was built with.
 */
inline void
evaluateFullScanReference(const device::CellModel &model,
                          std::uint64_t seed, int bank, int row,
                          const device::RowContext &ctx, double temp_c,
                          std::vector<device::FlipRecord> &out)
{
    device::FlipRecord rec;
    device::RowWordZ z{};
    for (int bit = 0; bit < model.bitsPerRow(); ++bit) {
        if (bit % 64 == 0)
            z = device::computeRowWordZ(seed, bank, row, bit / 64);
        const HashRng cell(hashU64(seed, std::uint64_t(bank),
                                   std::uint64_t(row), std::uint64_t(bit)));
        const device::CellProps props =
            device::computeCellProps(model.params(), cell, z);
        if (model.evaluateCell(props, bit, ctx, temp_c, &rec))
            out.push_back(rec);
    }
}

} // namespace rp::ref

#endif // ROWPRESS_TESTS_FULL_SCAN_REFERENCE_H
