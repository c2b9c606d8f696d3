/**
 * @file
 * A DRAM chip model: timing-checked banks + stored data + fault model.
 *
 * The chip operates in *physical* row space; callers that work with
 * logical (externally visible) row addresses translate through a
 * dram::RowScrambler first, mirroring the paper's reverse-engineering
 * methodology (section 3.2).
 *
 * Data is stored as a fill byte per row plus sparse byte overrides, so
 * pattern-filled characterization rows cost O(1) and bitflips are
 * recorded as overrides.  Bitflips "materialize" whenever a row's
 * charge is restored (refresh, own activation, write) or when the
 * harness inspects the row; the accumulated dose is evaluated against
 * the cell model at that point and then cleared.
 */

#ifndef ROWPRESS_DEVICE_CHIP_H
#define ROWPRESS_DEVICE_CHIP_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "device/fault_model.h"
#include "dram/bank.h"
#include "dram/timing.h"

namespace rp::device {

/** One DRAM chip (or lock-stepped rank) under test. */
class Chip
{
  public:
    Chip(const DieConfig &die, dram::Organization org,
         dram::TimingParams timing, std::uint64_t seed);

    const DieConfig &die() const { return fault_.cells().die(); }
    const dram::Organization &org() const { return org_; }
    const dram::TimingParams &timing() const { return timing_; }
    FaultModel &fault() { return fault_; }
    const FaultModel &fault() const { return fault_; }

    void setTemperature(double c) { fault_.setTemperature(c); }
    double temperature() const { return fault_.temperature(); }

    // --- timed command interface ---

    dram::Bank &bank(int b);
    const dram::Bank &bank(int b) const;

    /** Activate @p row; restores the row's own charge. */
    void act(int b, int row, Time now);

    /** Precharge bank @p b; deposits press dose for the interval. */
    dram::Bank::OpenInterval pre(int b, Time now);

    /** Column read from the open row; returns data-ready time. */
    Time read(int b, int column, Time now);

    /** Column write to the open row; returns recovery-complete time. */
    Time write(int b, int column, Time now);

    /**
     * One REF command: refreshes the next stripe of rows in every
     * bank (8192 REFs cover the whole array, as in DDR4).
     */
    void refresh(Time now);

    /** Refresh a single row (used by TRR preventive refreshes). */
    void refreshRow(int b, int row, Time now);

    /** REFs that will issue before the one whose stripe covers @p row. */
    std::uint64_t refreshesBefore(int row) const;

    /**
     * Move the refresh stripe on as @p refs REFs would, without
     * restoring any row (a fast-forward that has proven none of the
     * skipped stripes holds a row it must restore).
     */
    void skipRefreshes(std::uint64_t refs);

    // --- functional data path ---

    /** Fill a whole row with @p fill and restore its charge. */
    void fillRow(int b, int row, std::uint8_t fill, Time now);

    /** Current fill byte of a row (0x00 if never written). */
    std::uint8_t rowFill(int b, int row) const;

    /** Current value of one byte of a row (with flips applied). */
    std::uint8_t readByte(int b, int row, int byte_idx) const;

    // --- inspection ---

    /**
     * Evaluate and latch any pending bitflips of @p row, restore its
     * charge, and return the flips that materialized now.
     */
    std::vector<FlipRecord> materializeRow(int b, int row, Time now,
                                           bool full_scan = false);

    /** Allocation-free form: appends the materialized flips to @p out. */
    void materializeRowInto(int b, int row, Time now, bool full_scan,
                            std::vector<FlipRecord> &out);

    /**
     * Evaluate the flips @p row's current dose would produce at
     * @p now, without latching them, clearing the dose, or restoring
     * the row — the non-destructive probe the fuzz evaluator's
     * minimum-cost checkpoints use between pattern segments.
     */
    void peekRowInto(int b, int row, Time now, bool full_scan,
                     std::vector<FlipRecord> &out) const;

    /**
     * O(1)-gated form of "would the row show any flip if inspected
     * now": false is proven cheaply via CellModel::rowMayFlip; true
     * requires at least one candidate cell to actually flip.
     */
    bool rowWouldFlip(int b, int row, Time now) const;

    /** Bits of @p row that currently differ from its fill pattern. */
    std::vector<int> storedFlipBits(int b, int row) const;

  private:
    struct RowData
    {
        std::uint8_t fill = 0x00;
        std::unordered_map<int, std::uint8_t> overrides;
    };

    static std::uint64_t
    key(int b, int row)
    {
        return packRowKey(b, row);
    }

    /**
     * Restore a row's charge; evaluates flips first unless the
     * accumulated dose is provably below every cell threshold.
     */
    void restoreRow(int b, int row, Time now);

    dram::Organization org_;
    dram::TimingParams timing_;
    FaultModel fault_;

    std::vector<dram::Bank> banks_;
    std::unordered_map<std::uint64_t, RowData> data_;

    /** First row of the next REF's stripe: a multiple of rowsPerRef_. */
    int refreshPtr_ = 0;
    int rowsPerRef_ = 1;

    /** Stripes per full pass over the array (the last may be short). */
    int
    stripes() const
    {
        return (org_.rows + rowsPerRef_ - 1) / rowsPerRef_;
    }
};

} // namespace rp::device

#endif // ROWPRESS_DEVICE_CHIP_H
