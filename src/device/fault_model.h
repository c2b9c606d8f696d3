/**
 * @file
 * Dose accounting for read disturbance.
 *
 * The FaultModel listens to row activity (ACT / PRE / restore events)
 * and maintains, for every disturbed victim row, the accumulated
 * hammer and press doses since that row's charge was last restored.
 * Doses are pre-scaled at accumulation time by:
 *  - temperature factors (RowPress: Arrhenius-like acceleration;
 *    RowHammer: the mild, die-specific response from Table 5);
 *  - the aggressor's preceding off-time (hammer recovery weight,
 *    paper section 5.4);
 *  - row-distance attenuation (victims up to +/-3 rows).
 *
 * Every ACT, PRE and restore updates per-row state, so that state lives
 * in one flat slot array reached through a per-bank row -> slot index
 * (no hashing on the hot path).  A slot holds the row's dose, its last
 * close and restore clocks, and whether dose has been deposited since
 * its last restore.
 */

#ifndef ROWPRESS_DEVICE_FAULT_MODEL_H
#define ROWPRESS_DEVICE_FAULT_MODEL_H

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/units.h"
#include "device/cell_model.h"
#include "dram/address.h"

namespace rp::device {

/** Tracks disturbance doses for every victim row of one chip. */
class FaultModel
{
  public:
    FaultModel(const DieConfig &die, const dram::Organization &org,
               std::uint64_t seed);

    CellModel &cells() { return cells_; }
    const CellModel &cells() const { return cells_; }
    const dram::Organization &org() const { return org_; }

    void setTemperature(double temp_c) { temperatureC_ = temp_c; }
    double temperature() const { return temperatureC_; }

    /** Per-attempt measurement-noise level (0 = deterministic). */
    void setEvalNoiseSigma(double sigma) { evalNoiseSigma_ = sigma; }
    double evalNoiseSigma() const { return evalNoiseSigma_; }

    /** Aggressor row opened: deposit hammer dose on neighbors. */
    void onActivate(int bank, int row, Time now);

    /** Aggressor row closed: deposit press dose for the open interval. */
    void onPrecharge(int bank, int row, Time open_at, Time close_at);

    /**
     * The row's charge was restored (refresh, own activation, or
     * write): clear its accumulated dose and restart retention.
     */
    void onRestore(int bank, int row, Time now);

    /** Dose state of a row (a zero state if it was never disturbed). */
    const DoseState &dose(int bank, int row) const;

    /** Temperature-scaled unrefreshed seconds of a row at @p now. */
    double retentionSeconds(int bank, int row, Time now) const;

    /**
     * False while no ACT, PRE or restore event has ever touched a row
     * of @p bank (a cheap pre-check for Chip::refresh's stripe walk;
     * it stays true across reset()).
     */
    bool
    bankTouched(int bank) const
    {
        return bank >= 0 && bank < int(slotIndex_.size()) &&
               !slotIndex_[std::size_t(bank)].empty();
    }

    /**
     * True once an ACT, PRE or restore event has touched the row.
     * Rows never touched carry no dose and no retention history.
     */
    bool
    touched(int bank, int row) const
    {
        return findSlot(bank, row) != nullptr;
    }

    /** Rows that currently carry non-zero dose, in (bank, row) order. */
    std::vector<std::pair<int, int>> disturbedRows() const;

    /** Clear all dose state (platform reset). */
    void reset();

    // --- loop fast-forward support (bender::TestPlatform) ---

    /**
     * One elementary dose accumulation: `dose(key).<comp> += value`.
     * comp 0/1 = hammer side 0/1, comp 2/3 = press side 0/1.  Recorded
     * traces let the chr::AttemptOracle replay an attempt's exact
     * floating-point accumulation sequence without re-executing the
     * program (bit-identical results).
     */
    struct DoseOp
    {
        std::uint64_t key;
        int comp;
        double value;
    };

    /** The DoseOp key of (bank, row) (= device::packRowKey). */
    static std::uint64_t
    doseKey(int bank, int row)
    {
        return packRowKey(bank, row);
    }

    /**
     * Record every subsequent dose accumulation into @p rec (nullptr
     * stops recording).  Measurement-only: recording adds a branch to
     * the accumulation hot path but no allocation when disabled.
     */
    void setDoseOpRecorder(std::vector<DoseOp> *rec) { opRecorder_ = rec; }

    /**
     * Snapshot of all current doses, one entry per row slot (rows
     * without dose read zero).  Only scaleDoseDelta interprets it.
     */
    std::vector<DoseState> snapshotDoses() const;

    /**
     * Replay the dose growth between @p before and the current state
     * an additional @p factor times (steady-state loop extrapolation).
     * Rows restored since the snapshot and not disturbed again stay
     * empty; rows first disturbed after it grow from zero.
     */
    void scaleDoseDelta(const std::vector<DoseState> &before,
                        double factor);

    /**
     * Advance a row's close/restore history by @p delta (applied to
     * rows the fast-forwarded loop body activates, so that subsequent
     * tAggOFF weights and retention clocks stay consistent).
     */
    void shiftRowHistory(int bank, int row, Time delta);

  private:
    /** "No such event yet" for the per-row clocks. */
    static constexpr Time kNever = std::numeric_limits<Time>::min();

    /** Everything the model knows about one touched row. */
    struct RowSlot
    {
        /** Accumulated dose; zero whenever the slot is not live. */
        DoseState dose;
        /** Last close of the row as an aggressor (tAggOFF weighting). */
        Time lastClose = kNever;
        /** Last charge restore of the row (retention). */
        Time lastRestore = kNever;
        int bank = 0;
        int row = 0;
        /**
         * Dose has been deposited since the last restore (possibly a
         * zero one): the scope of scaleDoseDelta's extrapolation.
         */
        bool live = false;
    };

    /** The row's slot, created on first touch. */
    RowSlot &slot(int bank, int row);
    const RowSlot *findSlot(int bank, int row) const;
    /** The dose of a row about to receive a deposit; marks it live. */
    DoseState &liveDose(int bank, int row);

    dram::Organization org_;
    CellModel cells_;
    double temperatureC_ = 50.0;
    double evalNoiseSigma_ = 0.05;

    /** Touched rows in first-touch order; kept until reset(). */
    std::vector<RowSlot> slots_;
    /**
     * Per bank: row -> 1 + its index in slots_ (0 = untouched).  A
     * bank's vector stays empty until one of its rows is touched.
     */
    std::vector<std::vector<std::uint32_t>> slotIndex_;

    std::vector<DoseOp> *opRecorder_ = nullptr;
};

} // namespace rp::device

#endif // ROWPRESS_DEVICE_FAULT_MODEL_H
