/**
 * @file
 * Circuit-level read-disturbance cell model.
 *
 * Every DRAM cell has three independent, deterministic (hash-derived)
 * disturbance thresholds:
 *
 *  - thetaHammer: weighted aggressor-ACT count that charges a
 *    *discharged* cell enough to flip it (the RowHammer mechanism:
 *    electron injection, paper Obsv. 8 / footnote 14);
 *  - thetaPress: cumulative aggressor-row-on time (ps, at 50C) that
 *    drains a *charged* cell enough to flip it (the RowPress /
 *    passing-gate mechanism);
 *  - tauRetention: unrefreshed time (s, at 80C) after which a charged
 *    cell leaks below the sense threshold.
 *
 * Because the thresholds are drawn independently per cell, the
 * RowHammer-, RowPress-, and retention-vulnerable cell populations are
 * naturally (almost) disjoint, reproducing paper section 4.3; and
 * because RowHammer only charges discharged cells while RowPress only
 * drains charged cells, the opposite bitflip directionality of the two
 * phenomena (Obsv. 8) and the data-pattern eligibility effects
 * (section 5.3, e.g. RowStripe's "No Bitflip" cells at long tAggON)
 * emerge without special cases.
 *
 * Thresholds are log-normal with cell-, word-, and row-level variance
 * components; the word component produces the multi-bit-per-64-bit-word
 * clustering that defeats ECC (section 7.1).
 *
 * The per-row weakest-cell candidate lists live in a ThresholdStore
 * shared by every CellModel built from the same (die, seed), so the
 * expensive enumeration happens once per row per process regardless of
 * how many models / platforms / search tasks exist.
 */

#ifndef ROWPRESS_DEVICE_CELL_MODEL_H
#define ROWPRESS_DEVICE_CELL_MODEL_H

#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/units.h"
#include "device/die_config.h"
#include "device/threshold_store.h"

namespace rp::device {

/** Which failure mechanism produced a bitflip. */
enum class Mechanism
{
    RowHammer,
    RowPress,
    Retention,
};

constexpr const char *
mechanismName(Mechanism m)
{
    switch (m) {
      case Mechanism::RowHammer: return "RowHammer";
      case Mechanism::RowPress: return "RowPress";
      case Mechanism::Retention: return "Retention";
    }
    return "?";
}

/**
 * Disturbance accumulated by one victim row since its charge was last
 * restored (by refresh, by its own activation, or by a write).
 *
 * Side 0 collects contributions from aggressors at lower row indices,
 * side 1 from higher ones.  Doses are pre-scaled at accumulation time
 * by temperature factors, tAggOFF recovery weights, and row-distance
 * attenuation, so evaluation only combines them with per-cell
 * couplings.
 */
struct DoseState
{
    double hammer[2] = {0.0, 0.0};  ///< Weighted ACT counts.
    double press[2] = {0.0, 0.0};   ///< Weighted on-time (ps).

    bool
    empty() const
    {
        return hammer[0] == 0.0 && hammer[1] == 0.0 && press[0] == 0.0 &&
               press[1] == 0.0;
    }
};

/** Evaluation context: dose + stored data of victim and neighbors. */
struct RowContext
{
    const DoseState *dose = nullptr;
    std::uint8_t victimFill = 0x00;
    /** Sparse byte overrides (accumulated flips) of the victim row. */
    const std::unordered_map<int, std::uint8_t> *victimOverrides = nullptr;
    std::uint8_t aggrFill[2] = {0x00, 0x00}; ///< Distance-1 neighbor fills.
    double retentionSeconds = 0.0; ///< Temp-scaled unrefreshed time.

    /**
     * Per-attempt measurement noise: cells close to their threshold
     * flip probabilistically across repeated attempts (this is why the
     * paper repeats every search five times and why repeatability,
     * Appendix E, is below 100 %).  Zero disables the noise.
     */
    double noiseSigma = 0.0;
    std::uint64_t noiseNonce = 0;
};

/** One bitflip detected during evaluation. */
struct FlipRecord
{
    int bit;            ///< Bit index within the row.
    bool oneToZero;     ///< Logical flip direction.
    Mechanism mechanism;
};

/**
 * The per-die cell model: derives CellModelParams from a DieConfig's
 * measured targets and answers per-cell and per-row queries.
 */
class CellModel
{
  public:
    CellModel(const DieConfig &die, int bits_per_row, std::uint64_t seed);

    const DieConfig &die() const { return die_; }
    int bitsPerRow() const { return bitsPerRow_; }
    const CellModelParams &params() const { return params_; }

    /** Mutable access for ablation studies (bench_ablation_model). */
    CellModelParams &mutableParams() { return params_; }

    // --- accumulation-time scaling helpers ---

    /** Multiplier on press (on-time) dose at temperature @p temp_c. */
    double pressTempFactor(double temp_c) const;

    /** Multiplier on hammer dose at temperature @p temp_c. */
    double hammerTempFactor(double temp_c) const;

    /**
     * Per-ACT hammer weight as a function of the aggressor's preceding
     * off-time; normalized to 1.0 at the nominal tRP so conventional
     * back-to-back hammering has unit weight (paper section 5.4).
     */
    double hammerOffWeight(Time t_off) const;

    /** Retention time-scaling: x2 leakage per 10C above 80C. */
    double retentionTempFactor(double temp_c) const;

    /** The three temperature factors at one temperature. */
    struct TempFactors
    {
        double tempC;
        double hammer;    ///< hammerTempFactor(tempC)
        double press;     ///< pressTempFactor(tempC)
        double retention; ///< retentionTempFactor(tempC)
    };

    /**
     * The temperature factors at @p temp_c, memoized for the last
     * temperature asked for, so the dose hot path (every ACT, PRE and
     * restore) pays a compare instead of an exp.  invalidateCaches()
     * drops the memo, so mutated params apply from then on.
     */
    const TempFactors &
    tempFactors(double temp_c) const
    {
        if (!(tempMemo_.tempC == temp_c))
            refreshTempMemo(temp_c);
        return tempMemo_;
    }

    // --- per-cell properties (deterministic in (seed,bank,row,bit)) ---

    bool isAnti(int bank, int row, int bit) const;
    int dominantSide(int bank, int row, int bit) const;
    double thetaHammer(int bank, int row, int bit) const;
    double thetaPress(int bank, int row, int bit) const;
    double tauRetention(int bank, int row, int bit) const;

    /** Retention-time quantile function (seconds at 80C). */
    double retentionQuantile(double u) const;

    // --- evaluation ---

    /**
     * Evaluate which cells of the row flip under @p ctx.
     *
     * @param full_scan consider every cell (needed for BER-level
     *        doses).  The scan runs word-at-a-time: the store's
     *        per-row occupancy masks prove "no cell of these 64-bit
     *        words can flip at this damage bound" with one mask test
     *        per 64 words, and only words that admit flips descend to
     *        the per-cell evaluation — bit-identical to the plain
     *        per-bit loop (evaluateFullScanReference).  Without
     *        full_scan only the shared weakest-cell candidates are
     *        checked (sufficient for ACmin-level searches), and rows
     *        whose dose provably cannot flip any candidate are skipped
     *        in O(1) via the store's per-row minimum thresholds.
     * @param temp_c current temperature (affects data-pattern coupling).
     */
    std::vector<FlipRecord> evaluate(int bank, int row,
                                     const RowContext &ctx, bool full_scan,
                                     double temp_c) const;

    /**
     * Allocation-free form of evaluate(): appends the flips to @p out
     * (which the caller clears and reuses across attempts).
     */
    void evaluateInto(int bank, int row, const RowContext &ctx,
                      bool full_scan, double temp_c,
                      std::vector<FlipRecord> &out) const;

    /** The shared weakest-cell candidate list of a row (SoA layout). */
    const RowCandidates &rowCandidates(int bank, int row) const;

    /** The shared word-occupancy tier of a row (full-scan fast path). */
    const RowWordMasks &rowWordMasks(int bank, int row) const;

    /**
     * Reference full scan: the plain per-bit evaluation loop the
     * word-mask fast path replaced.  Kept public so the differential
     * tests can pin `evaluateInto(full_scan = true)` against it
     * bit-for-bit; not used on any hot path.
     */
    void evaluateFullScanReference(int bank, int row,
                                   const RowContext &ctx, double temp_c,
                                   std::vector<FlipRecord> &out) const;

    /**
     * O(1) disproof: false means no candidate cell of the row can
     * flip under (@p dose, @p retention_seconds) — rigorous against
     * the attempt noise (a flip needs pre-noise damage >= 1.0 and the
     * noise only applies above 0.5, so a damage bound below 0.5
     * suffices).  Chip::restoreRow and the candidate-path evaluate
     * both gate on this one proof so the bounds can never drift
     * apart.
     */
    bool rowMayFlip(int bank, int row, const DoseState &dose,
                    double retention_seconds, double temp_c) const;

    /**
     * Rebuild the candidate source after parameter mutation: detaches
     * this model onto a private ThresholdStore generated from the
     * current (possibly mutated) parameters, leaving the shared store
     * of other models untouched.
     */
    void invalidateCaches();

  private:
    /**
     * Conservative per-mechanism damage numerators of one (dose,
     * retention, temperature) state: an upper bound on any cell's
     * hammer dose after couplings, on its press dose, and the
     * retention seconds.  Dividing by a cell's (or a word's minimum)
     * threshold bounds that cell's pre-noise damage, so a result
     * below 0.5 is a rigorous cannot-flip proof.  rowMayFlip and the
     * word-mask full scan both derive their tests from this one
     * helper so the bounds can never drift apart.
     */
    struct DamageBounds
    {
        double hammer;
        double press;
        double retention;
    };

    void deriveParams();
    CellProps cellProps(int bank, int row, int bit) const;
    bool evaluateCell(const CellProps &props, int bit,
                      const RowContext &ctx, double temp_c,
                      FlipRecord *out) const;

    DamageBounds damageBounds(const DoseState &dose,
                              double retention_seconds,
                              double temp_c) const;

    /** The word-mask full-scan fast path behind evaluateInto. */
    void evaluateFullScan(int bank, int row, const RowContext &ctx,
                          double temp_c,
                          std::vector<FlipRecord> &out) const;

    /** The bound behind rowMayFlip, on an already-resolved row. */
    bool rowMayFlip(const RowCandidates &cands, const DoseState &dose,
                    double retention_seconds, double temp_c) const;

    void refreshTempMemo(double temp_c) const;

    DieConfig die_;
    int bitsPerRow_;
    std::uint64_t seed_;
    CellModelParams params_;
    std::shared_ptr<const ThresholdStore> store_;
    /**
     * Per-model memo of resolved store rows: each CellModel belongs
     * to one chip (one engine task), so this lookup is unsynchronized
     * and keeps the shared store's mutex off the steady-state path —
     * it is taken once per (model, row), not once per evaluation.
     * Pointees live in the store, which store_ keeps alive.
     */
    mutable std::unordered_map<std::uint64_t, const RowCandidates *>
        rowMemo_;
    /** Same memoization for the word-occupancy tier. */
    mutable std::unordered_map<std::uint64_t, const RowWordMasks *>
        wordMemo_;
    /** tempFactors() memo; a NaN temperature matches nothing. */
    mutable TempFactors tempMemo_{std::numeric_limits<double>::quiet_NaN(),
                                  0.0, 0.0, 0.0};
};

} // namespace rp::device

#endif // ROWPRESS_DEVICE_CELL_MODEL_H
