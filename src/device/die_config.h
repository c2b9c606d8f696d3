/**
 * @file
 * Per-die-revision read-disturbance calibration targets.
 *
 * The paper characterizes 12 DDR4 die revisions across the three major
 * manufacturers (Table 1) and reports their RowHammer / RowPress
 * vulnerability summaries in Tables 5 and 6.  Each DieConfig below
 * carries those *measured targets*; the CellModel derives per-cell
 * threshold distributions from them (device/cell_model.h).
 *
 * Key empirical invariant exploited for calibration: for
 * tAggON >= tREFI the paper's data satisfies
 * ACmin x tAggON ~= tAggONmin@AC=1, i.e., RowPress failure is governed
 * by a per-cell *cumulative aggressor-on-time* threshold D_RP.
 */

#ifndef ROWPRESS_DEVICE_DIE_CONFIG_H
#define ROWPRESS_DEVICE_DIE_CONFIG_H

#include <string>
#include <vector>

namespace rp::device {

/** Calibration targets for one die revision (from paper Tables 5/6). */
struct DieConfig
{
    std::string id;          ///< Short id, e.g. "S-8Gb-B".
    std::string mfr;         ///< "S", "H", or "M".
    std::string name;        ///< Display name, e.g. "Mfr. S 8Gb B-Die".
    std::string density;     ///< "4Gb", "8Gb", "16Gb".
    std::string rev;         ///< Die revision letter.

    // --- RowHammer targets (tAggON = 36 ns; Table 5 reports the
    //     stronger, i.e. double-sided, ACmin) ---
    double acminRh50;        ///< Mean per-row ACmin at 50C (total ACTs).
    double acminRh50Min;     ///< Min per-row ACmin at 50C.
    double acminRh80;        ///< Mean per-row ACmin at 80C.
    double berRhSs;          ///< Max BER, single-sided, 36 ns, 50C.
    double berRhDs;          ///< Max BER, double-sided, 36 ns, 50C.

    // --- RowPress targets (cumulative on-time threshold D_RP) ---
    double rpDose50Ms;       ///< Mean tAggONmin @ AC=1, 50C (ms).
    double rpDose50MinMs;    ///< Min tAggONmin @ AC=1, 50C (ms).
    double rpDose80Ms;       ///< Mean tAggONmin @ AC=1, 80C (ms).
    double berRp78;          ///< Max BER @ tAggON=7.8us, SS, 50C.

    // --- Cell layout / direction ---
    double antiFraction;     ///< Fraction of anti-cells (1 = discharged).

    // --- Retention ---
    double retWeakPerMillion; ///< Cells per 1e6 failing 4 s @ 80C.

    /** True if RowPress cannot flip within a 60 ms budget at 50C. */
    bool rpImmuneAt50() const { return rpDose50Ms >= 60.0; }
};

/** All 12 characterized die revisions (paper Table 1 / 5 / 6). */
const std::vector<DieConfig> &allDies();

/** Look up a die by its short id; fatal error if unknown. */
const DieConfig &dieById(const std::string &id);

/** Convenience: the paper's representative dies (Fig 19 / 22). */
const DieConfig &dieS8GbB();    ///< Mfr. S 8Gb B-Die.
const DieConfig &dieS8GbD();    ///< Mfr. S 8Gb D-Die (Fig 22).
const DieConfig &dieH16GbA();   ///< Mfr. H 16Gb A-Die.
const DieConfig &dieM16GbF();   ///< Mfr. M 16Gb F-Die.

} // namespace rp::device

#endif // ROWPRESS_DEVICE_DIE_CONFIG_H
