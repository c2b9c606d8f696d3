/**
 * @file
 * AttemptOracle: answers ACmin / tAggONmin bisection probes without
 * re-executing the attempt program.
 *
 * For a fixed (layout, pattern, tAggON), dose accumulation is linear
 * in the activation count: every steady-state loop iteration deposits
 * the same per-victim dose increments and takes the same time.  The
 * platform's loop fast-forward already exploits this linearity one
 * level down; the oracle hoists it to the attempt level.  It runs the
 * program machinery ONCE per (tAggON, attempt-history class) — on a
 * private scratch platform, iteration by iteration, with the fault
 * model's dose-op recorder attached — to extract
 *
 *   - the warm-up (first-iteration) dose ops and duration,
 *   - the steady-state per-iteration dose ops and duration,
 *   - the fast-forward final-iteration ops (whose tAggOFF weight
 *     differs: the extrapolation jump leaves only the command gap
 *     between the virtual last PRE and the final ACT), and
 *   - the odd-count tail ops (double-sided layouts),
 *
 * and then answers any probe "does N activations flip anything?" by
 * replaying those recorded increments through exactly the arithmetic
 * the platform would have used (including the `cur += (cur - prev) *
 * extra` extrapolation and the integer clock jump), evaluating the
 * victim-row candidates directly at the resulting dose and virtual
 * timestamp.
 *
 * A probe evaluates each victim through a device::PreparedRow built
 * once for the oracle's fixed fills and temperature: only candidates
 * whose damage bound reaches 0.5 reach the per-cell evaluation, and
 * the probe stops at the first flip.  A search that reports the flips
 * at its result asks flipsAt() for them, from the clock and history
 * class saved before that probe (next()).
 *
 * Contract: the oracle models the attempt sequence `runPressAttempt`
 * would execute on a *pristine* platform (clock at zero, no prior
 * fills or commands) — which is exactly what the engine-parallel
 * search drivers give each location task.  probe() answers whether
 * that attempt flips a cell, and flipsAt() gives its flips in
 * checkRow's order and its duration: ACmin, tAggONmin and the flips
 * at ACmin are bit-identical to executing every attempt on a fresh
 * platform.  The module platform passed in is only used for its
 * configuration, cell model and temperature; it is never mutated.
 */

#ifndef ROWPRESS_CHR_ORACLE_H
#define ROWPRESS_CHR_ORACLE_H

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "chr/acmin.h"

namespace rp::chr {

class AttemptOracle
{
  public:
    /**
     * Attempt-history class: the start state of the next attempt.
     * Fresh platform (cls 0) or "after an attempt" (cls 1); for
     * double-sided layouts the previous attempt's parity and tAggON
     * determine the aggressors' rest times entering the warm-up
     * iteration, so they are part of the class.
     */
    using StateKey = std::tuple<int, int, Time>; // (cls, oddPrev, tOnPrev)

    /** Where an attempt starts: the virtual clock and history class. */
    struct Start
    {
        Time vnow = 0;
        StateKey history{0, 0, 0};
    };

    /**
     * @p module supplies the platform configuration, cell model,
     * temperature, and evaluation-noise level; it is not mutated.
     */
    AttemptOracle(bender::TestPlatform &module, const RowLayout &layout,
                  DataPattern pattern);
    ~AttemptOracle();

    /** The start of the next attempt. */
    Start next() const { return {vnow_, state_}; }

    /**
     * Run `runPressAttempt(platform, layout, pattern, t_agg_on,
     * total_acts)` as the next attempt of this oracle's history and
     * answer whether it flips any cell.  The evaluation stops at the
     * first flip; flipsAt() gives the whole list.
     */
    bool probe(Time t_agg_on, std::uint64_t total_acts);

    /**
     * The flips, in checkRow order, and the duration of the attempt
     * (@p t_agg_on, @p total_acts) started at @p at (next() before
     * that attempt), into @p out (its flips cleared first).  Advances
     * neither the clock nor the history.
     */
    void flipsAt(const Start &at, Time t_agg_on, std::uint64_t total_acts,
                 AttemptResult &out);

  private:
    /** Ordered dose increments of one victim in one trace segment. */
    using Ops = std::vector<std::pair<int, double>>; // (comp, value)

    struct VictimTrace
    {
        Ops iter1;      ///< Warm-up iteration (history-dependent).
        Ops iter1Half;  ///< DS: first aggressor segment of iter 1.
        Ops steady;     ///< Any iteration past the first.
        Ops finalIter;  ///< Concrete iteration after the FF jump.
        Ops tail;       ///< DS odd-count tail after >= 1 iterations.
    };

    struct Profile
    {
        Time dHalf1 = 0;   ///< DS: duration of iteration 1's first half.
        Time d1 = 0;       ///< Iteration-1 duration (incl. prologue).
        Time durS = 0;     ///< Steady-state iteration duration.
        Time durFinal = 0; ///< Post-jump final iteration duration.
        Time durTail = 0;  ///< DS tail duration after >= 1 iterations.
        std::vector<VictimTrace> victims; ///< Indexed like layout.victims.
    };

    using ProfileKey = std::tuple<Time, int, int, Time>;

    const Profile &profileFor(Time t_agg_on, const StateKey &history);
    Profile measureProfile(Time t_agg_on, const StateKey &history);
    void positionScratch(Time t_agg_on, const StateKey &history);
    void splitOps(const std::vector<device::FaultModel::DoseOp> &ops,
                  Ops VictimTrace::*segment, Profile &prof) const;

    /**
     * Evaluate the attempt started at @p at into @p out (cleared
     * first), stopping at the first flip when @p first_only.
     */
    void evaluate(const Start &at, Time t_agg_on, std::uint64_t total_acts,
                  bool first_only, AttemptResult &out);

    bender::TestPlatform &module_;
    RowLayout layout_;
    DataPattern pattern_;
    bool doubleSided_;

    std::unique_ptr<bender::TestPlatform> scratch_;
    StateKey scratchState_{0, 0, 0};

    StateKey state_{0, 0, 0}; ///< Virtual platform history class.
    Time vnow_ = 0;           ///< Virtual command clock.

    std::map<ProfileKey, Profile> profiles_;
    std::map<std::uint64_t, std::size_t> victimIndex_; ///< dose key -> idx.
    std::vector<std::pair<int, int>> actRows_;
    /** Per victim: its candidates at the oracle's fixed fills. */
    std::vector<device::PreparedRow> prepared_;

    // Reusable per-probe buffers (no per-attempt allocation).
    std::vector<std::array<double, 4>> acc_;
    std::vector<std::array<double, 4>> prevAcc_;
    std::vector<device::FlipRecord> flipBuf_;
    AttemptResult probeBuf_;
};

} // namespace rp::chr

#endif // ROWPRESS_CHR_ORACLE_H
