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
 * program machinery ONCE per (tAggON, attempt history) — on a
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
 * saved before that probe (next()).
 *
 * Contract: the oracle models the attempts `runPressAttempt` would
 * execute one after another on the module platform, starting from its
 * state when the oracle is built.  The start state it needs is the
 * command clock (the noise nonce), the layout bank's timing state and
 * the aggressors' close history (their rest before the first
 * activation); the scratch platform takes them from the module with
 * TestPlatform::copyStateOf.  probe() answers whether an attempt flips
 * a cell, and flipsAt() gives its flips in checkRow's order and its
 * duration, bit-identical to executing it.  Probes leave the module
 * as it is; runOnModule() then executes one attempt on it, from that
 * attempt's start state, which is how a search leaves the module as
 * executing all its attempts would have.
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
     * What the next attempt's doses and duration depend on, besides
     * the clock: (cls, odd, tOn, tailElapsed).
     *  - cls 0: no attempt has activated every aggressor yet, so the
     *    bank and the aggressors are as the module had them;
     *  - cls 1: the last attempt that did had parity odd and tAggON
     *    tOn (double-sided; single-sided both are 0, as every such
     *    attempt leaves the aggressor's rest the same);
     *  - tailElapsed: the time spent since in double-sided attempts of
     *    one activation.  Those activate only the first aggressor: it
     *    and the bank are as after any of them, and the second
     *    aggressor has rested that much longer.
     */
    using History = std::tuple<int, int, Time, Time>;

    /** Where an attempt starts: the virtual clock and history. */
    struct Start
    {
        Time vnow = 0;
        History history{0, 0, 0, 0};
    };

    /**
     * @p module supplies the platform configuration, cell model,
     * temperature, evaluation-noise level, the fills of the rows next
     * to the layout, and the start state of the first attempt.
     */
    AttemptOracle(bender::TestPlatform &module, const RowLayout &layout,
                  DataPattern pattern);
    ~AttemptOracle();

    /** The start of the next attempt. */
    Start next() const { return {vnow_, state_}; }

    /**
     * Run `runPressAttempt(module, layout, pattern, t_agg_on,
     * total_acts)` as the next attempt and answer whether it flips any
     * cell, without touching the module.  The evaluation stops at the
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

    /**
     * Execute the attempt (@p t_agg_on, @p total_acts) started at
     * @p at on the module: copy that start state onto it, then
     * runPressAttempt.  The module must still be in the state the
     * oracle was built from, so this is the oracle's last call;
     * afterwards the module is in the state executing every attempt
     * up to this one would have left.
     */
    AttemptResult runOnModule(const Start &at, Time t_agg_on,
                              std::uint64_t total_acts);

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

    using ProfileKey = std::pair<Time, History>;

    const Profile &profileFor(Time t_agg_on, const History &history);
    Profile measureProfile(Time t_agg_on, const History &history);
    /** Put the scratch platform in the start state @p history. */
    void positionScratch(Time t_agg_on, const History &history);
    /** One attempt on the scratch platform; returns its duration. */
    Time runScratch(Time t_agg_on, std::uint64_t total_acts);
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
    /** The scratch platform's start state (cls -1: none). */
    History scratchState_{-1, 0, 0, 0};

    History state_{0, 0, 0, 0}; ///< Virtual platform history.
    Time vnow_ = 0;             ///< Virtual command clock.

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
