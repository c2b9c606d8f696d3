#include "device/cell_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "device/draw_word.h"

namespace rp::device {

using namespace rp::literals;

namespace {

/** The paper's characterization budget: programs must fit in 60 ms. */
constexpr double kBudgetMs = 60.0;

/** Per-activation period at minimum tAggON on the test platform. */
constexpr double kActPeriodNs = 54.0; // 36 ns tAggON + 15 ns tRP + gaps

double
clampd(double v, double lo, double hi)
{
    return std::min(hi, std::max(lo, v));
}

} // namespace

CellModel::CellModel(const DieConfig &die, int bits_per_row,
                     std::uint64_t seed)
    : die_(die), bitsPerRow_(bits_per_row), seed_(seed)
{
    if (bitsPerRow_ <= 0)
        fatal("CellModel: bits_per_row must be positive");
    deriveParams();
    store_ = ThresholdStore::acquire(die_.id, params_, bitsPerRow_, seed_);
}

void
CellModel::deriveParams()
{
    CellModelParams &p = params_;

    // Structural constants (the knobs bench_ablation_model.cc varies).
    p.kappaDs = 3.0;
    p.rhoWeakSide = 0.06;
    p.gammaRhAggr = 0.5;
    p.gammaRpAggr0 = 0.3;
    p.gammaRpAggrT = -0.8;
    p.tauOff = 500_ns;
    p.offFloor = 0.5;
    p.pressOnset = 34_ns;
    p.dist2Rh = 0.02;
    p.dist2Rp = 0.015;
    p.dist3Rh = 0.002;
    p.dist3Rp = 0.0015;
    p.antiFraction = die_.antiFraction;
    p.sigmaWordH = 0.10;
    p.sigmaWordP = 0.30;

    const double bits = double(bitsPerRow_);

    // ---- RowHammer thresholds ----
    //
    // Table 5 reports the double-sided ACmin (the stronger pattern).
    // With N total activations split across two aggressors, the
    // sandwiched victim sees per-side doses N/2 each and the synergy
    // term kappa * min(h0, h1); the double-sided off-time weight is
    // slightly above 1 because each aggressor rests while the other is
    // open.
    const double w_ds = hammerOffWeight(Time((36.0 + 2 * 15.0 + 3.0) *
                                             double(units::NS)));
    const double ds_gain = w_ds * (1.0 + p.kappaDs / 2.0);

    const double z1h = probit(2.0 / bits); // half the cells are eligible
    const double max_acts = kBudgetMs * 1e6 / kActPeriodNs;
    const double z2h = probit(clampd(2.0 * die_.berRhDs, 1e-6, 0.4));
    p.sigmaH = clampd((std::log(max_acts) - std::log(die_.acminRh50)) /
                          std::max(0.2, z2h - z1h),
                      0.30, 1.20);
    p.muH = std::log(die_.acminRh50 * ds_gain) - p.sigmaH * z1h;
    // RowHammer row-to-row spread is narrow (the paper's real-system
    // demo shows a sharp activation-count cliff between
    // NUM_AGGR_ACTS = 3 and 4); most of the Table 5 mean/min spread
    // comes from the per-cell tail.
    p.sigmaRowH = clampd(std::log(die_.acminRh50 / die_.acminRh50Min) / 6.0,
                         0.08, 0.25);
    p.lambdaRh = std::log(die_.acminRh50 / die_.acminRh80) / 30.0;

    // ---- RowPress thresholds ----
    //
    // D_RP targets come from the tAggONmin @ AC=1 columns: a single
    // activation held open for D_RP flips the weakest cell.  Only the
    // charged half of the cells is eligible and only the half of those
    // facing their dominant side sees the full dose, hence the 4/bits
    // row-min quantile.
    const double d50_ps = die_.rpDose50Ms * double(units::MS);
    const double z1p = probit(4.0 / bits);
    double sigma_p = 0.40;
    if (die_.berRp78 > 0.0) {
        const double acts78 = std::floor(kBudgetMs * 1e6 / (7800.0 + 18.0));
        const double dose_max78_ps = acts78 * 7800.0 * double(units::NS);
        const double z2p = probit(clampd(4.0 * die_.berRp78, 1e-6, 0.4));
        sigma_p = (std::log(dose_max78_ps) - std::log(d50_ps)) /
                  std::max(0.05, z2p - z1p);
    }
    p.sigmaP = clampd(sigma_p, 0.20, 0.80);
    p.muP = std::log(d50_ps) - p.sigmaP * z1p;
    // RowPress row-to-row spread: wide enough that the real-system
    // demo flips a fraction of arbitrarily chosen rows with
    // per-window doses below the Table 5 mean, but not so wide that
    // ultra-weak rows contaminate the RowHammer regime at 36 ns.
    p.sigmaRowP = clampd(std::log(die_.rpDose50Ms / die_.rpDose50MinMs) /
                             2.6,
                         0.25, 0.65);
    p.lambdaRp = std::log(die_.rpDose50Ms / die_.rpDose80Ms) / 30.0;

    // ---- Retention ----
    p.sigmaRet = 1.2;
    const double p_weak = clampd(die_.retWeakPerMillion * 1e-6, 1e-9, 0.1);
    p.muRet = std::log(4.0) - probit(p_weak) * p.sigmaRet;
}

double
CellModel::pressTempFactor(double temp_c) const
{
    return std::exp(params_.lambdaRp * (temp_c - 50.0));
}

double
CellModel::hammerTempFactor(double temp_c) const
{
    return std::exp(params_.lambdaRh * (temp_c - 50.0));
}

double
CellModel::hammerOffWeight(Time t_off) const
{
    auto raw = [&](double t_ps) {
        return params_.offFloor +
               (1.0 - params_.offFloor) *
                   (1.0 - std::exp(-t_ps / double(params_.tauOff)));
    };
    const double norm = raw(15.0 * double(units::NS));
    if (t_off < 0)
        return 1.0 / norm; // unknown history: fully recovered
    return raw(double(t_off)) / norm;
}

double
CellModel::retentionTempFactor(double temp_c) const
{
    return std::exp2((temp_c - 80.0) / 10.0);
}

void
CellModel::refreshTempMemo(double temp_c) const
{
    tempMemo_ = {temp_c, hammerTempFactor(temp_c), pressTempFactor(temp_c),
                 retentionTempFactor(temp_c)};
}

CellProps
CellModel::cellProps(int bank, int row, int bit) const
{
    return computeCellProps(params_, seed_, bank, row, bit);
}

double
CellModel::thetaHammer(int bank, int row, int bit) const
{
    return cellProps(bank, row, bit).thetaH;
}

double
CellModel::thetaPress(int bank, int row, int bit) const
{
    return cellProps(bank, row, bit).thetaP;
}

const RowCandidates &
CellModel::rowCandidates(int bank, int row) const
{
    const std::uint64_t key = packRowKey(bank, row);
    if (auto it = rowMemo_.find(key); it != rowMemo_.end())
        return *it->second;
    const RowCandidates &built = store_->row(bank, row);
    rowMemo_.emplace(key, &built);
    return built;
}

const RowWordMasks &
CellModel::rowWordMasks(int bank, int row) const
{
    const std::uint64_t key = packRowKey(bank, row);
    if (auto it = wordMemo_.find(key); it != wordMemo_.end())
        return *it->second;
    const RowWordMasks &built = store_->wordMasks(bank, row);
    wordMemo_.emplace(key, &built);
    return built;
}

void
CellModel::invalidateCaches()
{
    rowMemo_.clear();
    wordMemo_.clear();
    tempMemo_.tempC = std::numeric_limits<double>::quiet_NaN();
    store_ = ThresholdStore::acquire(die_.id, params_, bitsPerRow_, seed_);
}

void
CellModel::adoptModelOf(const CellModel &other)
{
    params_ = other.params_;
    store_ = other.store_;
    rowMemo_.clear();
    wordMemo_.clear();
    tempMemo_.tempC = std::numeric_limits<double>::quiet_NaN();
}

namespace {

/** Value of one bit of a row represented as fill byte + overrides. */
inline bool
rowBit(const RowContext &ctx, int bit)
{
    std::uint8_t byte = ctx.victimFill;
    if (ctx.victimOverrides) {
        auto it = ctx.victimOverrides->find(bit >> 3);
        if (it != ctx.victimOverrides->end())
            byte = it->second;
    }
    return (byte >> (bit & 7)) & 1;
}

/** Bit of a neighbor (fill-only representation). */
inline bool
fillBit(std::uint8_t fill, int bit)
{
    return (fill >> (bit & 7)) & 1;
}

/** Whether a cell of polarity @p anti storing @p value holds charge. */
inline bool
holdsCharge(bool anti, bool value)
{
    return anti ? !value : value;
}

/**
 * Coupling of the aggressor on one side, whose row holds @p aggr_fill,
 * at strength @p gamma: the disturbance grows with the charge of the
 * aggressor cell at the same bit position.  Approximation: that cell
 * shares this cell's true/anti polarity (real layouts are repeated per
 * mat, so polarity is locally uniform).
 */
inline double
aggrCoupling(double gamma, std::uint8_t aggr_fill, bool anti, int bit)
{
    return std::max(
        0.1,
        1.0 + gamma * (holdsCharge(anti, fillBit(aggr_fill, bit)) ? 0.5
                                                                  : -0.5));
}

/** The press coupling strength at @p temp_c. */
inline double
pressGamma(const CellModelParams &p, double temp_c)
{
    return p.gammaRpAggr0 + p.gammaRpAggrT * (temp_c - 50.0) / 30.0;
}

/** Candidate @p i of @p cands as the properties evaluateCell reads. */
inline CellProps
candidateProps(const RowCandidates &cands, std::size_t i)
{
    CellProps props;
    props.thetaH = cands.thetaH[i];
    props.thetaP = cands.thetaP[i];
    props.tauRet = cands.tauRet[i];
    props.anti = cands.anti[i] != 0;
    props.domSide = cands.domSide[i];
    props.uH = props.uP = 0.0;
    return props;
}

/**
 * Per-attempt multiplicative damage noise.  Only evaluated when the
 * damage is close enough to threshold for the noise to matter.
 */
inline double
attemptNoise(const RowContext &ctx, int bit)
{
    HashRng rng(hashU64(ctx.noiseNonce, std::uint64_t(bit), 0xA77E));
    return std::exp(ctx.noiseSigma * rng.normal(1));
}

} // namespace

bool
CellModel::evaluateCell(const CellProps &props, int bit,
                        const RowContext &ctx, double temp_c,
                        FlipRecord *out) const
{
    const CellModelParams &p = params_;
    const DoseState &dose = *ctx.dose;

    if (holdsCharge(props.anti, rowBit(ctx, bit))) {
        // RowPress drains charged cells; retention leaks them too.
        const double gamma = pressGamma(p, temp_c);
        const int dom = props.domSide;
        const double c_dom =
            aggrCoupling(gamma, ctx.aggrFill[dom], props.anti, bit);
        const double c_oth =
            aggrCoupling(gamma, ctx.aggrFill[1 - dom], props.anti, bit);
        const double press = dose.press[dom] * c_dom +
                             p.rhoWeakSide * dose.press[1 - dom] * c_oth;
        const double press_damage = press / props.thetaP;
        const double ret_damage =
            ctx.retentionSeconds > 0.0
                ? ctx.retentionSeconds / props.tauRet
                : 0.0;
        double damage = press_damage + ret_damage;
        if (ctx.noiseSigma > 0.0 && damage > 0.5)
            damage *= attemptNoise(ctx, bit);
        if (damage >= 1.0) {
            if (out) {
                out->bit = bit;
                out->oneToZero = !props.anti;
                out->mechanism = press_damage >= ret_damage
                                     ? Mechanism::RowPress
                                     : Mechanism::Retention;
            }
            return true;
        }
        return false;
    }

    // RowHammer charges discharged cells.
    const double c0 =
        aggrCoupling(p.gammaRhAggr, ctx.aggrFill[0], props.anti, bit);
    const double c1 =
        aggrCoupling(p.gammaRhAggr, ctx.aggrFill[1], props.anti, bit);
    const double h = dose.hammer[0] * c0 + dose.hammer[1] * c1 +
                     p.kappaDs * std::min(dose.hammer[0], dose.hammer[1]);
    double damage = h / props.thetaH;
    if (ctx.noiseSigma > 0.0 && damage > 0.5)
        damage *= attemptNoise(ctx, bit);
    if (damage >= 1.0) {
        if (out) {
            out->bit = bit;
            out->oneToZero = props.anti;
            out->mechanism = Mechanism::RowHammer;
        }
        return true;
    }
    return false;
}

CellModel::DamageBounds
CellModel::damageBounds(const DoseState &dose, double retention_seconds,
                        double temp_c) const
{
    const CellModelParams &p = params_;
    DamageBounds b;

    b.hammer = 0.0;
    const double h_sum = dose.hammer[0] + dose.hammer[1];
    if (h_sum > 0.0) {
        const double c_max = 1.0 + 0.5 * std::fabs(p.gammaRhAggr);
        b.hammer =
            h_sum * c_max + std::max(p.kappaDs, 0.0) *
                                std::min(dose.hammer[0], dose.hammer[1]);
    }

    const double gamma = pressGamma(p, temp_c);
    const double c_max = std::max(0.1, 1.0 + 0.5 * std::fabs(gamma)) *
                         std::max(1.0, p.rhoWeakSide);
    b.press = (dose.press[0] + dose.press[1]) * c_max;
    b.retention = retention_seconds > 0.0 ? retention_seconds : 0.0;
    return b;
}

bool
CellModel::rowMayFlip(const RowCandidates &cands, const DoseState &dose,
                      double retention_seconds, double temp_c) const
{
    // A flip needs pre-noise damage >= 1.0; the attempt noise only
    // applies above damage 0.5.  So if a conservative upper bound on
    // every candidate's damage stays below 0.5, no cell of this row
    // can flip — regardless of the noise draw — and the candidate scan
    // can be skipped without changing any result.
    if (cands.size() == 0)
        return false;
    const DamageBounds b =
        damageBounds(dose, retention_seconds, temp_c);
    if (b.hammer >= 0.5 * cands.minThetaH)
        return true;
    return b.press / cands.minThetaP + b.retention / cands.minTauRet >=
           0.5;
}

bool
CellModel::rowMayFlip(int bank, int row, const DoseState &dose,
                      double retention_seconds, double temp_c) const
{
    return rowMayFlip(rowCandidates(bank, row), dose, retention_seconds,
                      temp_c);
}

void
CellModel::evaluateFullScan(int bank, int row, const RowContext &ctx,
                            double temp_c,
                            std::vector<FlipRecord> &out) const
{
    const RowWordMasks &wm = rowWordMasks(bank, row);
    const DamageBounds b =
        damageBounds(*ctx.dose, ctx.retentionSeconds, temp_c);

    // A cell flips only if its pre-noise damage reaches 0.5 (see
    // rowMayFlip).  Charged-branch damage is a sum of a press and a
    // retention term, so it reaching 0.5 requires one term to reach
    // 0.25; the hammer branch is a single term against 0.5.  A word
    // can therefore only contain flips if its weakest cell satisfies
    //   thetaP <= press / 0.25  OR  tauRet <= retention / 0.25  OR
    //   thetaH <= hammer / 0.5,
    // which is exactly a cumulative-occupancy lookup at the ladder
    // level covering that bound.
    const CellModelParams &p = params_;
    // Sum-split tightening (see RowWordMasks::minThetaPLow): the
    // other charged-branch term can contribute at most bound-over-
    // row-minimum, so this term must cover the rest of the 0.5 —
    // never less than the generic 0.25 split.
    const double a_max = b.press / wm.minThetaPLow;
    const double r_max = b.retention / wm.minTauRetLow;
    const double bound_h = b.hammer / 0.5;
    const double bound_p = b.press / std::max(0.25, 0.5 - r_max);
    const double bound_r = b.retention / std::max(0.25, 0.5 - a_max);

    const BucketLadder &lh = store_->hammerLadder();
    const BucketLadder &lp = store_->pressLadder();
    const BucketLadder &lr = store_->retentionLadder();
    const std::size_t kh = b.hammer > 0.0 ? lh.indexFor(bound_h)
                                          : RowWordMasks::npos;
    const std::size_t kp = b.press > 0.0 ? lp.indexFor(bound_p)
                                         : RowWordMasks::npos;
    const std::size_t kr = b.retention > 0.0 ? lr.indexFor(bound_r)
                                             : RowWordMasks::npos;

    // Within an eligible word, most cells still provably cannot flip:
    // their thresholds are monotone in the raw uniform draws, so a
    // per-word uniform cutoff (weakQuantileCutoff), as an integer draw
    // cutoff (drawThreshold), discards them on the word's kernel
    // draws.  A cell's charge state then picks the one branch of
    // evaluateCell it can take: a charged cell flips only through
    // thetaP or tauRet, a discharged one only through thetaH, so the
    // cell is skipped when that branch's draws fail their cutoffs,
    // and only that branch's thresholds are derived.  Retention has
    // no row/word variance component, so its cutoff is row-global.
    const RowZ row_z = computeRowZ(seed_, bank, row);
    const std::uint64_t prefix =
        hashPrefix(seed_, std::uint64_t(bank), std::uint64_t(row));
    const std::uint64_t t_r = drawThreshold(
        weakQuantileCutoff(bound_r, p.muRet, p.sigmaRet, 0.0));
    constexpr double kUnread = std::numeric_limits<double>::quiet_NaN();

    FlipRecord rec;
    WordDraws d{};
    for (std::size_t g = 0; g < wm.numGroups; ++g) {
        std::uint64_t mask =
            wm.level(wm.hammer, kh, lh.size(), g) |
            wm.level(wm.press, kp, lp.size(), g) |
            wm.level(wm.retention, kr, lr.size(), g);
        while (mask) {
            const std::size_t w =
                g * 64 + std::size_t(__builtin_ctzll(mask));
            mask &= mask - 1;

            const RowWordZ z =
                computeWordZ(row_z, seed_, bank, row, int(w));
            const std::uint64_t t_h = drawThreshold(weakQuantileCutoff(
                bound_h, p.muH, p.sigmaH,
                p.sigmaRowH * z.rowH + p.sigmaWordH * z.wordH));
            const std::uint64_t t_p = drawThreshold(weakQuantileCutoff(
                bound_p, p.muP, p.sigmaP,
                p.sigmaRowP * z.rowP + p.sigmaWordP * z.wordP));

            const int first = int(w) * 64;
            const int n = std::min(64, bitsPerRow_ - first);
            drawWord(prefix, std::uint64_t(first), d);
            for (int i = 0; i < n; ++i) {
                const bool weak_h = d.hammer[i] < t_h;
                const bool weak_c =
                    d.press[i] < t_p || d.retention[i] < t_r;
                if (!weak_h && !weak_c)
                    continue;
                const int bit = first + i;
                const HashRng cell(hashFinish(prefix, std::uint64_t(bit)));
                const bool anti = cellIsAnti(p, cell);
                const bool charged = holdsCharge(anti, rowBit(ctx, bit));
                if (!(charged ? weak_c : weak_h))
                    continue;
                // evaluateCell reads only this branch's properties.
                CellProps props{kUnread, kUnread, kUnread, anti,
                                0,       kUnread, kUnread};
                if (charged) {
                    props.domSide = cellDomSide(cell);
                    props.thetaP =
                        pressThreshold(p, drawUniform(d.press[i]), z);
                    if (ctx.retentionSeconds > 0.0)
                        props.tauRet = retentionThreshold(
                            p, drawUniform(d.retention[i]));
                } else {
                    props.thetaH =
                        hammerThreshold(p, drawUniform(d.hammer[i]), z);
                }
                if (evaluateCell(props, bit, ctx, temp_c, &rec))
                    out.push_back(rec);
            }
        }
    }
}

void
CellModel::evaluateInto(int bank, int row, const RowContext &ctx,
                        bool full_scan, double temp_c,
                        std::vector<FlipRecord> &out) const
{
    if (!ctx.dose)
        panic("CellModel::evaluate: null dose state");
    if (ctx.dose->empty() && ctx.retentionSeconds <= 0.0)
        return;

    if (full_scan) {
        evaluateFullScan(bank, row, ctx, temp_c, out);
        return;
    }

    FlipRecord rec;
    const RowCandidates &cands = rowCandidates(bank, row);
    if (!rowMayFlip(cands, *ctx.dose, ctx.retentionSeconds, temp_c))
        return;

    for (std::size_t i = 0; i < cands.size(); ++i) {
        if (evaluateCell(candidateProps(cands, i), cands.bit[i], ctx,
                         temp_c, &rec))
            out.push_back(rec);
    }
}

PreparedRow
CellModel::prepareRow(int bank, int row, std::uint8_t victim_fill,
                      std::uint8_t aggr_fill_0, std::uint8_t aggr_fill_1,
                      double temp_c) const
{
    const CellModelParams &p = params_;
    PreparedRow prep;
    prep.victimFill = victim_fill;
    prep.aggrFill[0] = aggr_fill_0;
    prep.aggrFill[1] = aggr_fill_1;
    prep.tempC = temp_c;
    prep.cands = &rowCandidates(bank, row);

    const RowCandidates &cands = *prep.cands;
    const double gamma = pressGamma(p, temp_c);
    prep.coef.assign(cands.size(), {});
    for (std::size_t i = 0; i < cands.size(); ++i) {
        const CellProps props = candidateProps(cands, i);
        const int bit = cands.bit[i];
        auto &k = prep.coef[i];
        // The terms of evaluateCell's damage at these fills, per unit
        // of dose: a charged cell sees press and retention, a
        // discharged one hammer.
        if (holdsCharge(props.anti, fillBit(victim_fill, bit))) {
            const int dom = props.domSide;
            k[PreparedRow::kPress0 + dom] =
                aggrCoupling(gamma, prep.aggrFill[dom], props.anti, bit) /
                props.thetaP;
            k[PreparedRow::kPress0 + 1 - dom] =
                std::max(p.rhoWeakSide, 0.0) *
                aggrCoupling(gamma, prep.aggrFill[1 - dom], props.anti,
                             bit) /
                props.thetaP;
            k[PreparedRow::kRetention] = 1.0 / props.tauRet;
        } else {
            k[PreparedRow::kHammer0] =
                aggrCoupling(p.gammaRhAggr, prep.aggrFill[0], props.anti,
                             bit) /
                props.thetaH;
            k[PreparedRow::kHammer1] =
                aggrCoupling(p.gammaRhAggr, prep.aggrFill[1], props.anti,
                             bit) /
                props.thetaH;
            k[PreparedRow::kHammerMin] =
                std::max(p.kappaDs, 0.0) / props.thetaH;
        }
    }
    return prep;
}

void
CellModel::evaluatePrepared(const PreparedRow &prep, const RowContext &ctx,
                            bool first_only,
                            std::vector<FlipRecord> &out) const
{
    if (!ctx.dose)
        panic("CellModel::evaluatePrepared: null dose state");
    if (ctx.victimFill != prep.victimFill ||
        ctx.aggrFill[0] != prep.aggrFill[0] ||
        ctx.aggrFill[1] != prep.aggrFill[1] ||
        (ctx.victimOverrides && !ctx.victimOverrides->empty()))
        panic("CellModel::evaluatePrepared: the context's data differs "
              "from the prepared row's");
    const DoseState &dose = *ctx.dose;
    if (dose.empty() && ctx.retentionSeconds <= 0.0)
        return;
    const RowCandidates &cands = *prep.cands;
    if (!rowMayFlip(cands, dose, ctx.retentionSeconds, prep.tempC))
        return;

    const double terms[PreparedRow::kTerms] = {
        dose.hammer[0],
        dose.hammer[1],
        std::min(dose.hammer[0], dose.hammer[1]),
        dose.press[0],
        dose.press[1],
        ctx.retentionSeconds > 0.0 ? ctx.retentionSeconds : 0.0};
    // A cell flips only if its pre-noise damage reaches 0.5 (see
    // rowMayFlip).  The bound is the same sum of non-negative terms,
    // factored differently and with kappa and rho clamped at 0, so it
    // is at least the damage less a few ulps of rounding, which the
    // 1e-9 margin covers.
    constexpr double kCut = 0.5 * (1.0 - 1e-9);
    FlipRecord rec;
    for (std::size_t i = 0; i < cands.size(); ++i) {
        const auto &k = prep.coef[i];
        double bound = 0.0;
        for (int t = 0; t < PreparedRow::kTerms; ++t)
            bound += k[std::size_t(t)] * terms[t];
        if (bound < kCut)
            continue;
        if (evaluateCell(candidateProps(cands, i), cands.bit[i], ctx,
                         prep.tempC, &rec)) {
            out.push_back(rec);
            if (first_only)
                return;
        }
    }
}

std::vector<FlipRecord>
CellModel::evaluate(int bank, int row, const RowContext &ctx,
                    bool full_scan, double temp_c) const
{
    std::vector<FlipRecord> flips;
    evaluateInto(bank, row, ctx, full_scan, temp_c, flips);
    return flips;
}

} // namespace rp::device
