#include "chr/oracle.h"

#include <algorithm>

#include "common/logging.h"

namespace rp::chr {

namespace {

/** Real checkRow evaluates with the victim's (empty) override map. */
const std::unordered_map<int, std::uint8_t> kNoOverrides;

} // namespace

AttemptOracle::AttemptOracle(bender::TestPlatform &module,
                             const RowLayout &layout, DataPattern pattern)
    : module_(module),
      layout_(layout),
      pattern_(pattern),
      doubleSided_(layout.aggressors.size() > 1),
      vnow_(module.now())
{
    for (std::size_t i = 0; i < layout_.victims.size(); ++i)
        victimIndex_[device::FaultModel::doseKey(
            layout_.bank, layout_.victims[i])] = i;

    for (int a : layout_.aggressors)
        actRows_.emplace_back(layout_.bank, a);
    std::sort(actRows_.begin(), actRows_.end());
    actRows_.erase(std::unique(actRows_.begin(), actRows_.end()),
                   actRows_.end());

    // The module's cell model, edited parameters included: they set
    // the dose deposits the scratch platform records.
    scratch_ =
        std::make_unique<bender::TestPlatform>(module_.config());
    scratch_->chip().fault().cells().adoptModelOf(
        module_.chip().fault().cells());
    scratch_->setTemperature(module_.temperature());
    prepared_.resize(layout_.victims.size());
}

AttemptOracle::~AttemptOracle() = default;

void
AttemptOracle::splitOps(
    const std::vector<device::FaultModel::DoseOp> &ops,
    Ops VictimTrace::*segment, Profile &prof) const
{
    for (const auto &op : ops) {
        if (op.comp == device::FaultModel::DoseOp::kRestore)
            continue; // only deposits are replayed
        auto it = victimIndex_.find(op.key);
        if (it == victimIndex_.end())
            continue; // deposit on a non-victim row (e.g. an aggressor)
        (prof.victims[it->second].*segment)
            .emplace_back(op.comp, op.value);
    }
}

Time
AttemptOracle::runScratch(Time t_agg_on, std::uint64_t total_acts)
{
    initLayout(*scratch_, layout_, pattern_);
    return scratch_->run(makePressProgram(layout_, t_agg_on, total_acts,
                                          scratch_->timing()));
}

void
AttemptOracle::positionScratch(Time t_agg_on, const History &history)
{
    if (scratchState_ == history)
        return;
    const auto [cls, odd, t_prev, tail_elapsed] = history;
    if (cls == 0) {
        scratch_->copyStateOf(module_, layout_.bank, layout_.aggressors);
    } else {
        // The rest times and bank state an attempt that activates
        // every aggressor leaves depend only on its parity and tAggON,
        // not on its activation count or its start: re-create them
        // with the shortest such attempt.
        runScratch(doubleSided_ ? t_prev : t_agg_on,
                   doubleSided_ ? 2 + std::uint64_t(odd) : 1);
    }
    if (tail_elapsed > 0) {
        // Likewise one single-activation attempt re-creates the first
        // aggressor's rest and the bank; the second aggressor then
        // rests as much longer as those attempts took.
        const Time took = runScratch(t_agg_on, 1);
        scratch_->chip().fault().shiftRowHistory(
            layout_.bank, layout_.aggressors[1], took - tail_elapsed);
    }
    scratchState_ = history;
}

AttemptOracle::Profile
AttemptOracle::measureProfile(Time t_agg_on, const History &history)
{
    positionScratch(t_agg_on, history);

    // One aggressor segment: ACT, hold open for tAggON, PRE.
    auto segmentOf = [&](int aggr) {
        bender::Program p;
        p.act(layout_.bank, aggr);
        p.wait(t_agg_on);
        p.pre(layout_.bank);
        return p;
    };
    const bender::Program half_a = segmentOf(layout_.aggressors[0]);
    const bender::Program half_b =
        doubleSided_ ? segmentOf(layout_.aggressors[1])
                     : bender::Program{};

    Profile prof;
    prof.victims.resize(layout_.victims.size());
    initLayout(*scratch_, layout_, pattern_);

    // Iteration 1 (warm-up: rest times depend on the attempt history).
    auto r1a = scratch_->runTraced(half_a);
    prof.dHalf1 = r1a.duration;
    splitOps(r1a.ops, &VictimTrace::iter1, prof);
    splitOps(r1a.ops, &VictimTrace::iter1Half, prof);
    prof.d1 = r1a.duration;
    if (doubleSided_) {
        auto r1b = scratch_->runTraced(half_b);
        splitOps(r1b.ops, &VictimTrace::iter1, prof);
        prof.d1 += r1b.duration;
    }

    // Iteration 2 = the steady state (same per-iteration dose delta
    // and duration the loop fast-forward extrapolates).
    {
        bender::Program body = half_a;
        if (doubleSided_)
            body.append(half_b);
        auto r2 = scratch_->runTraced(body);
        prof.durS = r2.duration;
        splitOps(r2.ops, &VictimTrace::steady, prof);

        // The extrapolation jump leaves only the command gap between
        // the (virtual) last PRE and the final iteration's first ACT,
        // so its rest-time weight differs from the steady state.  Any
        // jump >= tRP reproduces it; use the smallest the platform
        // would take (count == threshold -> extra == threshold - 3).
        const double extra =
            double(module_.fastForwardThreshold() - 3);
        scratch_->fastForwardBy(Time(double(prof.durS) * extra),
                                actRows_);
        auto rf = scratch_->runTraced(body);
        prof.durFinal = rf.duration;
        splitOps(rf.ops, &VictimTrace::finalIter, prof);
    }

    if (doubleSided_) {
        // Odd-count tail: one extra first-aggressor segment.  After
        // any full iteration (concrete or post-jump) the tail sees the
        // steady rest-time structure.
        auto rt = scratch_->runTraced(half_a);
        prof.durTail = rt.duration;
        splitOps(rt.ops, &VictimTrace::tail, prof);
        scratchState_ = History{1, 1, t_agg_on, 0};
    } else {
        scratchState_ = History{1, 0, 0, 0};
    }
    return prof;
}

const AttemptOracle::Profile &
AttemptOracle::profileFor(Time t_agg_on, const History &history)
{
    const ProfileKey key{t_agg_on, history};
    auto it = profiles_.find(key);
    if (it == profiles_.end())
        it = profiles_.emplace(key, measureProfile(t_agg_on, history))
                 .first;
    return it->second;
}

bool
AttemptOracle::probe(Time t_agg_on, std::uint64_t total_acts)
{
    evaluate(next(), t_agg_on, total_acts, true, probeBuf_);
    vnow_ += probeBuf_.elapsed;
    if (doubleSided_ && total_acts == 1)
        std::get<3>(state_) += probeBuf_.elapsed;
    else if (total_acts >= 1)
        state_ = History{1, doubleSided_ && total_acts % 2 != 0 ? 1 : 0,
                         doubleSided_ ? t_agg_on : Time(0), 0};
    return probeBuf_.any();
}

void
AttemptOracle::flipsAt(const Start &at, Time t_agg_on,
                       std::uint64_t total_acts, AttemptResult &out)
{
    evaluate(at, t_agg_on, total_acts, false, out);
}

AttemptResult
AttemptOracle::runOnModule(const Start &at, Time t_agg_on,
                           std::uint64_t total_acts)
{
    positionScratch(t_agg_on, at.history);
    module_.copyStateOf(*scratch_, layout_.bank, layout_.aggressors,
                        at.vnow - scratch_->now());
    return runPressAttempt(module_, layout_, pattern_, t_agg_on,
                           total_acts);
}

void
AttemptOracle::evaluate(const Start &at, Time t_agg_on,
                        std::uint64_t total_acts, bool first_only,
                        AttemptResult &out)
{
    out.flips.clear();
    const Profile &prof = profileFor(t_agg_on, at.history);

    const std::uint64_t count =
        doubleSided_ ? total_acts / 2 : total_acts;
    const bool tail = doubleSided_ && (total_acts % 2 != 0);
    const std::uint64_t threshold = module_.fastForwardThreshold();
    const std::size_t nv = layout_.victims.size();

    acc_.assign(nv, std::array<double, 4>{0.0, 0.0, 0.0, 0.0});
    auto apply = [&](Ops VictimTrace::*seg) {
        for (std::size_t v = 0; v < nv; ++v)
            for (const auto &[comp, value] : prof.victims[v].*seg)
                acc_[v][std::size_t(comp)] += value;
    };

    Time elapsed = 0;
    if (count == 0) {
        if (tail) {
            apply(&VictimTrace::iter1Half);
            elapsed = prof.dHalf1;
        }
    } else if (count < threshold) {
        // The platform executes short loops concretely.
        apply(&VictimTrace::iter1);
        for (std::uint64_t i = 1; i < count; ++i)
            apply(&VictimTrace::steady);
        elapsed = prof.d1 + prof.durS * Time(count - 1);
        if (tail) {
            apply(&VictimTrace::tail);
            elapsed += prof.durTail;
        }
    } else {
        // Replay the loop fast-forward: warm-up, measured iteration,
        // `cur += (cur - prev) * extra` extrapolation, concrete final
        // iteration — the exact arithmetic execLoop performs.
        apply(&VictimTrace::iter1);
        prevAcc_ = acc_;
        apply(&VictimTrace::steady);
        const double extra = double(count - 3);
        for (std::size_t v = 0; v < nv; ++v)
            for (std::size_t c = 0; c < 4; ++c)
                acc_[v][c] += (acc_[v][c] - prevAcc_[v][c]) * extra;
        apply(&VictimTrace::finalIter);
        elapsed = prof.d1 + prof.durS +
                  Time(double(prof.durS) * extra) + prof.durFinal;
        if (tail) {
            apply(&VictimTrace::tail);
            elapsed += prof.durTail;
        }
    }

    // Evaluate every victim row exactly as checkRow would at the end
    // of the program: same dose, same retention, same noise nonce.
    const Time now_end = at.vnow + elapsed;
    const auto &fault = module_.chip().fault();
    const device::CellModel &cells = fault.cells();
    const double temp = fault.temperature();
    const double ret =
        elapsed <= 0
            ? 0.0
            : toSec(elapsed) * cells.retentionTempFactor(temp);

    auto fillOf = [&](int row) -> std::uint8_t {
        if (row < 0 || row >= module_.org().rows)
            return 0x00;
        for (int a : layout_.aggressors)
            if (a == row)
                return aggressorFill(pattern_);
        for (int v : layout_.victims)
            if (v == row)
                return victimFill(pattern_);
        return module_.chip().rowFill(layout_.bank, row); // left as is
    };

    for (std::size_t v = 0; v < nv; ++v) {
        const int victim = layout_.victims[v];
        device::DoseState dose;
        dose.hammer[0] = acc_[v][0];
        dose.hammer[1] = acc_[v][1];
        dose.press[0] = acc_[v][2];
        dose.press[1] = acc_[v][3];

        device::RowContext ctx;
        ctx.dose = &dose;
        ctx.victimFill = victimFill(pattern_);
        ctx.victimOverrides = &kNoOverrides;
        ctx.aggrFill[0] = victim > 0 ? fillOf(victim - 1) : 0x00;
        ctx.aggrFill[1] =
            victim + 1 < module_.org().rows ? fillOf(victim + 1) : 0x00;
        ctx.retentionSeconds = ret;
        ctx.noiseSigma = fault.evalNoiseSigma();
        ctx.noiseNonce = std::uint64_t(now_end);

        if (dose.empty() && ret <= 0.0)
            continue;
        // Prepared even past the first flip, so a probe resolves the
        // same candidate rows as a full evaluation.
        device::PreparedRow &prep = prepared_[v];
        if (!(prep.tempC == temp))
            prep = cells.prepareRow(layout_.bank, victim, ctx.victimFill,
                                    ctx.aggrFill[0], ctx.aggrFill[1],
                                    temp);
        if (first_only && out.any())
            continue;
        flipBuf_.clear();
        cells.evaluatePrepared(prep, ctx, first_only, flipBuf_);
        for (const auto &f : flipBuf_)
            out.flips.push_back({victim, f});
    }

    out.elapsed = elapsed;
}

} // namespace rp::chr
