/**
 * @file
 * Fig. 9: minimum tAggON to induce at least one bitflip (tAggONmin)
 * as the activation count grows from 1 to 10 K (single-sided, 50 C).
 * Obsv. 5: slope ~ -1; Obsv. 6: single-activation flips below 10 ms
 * exist in the newest dies.
 */

#include <cmath>

#include "api/context.h"
#include "core/rowpress.h"

using namespace rp;

namespace {

void
runFig09(api::ExperimentContext &ctx)
{
    const std::vector<std::uint64_t> acts = {1, 10, 100, 1000, 10000};
    const double temp = ctx.config().getDouble("temp");

    for (const auto &die : ctx.dies()) {
        const auto mc = ctx.moduleConfig(die, temp);
        api::Dataset table(die.name);
        table.header({"AC", "mean tAggONmin", "min", "max",
                      "AC*mean(ms)"});
        std::vector<double> lx, ly;
        std::vector<chr::TAggOnMinPoint> points;
        for (std::uint64_t ac : acts) {
            auto point = chr::tAggOnMinPoint(
                mc, ctx.engine(), ac, chr::AccessKind::SingleSided);
            auto s = point.summary();
            points.push_back(std::move(point));
            if (s.count == 0) {
                table.row({api::cell(ac), "No Bitflip", "-", "-",
                           "-"});
                continue;
            }
            table.row({api::cell(ac),
                       formatTime(Time(s.mean * double(units::US))),
                       formatTime(Time(s.min * double(units::US))),
                       formatTime(Time(s.max * double(units::US))),
                       api::cell(double(ac) * s.mean / 1000.0)});
            lx.push_back(std::log10(double(ac)));
            ly.push_back(std::log10(s.mean));
        }
        ctx.emit(table);
        ctx.emitTAggOnMinRaw("raw_taggonmin_ss_" + die.id, die.id,
                             temp, points);
        ctx.notef("log-log slope: %.3f (paper: -0.999 to -1.000)\n\n",
                  linearSlope(lx, ly));
    }
}

REGISTER_EXPERIMENT_OPTS(
    fig09, "Fig. 9: tAggONmin vs activation count",
    "Fig. 9 (single-sided @ 50C)", "characterization",
    [](api::ConfigSchema &schema) {
        schema.add({"temp", api::OptionType::Double, "50",
                    "module temperature (C)", 0.0, true});
    },
    runFig09);

} // namespace
