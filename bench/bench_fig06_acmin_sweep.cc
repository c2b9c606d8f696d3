/**
 * @file
 * Figs. 6 and 7: ACmin as tAggON increases (single-sided, 50 C),
 * including the log-log trend-line slopes (paper: -1.020 / -1.013 /
 * -1.013 for Mfrs. S / H / M) and the linear-region reduction rates.
 */

#include <cmath>

#include "api/context.h"
#include "core/rowpress.h"

using namespace rp;
using namespace rp::literals;

namespace {

void
runFig06(api::ExperimentContext &ctx)
{
    const double temp = ctx.config().getDouble("temp");
    for (const auto &die : ctx.dies()) {
        const auto mc = ctx.moduleConfig(die, temp);
        api::Dataset table(die.name + " single-sided @ " +
                           api::cell(temp) + "C");
        table.header({"tAggON", "mean ACmin", "min", "max",
                      "mean*tAggON(ms)"});

        auto points = chr::acminSweep(mc, ctx.engine(),
                                      chr::standardTAggOnSweep(),
                                      chr::AccessKind::SingleSided);

        std::vector<double> log_t, log_ac;
        for (const auto &point : points) {
            const Time t = point.tAggOn;
            auto s = point.acminSummary();
            if (s.count == 0) {
                table.row({formatTime(t), "No Bitflip", "-", "-", "-"});
                continue;
            }
            table.row({formatTime(t), api::fmtCount(s.mean),
                       api::fmtCount(s.min), api::fmtCount(s.max),
                       api::cell(s.mean * toMs(t))});
            if (t >= 7800_ns) {
                log_t.push_back(std::log10(toUs(t)));
                log_ac.push_back(std::log10(s.mean));
            }
        }
        ctx.emit(table);
        ctx.emitAcminSweepRaw("raw_acmin_sweep_ss_" + die.id, die.id,
                              temp, chr::AccessKind::SingleSided,
                              chr::DataPattern::CheckerBoard, points);
        const double slope = linearSlope(log_t, log_ac);
        ctx.notef("log-log slope for tAggON >= tREFI: %.3f "
                  "(paper: ~-1.01 to -1.02)\n\n",
                  slope);
    }
}

REGISTER_EXPERIMENT_OPTS(
    fig06, "Figs. 6/7: ACmin vs tAggON sweep",
    "Fig. 6 (log-log), Fig. 7 (linear region)", "characterization",
    [](api::ConfigSchema &schema) {
        schema.add({"temp", api::OptionType::Double, "50",
                    "module temperature (C)", 0.0, true});
    },
    runFig06);

} // namespace
