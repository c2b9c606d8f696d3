/**
 * @file
 * Fig. 15 (and Figs. 46/47): tAggONmin at a single activation as
 * temperature sweeps from 50 C to 80 C in 5 C steps.  Obsv. 11:
 * tAggONmin decreases significantly with temperature.
 */

#include "api/context.h"
#include "core/rowpress.h"

using namespace rp;

namespace {

void
runFig15(api::ExperimentContext &ctx)
{
    const int step = ctx.config().getInt("temp-step");

    for (const auto &die : ctx.dies()) {
        api::Dataset table(die.name + " (tAggONmin in ms, AC = 1)");
        table.header({"temp(C)", "mean", "min", "max", "flipped-frac"});
        for (int temp = 50; temp <= 80; temp += step) {
            auto point = chr::tAggOnMinPoint(
                ctx.moduleConfig(die, double(temp)), ctx.engine(), 1,
                chr::AccessKind::SingleSided);
            auto s = point.summary();
            std::size_t flipped = 0;
            for (const auto &[row, res] : point.locations) {
                (void)row;
                flipped += res.flipped ? 1 : 0;
            }
            const double frac =
                double(flipped) / double(point.locations.size());
            if (s.count == 0) {
                table.row({api::cell(temp), "No Bitflip", "-", "-",
                           api::cell(frac)});
                continue;
            }
            table.row({api::cell(temp),
                       api::cell(s.mean / 1000.0),
                       api::cell(s.min / 1000.0),
                       api::cell(s.max / 1000.0),
                       api::cell(frac)});
        }
        ctx.emit(table);
        ctx.note("\n");
    }
    ctx.note("Paper shape (Obsv. 11): mean tAggONmin shrinks by "
             "1.6x-2.8x from 50C to 80C\n(largest for Mfr. H).\n\n");
}

REGISTER_EXPERIMENT_OPTS(
    fig15, "Fig. 15: tAggONmin @ AC=1 vs temperature",
    "Fig. 15 (50-80C, 5C steps, single-sided)", "characterization",
    [](api::ConfigSchema &schema) {
        schema.add({"temp-step", api::OptionType::Int, "5",
                    "temperature sweep step (C)", 1.0, true});
    },
    runFig15);

} // namespace
