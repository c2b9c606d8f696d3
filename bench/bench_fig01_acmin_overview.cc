/**
 * @file
 * Fig. 1: ACmin distributions of conventional RowHammer vs three
 * representative RowPress cases (tAggON = tREFI, 9 x tREFI, 30 ms) at
 * 80 C, single- and double-sided, per manufacturer.
 */

#include "api/context.h"
#include "core/rowpress.h"

using namespace rp;
using namespace rp::literals;

namespace {

void
runFig01(api::ExperimentContext &ctx)
{
    const std::vector<Time> t_agg_ons = {36_ns, 7800_ns, 70200_ns, 30_ms};
    const double temp = ctx.config().getDouble("temp");

    for (const auto &die : ctx.dies()) {
        api::Dataset table(die.name + " @ " + api::cell(temp) +
                           "C (ACmin: min / Q1 / median / Q3 / max)");
        table.header({"tAggON", "pattern", "min", "q1", "median", "q3",
                      "max", "rows-flipped"});
        const auto mc = ctx.moduleConfig(die, temp);
        for (auto kind : {chr::AccessKind::SingleSided,
                          chr::AccessKind::DoubleSided}) {
            auto points =
                chr::acminSweep(mc, ctx.engine(), t_agg_ons, kind);
            for (const auto &point : points) {
                auto s = point.acminSummary();
                table.row({formatTime(point.tAggOn),
                           chr::accessKindName(kind),
                           api::fmtCount(s.min), api::fmtCount(s.q1),
                           api::fmtCount(s.median), api::fmtCount(s.q3),
                           api::fmtCount(s.max),
                           api::cell(point.fractionFlipped())});
            }
        }
        ctx.emit(table);
        ctx.note("\n");
    }
    ctx.note("Paper shape: RowPress reduces ACmin by 1-2 orders of "
             "magnitude vs RowHammer;\nat tAggON = 30 ms the minimum "
             "reaches a single activation (dashed red boxes).\n\n");
}

REGISTER_EXPERIMENT_OPTS(
    fig01, "Fig. 1: ACmin overview, RowHammer vs RowPress",
    "Fig. 1 (box-and-whiskers at 80C)", "characterization",
    [](api::ConfigSchema &schema) {
        schema.add({"temp", api::OptionType::Double, "80",
                    "module temperature (C)", 0.0, true});
    },
    runFig01);

} // namespace
