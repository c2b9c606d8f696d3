/**
 * @file
 * Figs. 13 and 14: temperature sensitivity.  ACmin at 80 C normalized
 * to 50 C (Obsv. 9: RowPress worsens with temperature) and the
 * fraction of rows with bitflips at 80 C (Obsv. 10).
 */

#include "api/context.h"
#include "core/rowpress.h"

using namespace rp;
using namespace rp::literals;

namespace {

void
runFig13(api::ExperimentContext &ctx)
{
    const std::vector<Time> sweep = {36_ns,    636_ns,   7800_ns,
                                     70200_ns, 1_ms,     30_ms};

    for (const auto &die : ctx.dies()) {
        auto p50s = chr::acminSweep(ctx.moduleConfig(die, 50.0),
                                    ctx.engine(), sweep,
                                    chr::AccessKind::SingleSided);
        auto p80s = chr::acminSweep(ctx.moduleConfig(die, 80.0),
                                    ctx.engine(), sweep,
                                    chr::AccessKind::SingleSided);

        api::Dataset table(die.name);
        table.header({"tAggON", "ACmin@50C", "ACmin@80C",
                      "80C/50C ratio", "rows@80C"});
        for (std::size_t ti = 0; ti < sweep.size(); ++ti) {
            const double a50 = p50s[ti].meanAcmin();
            const double a80 = p80s[ti].meanAcmin();
            table.row({formatTime(sweep[ti]),
                       a50 > 0 ? api::fmtCount(a50) : "No Bitflip",
                       a80 > 0 ? api::fmtCount(a80) : "No Bitflip",
                       (a50 > 0 && a80 > 0)
                           ? api::cell(a80 / a50)
                           : std::string("-"),
                       api::cell(p80s[ti].fractionFlipped())});
        }
        ctx.emit(table);
        ctx.note("\n");
    }
    ctx.note("Paper shape: the normalized ratio drops well below "
             "1.0 for RowPress-regime\ntAggON (e.g. 0.32x-0.59x at "
             "tREFI) while staying near 1.0 for RowHammer;\nrow "
             "fractions approach 100% at 80C.\n\n");
}

REGISTER_EXPERIMENT(fig13, "Figs. 13/14: temperature sensitivity",
                    "Fig. 13 (ACmin@80C / ACmin@50C), Fig. 14 (row "
                    "fraction @80C)",
                    "characterization", runFig13);

} // namespace
