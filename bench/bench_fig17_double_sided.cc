/**
 * @file
 * Figs. 17, 18, and 48: double-sided RowPress ACmin and the
 * single-minus-double difference at 50 C and 80 C.  Obsv. 13: beyond
 * a crossover tAggON, single-sided RowPress becomes more effective
 * than double-sided (unlike RowHammer).
 */

#include "api/context.h"
#include "core/rowpress.h"

using namespace rp;
using namespace rp::literals;

namespace {

const std::vector<Time> kSweep = {36_ns,   186_ns,  636_ns,  1536_ns,
                                  7800_ns, 70200_ns, 1_ms,   10_ms};

void
runFig17(api::ExperimentContext &ctx)
{
    for (const auto &die : ctx.dies()) {
        for (double temp : {50.0, 80.0}) {
            const auto mc = ctx.moduleConfig(die, temp);
            auto ss_points = chr::acminSweep(
                mc, ctx.engine(), kSweep, chr::AccessKind::SingleSided);
            auto ds_points = chr::acminSweep(
                mc, ctx.engine(), kSweep, chr::AccessKind::DoubleSided);

            api::Dataset table(die.name + " @ " + api::cell(temp) +
                               "C");
            table.header({"tAggON", "SS mean ACmin", "DS mean ACmin",
                          "SS - DS", "more effective"});
            for (std::size_t ti = 0; ti < kSweep.size(); ++ti) {
                const double a_ss = ss_points[ti].meanAcmin();
                const double a_ds = ds_points[ti].meanAcmin();
                if (a_ss <= 0 && a_ds <= 0) {
                    table.row({formatTime(kSweep[ti]), "No Bitflip",
                               "No Bitflip", "-", "-"});
                    continue;
                }
                std::string winner = "-";
                if (a_ss > 0 && a_ds > 0)
                    winner = a_ss < a_ds ? "single" : "double";
                else
                    winner = a_ss > 0 ? "single" : "double";
                table.row({formatTime(kSweep[ti]),
                           a_ss > 0 ? api::fmtCount(a_ss)
                                    : std::string("No Bitflip"),
                           a_ds > 0 ? api::fmtCount(a_ds)
                                    : std::string("No Bitflip"),
                           (a_ss > 0 && a_ds > 0)
                               ? api::cell(a_ss - a_ds)
                               : std::string("-"),
                           winner});
            }
            ctx.emit(table);
            ctx.note("\n");
        }
    }
    ctx.note("Paper shape (Obsv. 13): double-sided wins at small "
             "tAggON (RowHammer regime);\nsingle-sided needs fewer "
             "total activations once tAggON grows past the\n"
             "crossover (~1.5 us at 50C, earlier at 80C).\n\n");
}

REGISTER_EXPERIMENT(fig17, "Figs. 17/18: single- vs double-sided RowPress",
                    "Fig. 17 (DS ACmin @50C), Fig. 18 (SS - DS "
                    "difference @50C/80C)",
                    "characterization", runFig17);

} // namespace
