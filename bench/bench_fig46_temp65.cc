/**
 * @file
 * Figs. 46-48 (Appendix F): 65 C results - ACmin at 65 C normalized
 * to 50 C, ACmin at 80 C normalized to 65 C, and the single-minus-
 * double-sided difference across all three temperatures.
 */

#include "api/context.h"
#include "core/rowpress.h"

using namespace rp;
using namespace rp::literals;

namespace {

const std::vector<Time> kSweep = {36_ns, 636_ns, 7800_ns, 70200_ns,
                                  1_ms, 30_ms};

void
runFig46(api::ExperimentContext &ctx)
{
    for (const auto &die : ctx.dies()) {
        auto p50s = chr::acminSweep(ctx.moduleConfig(die, 50.0),
                                    ctx.engine(), kSweep,
                                    chr::AccessKind::SingleSided);
        auto p65s = chr::acminSweep(ctx.moduleConfig(die, 65.0),
                                    ctx.engine(), kSweep,
                                    chr::AccessKind::SingleSided);
        auto p80s = chr::acminSweep(ctx.moduleConfig(die, 80.0),
                                    ctx.engine(), kSweep,
                                    chr::AccessKind::SingleSided);
        auto d65s = chr::acminSweep(ctx.moduleConfig(die, 65.0),
                                    ctx.engine(), kSweep,
                                    chr::AccessKind::DoubleSided);

        api::Dataset table(die.name +
                           " (single-sided mean ACmin ratios)");
        table.header({"tAggON", "65C/50C", "80C/65C", "SS-DS@65C"});
        for (std::size_t ti = 0; ti < kSweep.size(); ++ti) {
            auto ratio = [](double num, double den) -> std::string {
                return (num > 0 && den > 0) ? api::cell(num / den)
                                            : std::string("-");
            };
            std::string diff = "-";
            if (p65s[ti].meanAcmin() > 0 && d65s[ti].meanAcmin() > 0)
                diff = api::cell(p65s[ti].meanAcmin() -
                                 d65s[ti].meanAcmin());
            table.row({formatTime(kSweep[ti]),
                       ratio(p65s[ti].meanAcmin(), p50s[ti].meanAcmin()),
                       ratio(p80s[ti].meanAcmin(), p65s[ti].meanAcmin()),
                       diff});
        }
        ctx.emit(table);
        ctx.note("\n");
    }
    ctx.note("Paper shape: ACmin shrinks consistently at each "
             "temperature step for\nRowPress-regime tAggON; the "
             "single-sided advantage at long tAggON holds\nat 65C "
             "as well.\n\n");
}

REGISTER_EXPERIMENT(fig46, "Figs. 46-48: 65C temperature step",
                    "Appendix F (normalized ACmin at 65C and 80C)",
                    "characterization", runFig46);

} // namespace
