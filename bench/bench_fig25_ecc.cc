/**
 * @file
 * Figs. 25 and 26: ECC implications.  Distribution of bitflips per
 * 64-bit word at maximum activation count for tAggON = tREFI and
 * 9 x tREFI, single- and double-sided, plus SECDED / Chipkill
 * correction outcomes (section 7.1).
 */

#include <algorithm>

#include "api/context.h"
#include "core/rowpress.h"

using namespace rp;
using namespace rp::literals;

namespace {

void
runFig25(api::ExperimentContext &ctx)
{
    for (Time t : {7800_ns, 70200_ns}) {
        api::Dataset table("tAggON = " + formatTime(t) +
                           " (words with 1-2 / 3-8 / >8 flips; SECDED "
                           "& Chipkill-x8 outcomes)");
        table.header({"die", "pattern", "1-2", "3-8", ">8", "max/word",
                      "SECDED silent", "Chipkill silent"});
        for (const auto &die : ctx.dies()) {
            const auto mc = ctx.moduleConfig(die, 80.0);
            const auto rows = chr::baseRowsOf(mc);
            const std::size_t locs =
                std::min<std::size_t>(4, rows.size());
            for (auto kind : {chr::AccessKind::SingleSided,
                              chr::AccessKind::DoubleSided}) {
                // Max-activation attempts over the tested locations,
                // one engine task per (victim, location) cell so the
                // full scans scale past the location count.
                const std::vector<int> tested(
                    rows.begin(), rows.begin() + std::ptrdiff_t(locs));
                auto attempts = chr::maxActivationAttempts(
                    mc, ctx.engine(), tested, kind,
                    chr::DataPattern::CheckerBoard, t);

                std::vector<chr::VictimFlip> flips;
                for (auto &attempt : attempts)
                    flips.insert(flips.end(), attempt.flips.begin(),
                                 attempt.flips.end());
                auto stats = chr::analyzeWordErrors(flips);
                auto secded = chr::evaluateSecded(flips);
                auto chipkill = chr::evaluateChipkill(flips, 8);
                table.row({die.id, chr::accessKindName(kind),
                           api::cell(stats.words1to2),
                           api::cell(stats.words3to8),
                           api::cell(stats.wordsOver8),
                           api::cell(stats.maxFlipsPerWord),
                           api::cell(secded.silent),
                           api::cell(chipkill.silent)});
            }
        }
        ctx.emit(table);
        ctx.note("\n");
    }
    ctx.note("Paper shape: a significant fraction of erroneous "
             "words carries >2 flips\n(up to 25 per 64-bit word), "
             "beyond SECDED and Chipkill guarantees ->\nsilent data "
             "corruption risk.\n\n");
}

REGISTER_EXPERIMENT(fig25, "Figs. 25/26: bitflips per 64-bit word vs ECC",
                    "Fig. 25 (tAggON = 7.8us), Fig. 26 (70.2us) @ "
                    "80C, max activation count",
                    "characterization", runFig25);

} // namespace
