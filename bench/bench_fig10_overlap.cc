/**
 * @file
 * Figs. 10 and 11: overlap of RowPress-vulnerable cells with
 * RowHammer-vulnerable cells and with retention failures, at ACmin
 * and at the maximum activation count.  Obsv. 7: for
 * tAggON >= tREFI, overlap with RowHammer < 0.013 % and with
 * retention < 0.34 %.
 */

#include "api/context.h"
#include "core/rowpress.h"

using namespace rp;
using namespace rp::literals;

namespace {

const std::vector<Time> kSweep = {66_ns,    636_ns, 7800_ns,
                                  70200_ns, 1_ms,   30_ms};

void
emitOverlap(api::ExperimentContext &ctx, const char *title,
            bool at_max)
{
    for (const auto &die : ctx.dies()) {
        const auto mc = ctx.moduleConfig(die, 50.0);
        auto results =
            at_max ? chr::overlapAtMaxAc(mc, ctx.engine(), kSweep,
                                         chr::AccessKind::SingleSided)
                   : chr::overlapAtAcmin(mc, ctx.engine(), kSweep,
                                         chr::AccessKind::SingleSided);
        api::Dataset table(std::string(title) + " - " + die.name);
        table.header({"tAggON", "RP cells", "overlap w/ RowHammer",
                      "overlap w/ retention"});
        for (const auto &r : results) {
            table.row({formatTime(r.tAggOn), api::cell(r.rpCells),
                       api::cell(r.withRowHammer),
                       api::cell(r.withRetention)});
        }
        ctx.emit(table);
        ctx.emitOverlapRaw(std::string("raw_overlap_") +
                               (at_max ? "acmax_" : "acmin_") + die.id,
                           die.id, results);
        ctx.note("\n");
    }
}

void
runFig10(api::ExperimentContext &ctx)
{
    emitOverlap(ctx, "Fig. 10 overlap @ ACmin", /*at_max=*/false);
    emitOverlap(ctx, "Fig. 11 overlap @ ACmax", /*at_max=*/true);
    ctx.note("Paper shape (Obsv. 7): overlap with RowHammer and "
             "retention failures is\nnear zero for tAggON >= tREFI "
             "- different failure mechanisms.\n\n");
}

REGISTER_EXPERIMENT(
    fig10, "Figs. 10/11: RowPress vs RowHammer/retention cell overlap",
    "Fig. 10 (@ACmin), Fig. 11 (@ACmax)", "characterization",
    runFig10);

} // namespace
