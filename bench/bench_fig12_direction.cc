/**
 * @file
 * Fig. 12: fraction of 1 -> 0 bitflips as tAggON increases.
 * Obsv. 8: RowHammer and RowPress flip in opposite directions; the
 * Mfr. M 16Gb E-die inverts the trend (anti-cell layout).
 */

#include "api/context.h"
#include "core/rowpress.h"

using namespace rp;
using namespace rp::literals;

namespace {

void
runFig12(api::ExperimentContext &ctx)
{
    const auto dies = ctx.dies({device::dieById("S-8Gb-D"),
                                device::dieById("H-16Gb-A"),
                                device::dieById("M-16Gb-F"),
                                device::dieById("M-16Gb-E")});

    api::Dataset table("Fraction of 1->0 bitflips (single-sided @ 50C)");
    std::vector<std::string> head = {"tAggON"};
    for (const auto &d : dies)
        head.push_back(d.id);
    table.header(head);

    const std::vector<Time> sweep = {36_ns,    186_ns, 1536_ns,
                                     7800_ns, 70200_ns, 3_ms, 30_ms};
    std::vector<std::vector<chr::SweepPoint>> columns;
    columns.reserve(dies.size());
    for (const auto &d : dies)
        columns.push_back(chr::acminSweep(ctx.moduleConfig(d, 50.0),
                                          ctx.engine(), sweep,
                                          chr::AccessKind::SingleSided));

    for (std::size_t ti = 0; ti < sweep.size(); ++ti) {
        std::vector<std::string> row = {formatTime(sweep[ti])};
        for (const auto &column : columns) {
            const auto &point = column[ti];
            row.push_back(point.acminSummary().count
                              ? api::cell(point.fractionOneToZero())
                              : "No Bitflip");
        }
        table.row(std::move(row));
    }
    ctx.emit(table);
    ctx.note("\nPaper shape: RowHammer (36 ns) flips are dominantly "
             "0->1, RowPress flips\nreach ~100% 1->0 for S/H dies, "
             "~75% for M B/F dies; the M 16Gb E-die trend\nis "
             "inverted (true-/anti-cell layout).\n\n");
}

REGISTER_EXPERIMENT(fig12, "Fig. 12: bitflip direction",
                    "Fig. 12 (fraction of 1->0 flips, checkerboard)",
                    "characterization", runFig12);

} // namespace
