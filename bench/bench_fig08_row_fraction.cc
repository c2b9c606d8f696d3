/**
 * @file
 * Fig. 8: fraction of tested rows with at least one RowPress bitflip
 * as tAggON increases (single-sided, 50 C).  Obsv. 4: the more
 * advanced the technology node, the more rows are vulnerable.
 */

#include "api/context.h"
#include "core/rowpress.h"

using namespace rp;
using namespace rp::literals;

namespace {

void
runFig08(api::ExperimentContext &ctx)
{
    // Compare die revisions within Mfr. S to show the node-scaling
    // trend (B -> C -> D), plus one die per other manufacturer.
    const auto dies = ctx.dies({device::dieById("S-8Gb-B"),
                                device::dieById("S-8Gb-C"),
                                device::dieById("S-8Gb-D"),
                                device::dieH16GbA(),
                                device::dieM16GbF()});

    api::Dataset table("Fraction of rows with >=1 bitflip");
    std::vector<std::string> head = {"tAggON"};
    for (const auto &d : dies)
        head.push_back(d.id);
    table.header(head);

    // One engine sweep per die column.
    const auto &sweep = chr::standardTAggOnSweep();
    std::vector<std::vector<chr::SweepPoint>> columns;
    columns.reserve(dies.size());
    for (const auto &d : dies)
        columns.push_back(chr::acminSweep(ctx.moduleConfig(d, 50.0),
                                          ctx.engine(), sweep,
                                          chr::AccessKind::SingleSided));

    for (std::size_t ti = 0; ti < sweep.size(); ++ti) {
        std::vector<std::string> row = {formatTime(sweep[ti])};
        for (std::size_t i = 0; i < dies.size(); ++i)
            row.push_back(
                api::cell(columns[i][ti].fractionFlipped()));
        table.row(std::move(row));
    }
    ctx.emit(table);
    ctx.note("\nPaper shape (Obsv. 4): later die revisions (more "
             "advanced nodes) have\nhigher vulnerable-row fractions; "
             "S 8Gb D > C > B.\n\n");
}

REGISTER_EXPERIMENT(fig08, "Fig. 8: fraction of rows with bitflips",
                    "Fig. 8 (single-sided @ 50C)", "characterization",
                    runFig08);

} // namespace
