/**
 * @file
 * Figs. 19 and 20: data-pattern sensitivity.  Mean ACmin of each data
 * pattern normalized to the checkerboard pattern across representative
 * tAggON values, at 50 C and 80 C, single- and double-sided.
 * Obsv. 14/15: checkerboard is the most robustly effective RowPress
 * pattern; RowStripe (the best RowHammer pattern) stops producing any
 * bitflip at long tAggON.
 */

#include "api/context.h"
#include "core/rowpress.h"

using namespace rp;

namespace {

void
emitPatternTable(api::ExperimentContext &ctx,
                 const device::DieConfig &die, chr::AccessKind kind,
                 double temp)
{
    const auto mc = ctx.moduleConfig(die, temp);
    const auto &sweep = chr::dataPatternTAggOnSweep();

    api::Dataset table(die.name + " " + chr::accessKindName(kind) +
                       " @ " + api::cell(temp) +
                       "C (ACmin normalized to CB)");
    std::vector<std::string> head = {"pattern"};
    for (Time t : sweep)
        head.push_back(formatTime(t));
    table.header(head);

    // Baseline: checkerboard means per tAggON.
    auto cb_points = chr::acminSweep(mc, ctx.engine(), sweep, kind,
                                     chr::DataPattern::CheckerBoard);
    std::vector<double> cb_means;
    for (const auto &p : cb_points)
        cb_means.push_back(p.meanAcmin());

    for (auto pattern : chr::allDataPatterns()) {
        auto points =
            chr::acminSweep(mc, ctx.engine(), sweep, kind, pattern);
        std::vector<std::string> row = {chr::dataPatternName(pattern)};
        for (std::size_t i = 0; i < sweep.size(); ++i) {
            const double mean = points[i].meanAcmin();
            if (mean <= 0)
                row.push_back("NoFlip");
            else if (cb_means[i] <= 0)
                row.push_back("CB-NoFlip");
            else
                row.push_back(api::cell(mean / cb_means[i]));
        }
        table.row(std::move(row));
    }
    ctx.emit(table);
    ctx.note("\n");
}

void
runFig19(api::ExperimentContext &ctx)
{
    // Default: the paper's three representative dies at 50C plus the
    // S 8Gb B-die's 80C and double-sided variants; --dies all adds
    // the 80C column for all dies.
    const auto dies = ctx.dies();
    const bool all = ctx.allDiesSelected();
    for (const auto &die : dies) {
        emitPatternTable(ctx, die, chr::AccessKind::SingleSided, 50.0);
        if (all || die.id == "S-8Gb-B")
            emitPatternTable(ctx, die, chr::AccessKind::SingleSided,
                             80.0);
    }
    // Fig. 20: double-sided for the S 8Gb B-die.
    emitPatternTable(ctx, device::dieS8GbB(),
                     chr::AccessKind::DoubleSided, 50.0);

    ctx.note("Paper shape: RS/RSI (victim rows all-0/all-1) stop "
             "flipping at long tAggON\n(RowPress can only drain "
             "charged victim cells); CB always flips; values\nnear "
             "1.00 elsewhere with modest pattern effects.\n\n");
}

REGISTER_EXPERIMENT(fig19, "Figs. 19/20: data-pattern sensitivity",
                    "Fig. 19 (single-sided), Fig. 20 (double-sided, "
                    "S 8Gb B)",
                    "characterization", runFig19);

} // namespace
