/**
 * @file
 * Fig. 22 (and appendix Figs. 27-37): BER of the RowPress-ONOFF
 * pattern, sweeping the ACT-to-ACT slack (delta tA2A) and the fraction
 * of the slack that contributes to tAggON, single- and double-sided,
 * at 50 C and 80 C.  Obsv. 16-18.
 */

#include "api/context.h"
#include "core/rowpress.h"

using namespace rp;
using namespace rp::literals;

namespace {

void
emitOnOff(api::ExperimentContext &ctx, const device::DieConfig &die)
{
    const std::vector<Time> deltas = {240_ns, 600_ns, 1200_ns, 2400_ns,
                                      6000_ns};
    const std::vector<double> fracs = {0.0, 0.25, 0.5, 0.75, 1.0};

    for (auto kind : {chr::AccessKind::SingleSided,
                      chr::AccessKind::DoubleSided}) {
        for (double temp : {50.0, 80.0}) {
            const auto mc = ctx.moduleConfig(die, temp);

            // Flattened (delta x on-fraction) BER grid; each cell runs
            // on its own module.
            auto bers = ctx.engine().map<double>(
                deltas.size() * fracs.size(),
                [&](const core::TaskContext &tc) {
                    const Time d = deltas[tc.index / fracs.size()];
                    const double f = fracs[tc.index % fracs.size()];
                    chr::Module local(mc);
                    return chr::onOffBer(local, 0, kind, d, f, 2);
                });

            api::Dataset table(die.name + " " +
                               chr::accessKindName(kind) + " @ " +
                               api::cell(temp) +
                               "C (max BER over victims)");
            std::vector<std::string> head = {"dtA2A \\ on-frac"};
            for (double f : fracs)
                head.push_back(api::cell(f * 100.0) + "%");
            table.header(head);
            for (std::size_t di = 0; di < deltas.size(); ++di) {
                std::vector<std::string> row = {formatTime(deltas[di])};
                for (std::size_t fi = 0; fi < fracs.size(); ++fi)
                    row.push_back(api::cell(
                        bers[di * fracs.size() + fi]));
                table.row(std::move(row));
            }
            ctx.emit(table);
            ctx.note("\n");
        }
    }
}

void
runFig22(api::ExperimentContext &ctx)
{
    for (const auto &die : ctx.dies({device::dieS8GbD()}))
        emitOnOff(ctx, die);

    ctx.note("Paper shape (Obsv. 16-18): single-sided BER falls "
             "with on-fraction at small\ndtA2A but rises at large "
             "dtA2A; temperature amplifies the large-dtA2A, "
             "high-on\ncorner; double-sided BER rises with "
             "on-fraction for every dtA2A.\n\n");
}

REGISTER_EXPERIMENT(fig22, "Fig. 22: RowPress-ONOFF pattern BER",
                    "Fig. 22 (S 8Gb D-die; Figs. 27-37 for the rest "
                    "with --dies all)",
                    "characterization", runFig22);

} // namespace
