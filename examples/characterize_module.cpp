/**
 * @file
 * Characterize a DRAM module like the paper's testing campaign
 * (sections 4-5): ACmin-vs-tAggON sweep, bitflip directionality,
 * overlap with RowHammer/retention, and tAggONmin at a single
 * activation - for any of the 12 die revisions.
 *
 * Usage: characterize_module [die-id] [temperatureC] [locations]
 *   e.g. characterize_module H-16Gb-A 80 16
 */

#include <cstdio>
#include <cstdlib>

#include "common/table.h"
#include "core/rowpress.h"

using namespace rp;
using namespace rp::literals;

int
main(int argc, char **argv)
{
    const std::string die_id = argc > 1 ? argv[1] : "S-8Gb-B";
    const double temp = argc > 2 ? std::atof(argv[2]) : 50.0;
    const int locations = argc > 3 ? std::atoi(argv[3]) : 10;

    chr::ModuleConfig cfg;
    cfg.die = device::dieById(die_id);
    cfg.numLocations = locations;
    cfg.temperatureC = temp;
    chr::Module module(cfg);

    std::printf("Characterizing %s @ %.0fC (%d locations, bank %d)\n\n",
                cfg.die.name.c_str(), temp, locations, cfg.bank);

    Table sweep("ACmin vs tAggON (single-sided, checkerboard)");
    sweep.header({"tAggON", "mean", "min", "max", "rows w/ flips",
                  "1->0 frac"});
    for (Time t : chr::standardTAggOnSweep()) {
        auto point = chr::acminPoint(module, t,
                                     chr::AccessKind::SingleSided);
        auto s = point.acminSummary();
        if (s.count == 0) {
            sweep.row({formatTime(t), "no bitflip", "-", "-",
                       Table::toCell(point.fractionFlipped()), "-"});
            continue;
        }
        sweep.row({formatTime(t), Table::toCell(s.mean),
                   Table::toCell(s.min), Table::toCell(s.max),
                   Table::toCell(point.fractionFlipped()),
                   Table::toCell(point.fractionOneToZero())});
    }
    sweep.print();

    // Single-activation RowPress (Obsv. 2).
    auto ton = chr::tAggOnMinPoint(module, 1,
                                   chr::AccessKind::SingleSided);
    auto ts = ton.summary();
    if (ts.count) {
        std::printf("\ntAggONmin @ AC=1: mean %.1f ms, min %.1f ms "
                    "(%zu/%zu locations flip with one activation)\n",
                    ts.mean / 1000.0, ts.min / 1000.0, ts.count,
                    ton.locations.size());
    } else {
        std::printf("\nNo single-activation bitflips within the 60 ms "
                    "budget at this temperature.\n");
    }

    // Mechanism separation (section 4.3), on the engine's workers.
    core::ExperimentEngine engine;
    auto overlap = chr::overlapAtAcmin(cfg, engine, {7800_ns, 70200_ns},
                                       chr::AccessKind::SingleSided);
    std::printf("\nMechanism overlap (fraction of RowPress cells also "
                "flipped by...):\n");
    for (const auto &r : overlap) {
        std::printf("  tAggON %-8s RowHammer %.4f, retention %.4f "
                    "(%zu cells)\n",
                    formatTime(r.tAggOn).c_str(), r.withRowHammer,
                    r.withRetention, r.rpCells);
    }
    return 0;
}
