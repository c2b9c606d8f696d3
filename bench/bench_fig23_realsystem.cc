/**
 * @file
 * Fig. 23 and Fig. 49: real-system demonstration.  Bitflip counts and
 * rows-with-bitflips of the user-level program as NUM_READS (cache
 * blocks read per aggressor activation) and NUM_AGGR_ACTS vary, with
 * Algorithm 1 and the more aggressive Algorithm 2 (Appendix G), on a
 * TRR-protected DDR4 system model.
 */

#include <algorithm>

#include "api/context.h"
#include "core/rowpress.h"

using namespace rp;

namespace {

void
emitGrid(api::ExperimentContext &ctx, bool interleaved)
{
    const std::vector<int> reads = {1, 4, 16, 32, 48, 64};
    const std::vector<int> acts = {2, 3, 4};
    const double scale = ctx.scale();

    // Every (NUM_AGGR_ACTS, NUM_READS) cell is one independent demo
    // run; fan the grid out through the engine.
    auto results = ctx.engine().map<sys::DemoResult>(
        acts.size() * reads.size(), [&](const core::TaskContext &tc) {
            sys::DemoConfig cfg;
            cfg.numAggrActs = acts[tc.index / reads.size()];
            cfg.numReads = reads[tc.index % reads.size()];
            cfg.interleavedFlush = interleaved;
            cfg.numVictims = std::max(4, int(10 * scale));
            cfg.numIters = std::max(4000, int(16000 * scale));
            cfg.seed = 3;
            return sys::runDemo(cfg);
        });

    api::Dataset table(interleaved
                           ? std::string("Algorithm 2 (interleaved "
                                         "flush, Fig. 49)")
                           : std::string("Algorithm 1 (Fig. 23)"));
    table.header({"NUM_AGGR_ACTS", "NUM_READS", "bitflips",
                  "rows w/ bitflips", "avg tAggON (ns)"});

    for (std::size_t ai = 0; ai < acts.size(); ++ai) {
        for (std::size_t ri = 0; ri < reads.size(); ++ri) {
            const auto &res = results[ai * reads.size() + ri];
            table.row({api::cell(acts[ai]), api::cell(reads[ri]),
                       api::cell(res.totalBitflips),
                       api::cell(res.rowsWithBitflips),
                       api::cell(res.avgTAggOnNs)});
        }
    }
    ctx.emit(table);
    ctx.note("\n");
}

void
runFig23(api::ExperimentContext &ctx)
{
    emitGrid(ctx, /*interleaved=*/false);
    emitGrid(ctx, /*interleaved=*/true);

    ctx.note("Paper shape (Obsv. 19-21, 23): NUM_READS = 1 "
             "(RowHammer) cannot flip; flips\nrise with NUM_READS, "
             "peak around 16-32, then collapse once the aggressor\n"
             "phase outgrows the tREFI slot and TRR catches the "
             "aggressors; Algorithm 2\ninduces more bitflips than "
             "Algorithm 1.\n\n");
}

REGISTER_EXPERIMENT(fig23, "Figs. 23/49: real-system RowPress demonstration",
                    "Fig. 23 (Algorithm 1), Fig. 49 (Algorithm 2); "
                    "paper: 1500 victims, 800K iters - scaled here",
                    "system", runFig23);

} // namespace
