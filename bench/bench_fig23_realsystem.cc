/**
 * @file
 * Fig. 23 and Fig. 49: real-system demonstration.  Bitflip counts and
 * rows-with-bitflips of the user-level program as NUM_READS (cache
 * blocks read per aggressor activation) and NUM_AGGR_ACTS vary, with
 * Algorithm 1 and the more aggressive Algorithm 2 (Appendix G), on a
 * TRR-protected DDR4 system model.
 */

#include <algorithm>
#include <cstdio>

#include "api/context.h"
#include "api/env.h"
#include "core/rowpress.h"

using namespace rp;

namespace {

/**
 * The demo configuration every cell shares at @p scale, checked before
 * any cell runs: more victims than the demo bank holds is a bad
 * --scale.  That bound also keeps the iteration count far inside int.
 */
sys::DemoConfig
baseConfig(double scale)
{
    sys::DemoConfig cfg;
    cfg.seed = 3;
    const double victims = std::max(4.0, 10 * scale);
    const int max_victims = sys::maxDemoVictims(cfg);
    if (!(victims < max_victims + 1.0)) {
        char msg[160];
        std::snprintf(msg, sizeof(msg),
                      "--scale %g: fig23 would test %.0f victim rows; the "
                      "demo bank fits at most %d (--scale below %g)",
                      scale, victims, max_victims, (max_victims + 1) / 10.0);
        throw api::ConfigError(msg);
    }
    cfg.numVictims = int(victims);
    cfg.numIters = int(std::max(4000.0, 16000 * scale));
    return cfg;
}

void
emitGrid(api::ExperimentContext &ctx, const sys::DemoConfig &base,
         bool interleaved)
{
    const std::vector<int> reads = {1, 4, 16, 32, 48, 64};
    const std::vector<int> acts = {2, 3, 4};

    // Every (NUM_AGGR_ACTS, NUM_READS) cell is one independent demo
    // run; fan the grid out through the engine.
    auto results = ctx.engine().map<sys::DemoResult>(
        acts.size() * reads.size(), [&](const core::TaskContext &tc) {
            sys::DemoConfig cfg = base;
            cfg.numAggrActs = acts[tc.index / reads.size()];
            cfg.numReads = reads[tc.index % reads.size()];
            cfg.interleavedFlush = interleaved;
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
    const sys::DemoConfig base = baseConfig(ctx.scale());
    emitGrid(ctx, base, /*interleaved=*/false);
    emitGrid(ctx, base, /*interleaved=*/true);

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
