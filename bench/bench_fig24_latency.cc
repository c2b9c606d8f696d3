/**
 * @file
 * Fig. 24: verification that accessing consecutive cache blocks of a
 * DRAM row keeps the row open - latency histogram of the first vs the
 * remaining cache-block accesses (the paper reports a ~30-cycle
 * median gap on the i5-10400 system).
 */

#include <algorithm>
#include <climits>
#include <cstdio>

#include "api/context.h"
#include "api/env.h"
#include "core/rowpress.h"

using namespace rp;

namespace {

void
runFig24(api::ExperimentContext &ctx)
{
    const double trials = std::max(2000.0, 50000 * ctx.scale());
    if (!(trials <= INT_MAX)) {
        char msg[128];
        std::snprintf(msg, sizeof(msg),
                      "--scale %g: fig24 would run %.0f probe trials, "
                      "more than an int holds",
                      ctx.scale(), trials);
        throw api::ConfigError(msg);
    }
    auto probe = sys::rowOpenLatencyProbe(int(trials));

    ctx.notef("Access to FIRST cache block (row must be "
              "activated):\n%s\n",
              probe.first.render(46).c_str());
    ctx.notef("Subsequent accesses to remaining cache blocks (row "
              "open):\n%s\n",
              probe.rest.render(46).c_str());

    api::Dataset table("Row-open latency medians (cycles)");
    table.header({"metric", "cycles"});
    table.row({"median first", api::cell(probe.medianFirstCycles)});
    table.row({"median rest", api::cell(probe.medianRestCycles)});
    table.row({"median gap", api::cell(probe.medianFirstCycles -
                                       probe.medianRestCycles)});
    ctx.emit(table);
    ctx.notef("median gap    = %.1f cycles (paper: ~30 cycles)\n\n",
              probe.medianFirstCycles - probe.medianRestCycles);
}

REGISTER_EXPERIMENT(fig24, "Fig. 24: row-open-time verification probe",
                    "Fig. 24 (latency histogram, 100K trials)",
                    "system", runFig24);

} // namespace
