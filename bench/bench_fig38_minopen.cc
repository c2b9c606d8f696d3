/**
 * @file
 * Figs. 38 and 39 (Appendix D.1): the minimally-open-row policy.
 * Increase in per-row activation counts (potentially turning benign
 * workloads into RowHammer-like patterns) and the IPC cost relative
 * to the open-row baseline.
 */

#include <algorithm>

#include "api/context.h"
#include "core/rowpress.h"

using namespace rp;
using namespace rp::literals;

namespace {

void
runFig38(api::ExperimentContext &ctx)
{
    const std::uint64_t instrs = std::max<std::uint64_t>(
        50000, std::uint64_t(150000 * ctx.scale()));

    std::vector<std::string> names = {
        "429.mcf",   "433.milc",      "436.cactusADM",
        "462.libquantum", "470.lbm",  "482.sphinx3",
        "483.xalancbmk", "510.parest", "h264_encode",
        "wc_8443",   "ycsb_bserver",  "tpch17"};

    // Two configs per workload (open-row, minimally-open-row), all
    // run concurrently as one batch.
    std::vector<sim::SystemConfig> cfgs;
    for (const auto &name : names) {
        sim::SystemConfig open_cfg;
        open_cfg.core.instrLimit = instrs;
        open_cfg.workloads = {workloads::workloadByName(name)};
        cfgs.push_back(open_cfg);

        sim::SystemConfig min_cfg = open_cfg;
        min_cfg.mem.tMro = min_cfg.mem.timing.tRAS;
        cfgs.push_back(min_cfg);
    }
    auto results = sim::runSystems(cfgs, ctx.engine());

    api::Dataset table("Minimally-open-row (t_mro = tRAS) vs open-row");
    table.header({"workload", "IPC open", "IPC min-open",
                  "normalized IPC", "maxRowActs open",
                  "maxRowActs min-open", "ACT increase"});

    for (std::size_t i = 0; i < names.size(); ++i) {
        const auto &open_res = results[2 * i];
        const auto &min_res = results[2 * i + 1];
        const double incr =
            open_res.mem.maxRowActs
                ? double(min_res.mem.maxRowActs) /
                      double(open_res.mem.maxRowActs)
                : 0.0;
        table.row({names[i], api::cell(open_res.ipcOf(0)),
                   api::cell(min_res.ipcOf(0)),
                   api::cell(min_res.ipcOf(0) / open_res.ipcOf(0)),
                   api::cell(open_res.mem.maxRowActs),
                   api::cell(min_res.mem.maxRowActs),
                   api::cell(incr) + "x"});
    }
    ctx.emit(table);
    ctx.note("\nPaper shape: row-activation counts to single rows "
             "grow by up to ~370x\n(benign workloads become "
             "hammer-like) and high-row-locality workloads\n(e.g., "
             "462.libquantum) lose up to ~34% IPC.\n\n");
}

REGISTER_EXPERIMENT(fig38, "Figs. 38/39: minimally-open-row policy",
                    "Fig. 38 (max per-row ACT increase), Fig. 39 "
                    "(normalized IPC)",
                    "simulator", runFig38);

} // namespace
