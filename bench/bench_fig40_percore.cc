/**
 * @file
 * Fig. 40 (Appendix D.2): per-workload single-core IPC of
 * Graphene-RP and PARA-RP normalized to Graphene and PARA, across
 * t_mro configurations.
 */

#include <algorithm>

#include "api/context.h"
#include "core/rowpress.h"
#include "mitigation/defaults.h"

using namespace rp;
using namespace rp::literals;

namespace {

void
runFig40(api::ExperimentContext &ctx)
{
    const std::vector<Time> tmros = {36_ns, 96_ns, 336_ns, 636_ns};
    const std::uint64_t instrs = std::max<std::uint64_t>(
        40000, std::uint64_t(100000 * ctx.scale()));
    const auto profile = mitigation::paperTable3Profile();

    std::vector<std::string> names = {
        "429.mcf", "433.milc", "462.libquantum", "470.lbm",
        "510.parest", "483.xalancbmk", "h264_decode", "tpch17"};

    for (bool use_para : {false, true}) {
        // One job per workload x (baseline + t_mro configs), each with
        // its own freshly built mitigation instance.
        std::vector<sim::SystemJob> jobs;
        for (const auto &name : names) {
            const auto w = workloads::workloadByName(name);

            sim::SystemJob base;
            base.cfg.core.instrLimit = instrs;
            base.cfg.workloads = {w};
            base.mitigationFactory =
                mitigation::standardMitigationFactory(use_para, 1000);
            jobs.push_back(base);

            for (Time t : tmros) {
                const auto a =
                    mitigation::adaptThreshold(profile, 1000, t);
                sim::SystemJob job;
                job.cfg.core.instrLimit = instrs;
                job.cfg.workloads = {w};
                job.cfg.mem.tMro = t;
                job.mitigationFactory =
                    mitigation::standardMitigationFactory(
                        use_para, a.adaptedTrh);
                jobs.push_back(job);
            }
        }
        auto results = sim::runSystems(jobs, ctx.engine());

        api::Dataset table(use_para
                               ? "PARA-RP IPC normalized to PARA"
                               : "Graphene-RP IPC normalized to "
                                 "Graphene");
        std::vector<std::string> head = {"workload"};
        for (Time t : tmros)
            head.push_back("t_mro=" + formatTime(t));
        table.header(head);

        const std::size_t stride = 1 + tmros.size();
        for (std::size_t wi = 0; wi < names.size(); ++wi) {
            const double base_ipc = results[wi * stride].ipcOf(0);
            std::vector<std::string> row = {names[wi]};
            for (std::size_t ti = 0; ti < tmros.size(); ++ti) {
                const double ipc =
                    results[wi * stride + 1 + ti].ipcOf(0);
                row.push_back(api::cell(ipc / base_ipc));
            }
            table.row(std::move(row));
        }
        ctx.emit(table);
        ctx.note("\n");
    }
    ctx.note("Paper shape: low-row-locality workloads (429.mcf) "
             "speed up under small t_mro;\nhigh-locality ones "
             "(462.libquantum, 510.parest) slow down; PARA-RP "
             "overheads\nexceed Graphene-RP's.\n\n");
}

REGISTER_EXPERIMENT(fig40, "Fig. 40: per-workload normalized IPC",
                    "Fig. 40 (single-core, LLC-MPKI > 5 subset)",
                    "simulator", runFig40);

} // namespace
