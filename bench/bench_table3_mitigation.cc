/**
 * @file
 * Table 3 (and Tables 8/9): Graphene-RP and PARA-RP configurations
 * and performance overheads vs their RowHammer-only baselines, as the
 * enforced maximum row-open time t_mro sweeps from tRAS to 636 ns
 * with a base T_RH of 1000.
 */

#include <algorithm>
#include <cmath>
#include <memory>

#include "api/context.h"
#include "core/rowpress.h"
#include "mitigation/defaults.h"

using namespace rp;
using namespace rp::literals;

namespace {

const std::vector<Time> kTmros = {36_ns, 66_ns, 96_ns,
                                  186_ns, 336_ns, 636_ns};

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / double(v.size()));
}

void
runTable3(api::ExperimentContext &ctx)
{
    const auto profile = mitigation::paperTable3Profile();
    const std::uint32_t base_trh =
        std::uint32_t(ctx.config().getInt("trh"));

    // Configuration rows (exact reproduction of Table 3's derivation).
    api::Dataset cfg_table("Adapted configurations");
    cfg_table.header({"t_mro", "T'_RH", "Graphene-RP T", "PARA-RP p"});
    for (Time t : kTmros) {
        const auto a = mitigation::adaptThreshold(profile, base_trh, t);
        const auto g = mitigation::standardGrapheneFor(a.adaptedTrh);
        const auto p = mitigation::paraFor(a.adaptedTrh);
        cfg_table.row({formatTime(t), api::cell(a.adaptedTrh),
                       api::cell(g.threshold),
                       api::cell(p.p)});
    }
    ctx.emit(cfg_table);
    ctx.note("(paper T'_RH: 1000 809 724 619 555 419; Graphene T: "
             "333 269 241 206 185 139;\n PARA p: .034 .042 .047 "
             ".054 .061 .079)\n\n");

    // Performance overheads on a workload subset.
    const std::uint64_t instrs = std::max<std::uint64_t>(
        50000, std::uint64_t(150000 * ctx.scale()));
    std::vector<workloads::WorkloadParams> set;
    for (const char *name :
         {"429.mcf", "462.libquantum", "510.parest", "h264_encode",
          "470.lbm", "483.xalancbmk", "tpch17", "ycsb_bserver"})
        set.push_back(workloads::workloadByName(name));

    // One job per (mechanism, t_mro step incl. baseline, workload);
    // every run gets a freshly built mitigation instance so no state
    // leaks between workloads or across concurrent tasks.
    auto jobs_for = [&](bool use_para) {
        std::vector<sim::SystemJob> jobs;
        auto add = [&](Time t_mro, std::uint32_t trh) {
            for (const auto &w : set) {
                sim::SystemJob job;
                job.cfg.mem.tMro = t_mro;
                job.cfg.core.instrLimit = instrs;
                job.cfg.workloads = {w};
                job.mitigationFactory =
                    mitigation::standardMitigationFactory(use_para,
                                                          trh);
                jobs.push_back(job);
            }
        };
        add(0, base_trh); // baseline: open row, unadapted T_RH
        for (Time t : kTmros)
            add(t, mitigation::adaptThreshold(profile, base_trh, t)
                       .adaptedTrh);
        return jobs;
    };

    auto g_results = sim::runSystems(jobs_for(false), ctx.engine());
    auto p_results = sim::runSystems(jobs_for(true), ctx.engine());

    auto ipcs_at = [&](const std::vector<sim::SystemResult> &results,
                       std::size_t step) {
        std::vector<double> ipcs;
        for (std::size_t i = 0; i < set.size(); ++i)
            ipcs.push_back(results[step * set.size() + i].ipcOf(0));
        return ipcs;
    };

    auto g_base_ipcs = ipcs_at(g_results, 0);
    auto p_base_ipcs = ipcs_at(p_results, 0);

    api::Dataset perf("Average / max additional slowdown vs the "
                      "RowHammer-only baseline (single-core)");
    perf.header({"t_mro", "Graphene-RP avg", "Graphene-RP max",
                 "PARA-RP avg", "PARA-RP max"});
    for (std::size_t ti = 0; ti < kTmros.size(); ++ti) {
        auto g_ipcs = ipcs_at(g_results, ti + 1);
        auto p_ipcs = ipcs_at(p_results, ti + 1);

        std::vector<double> g_ratio, p_ratio;
        double g_max = 0.0, p_max = 0.0;
        for (std::size_t i = 0; i < set.size(); ++i) {
            g_ratio.push_back(g_ipcs[i] / g_base_ipcs[i]);
            p_ratio.push_back(p_ipcs[i] / p_base_ipcs[i]);
            g_max = std::max(g_max, 1.0 - g_ratio.back());
            p_max = std::max(p_max, 1.0 - p_ratio.back());
        }
        perf.row({formatTime(kTmros[ti]),
                  api::cell((1.0 - geomean(g_ratio)) * 100.0) + "%",
                  api::cell(g_max * 100.0) + "%",
                  api::cell((1.0 - geomean(p_ratio)) * 100.0) + "%",
                  api::cell(p_max * 100.0) + "%"});
    }
    ctx.emit(perf);
    ctx.note("\nPaper shape: Graphene-RP overhead stays within a "
             "few percent (sometimes a\nspeedup); PARA-RP overhead "
             "grows as t_mro (and thus p) increases.\n\n");
}

REGISTER_EXPERIMENT_OPTS(
    table3, "Table 3: Graphene-RP / PARA-RP configuration and overhead",
    "Table 3 / Tables 8, 9 (T_RH = 1000, S 8Gb B-die profile)",
    "simulator",
    [](api::ConfigSchema &schema) {
        schema.add({"trh", api::OptionType::Int, "1000",
                    "base RowHammer threshold T_RH", 1.0, true});
    },
    runTable3);

} // namespace
