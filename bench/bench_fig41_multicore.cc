/**
 * @file
 * Fig. 41 (Appendix D.2): weighted speedups of Graphene-RP and
 * PARA-RP on four-core homogeneous and heterogeneous (HHHH..LLLL)
 * workload mixes, normalized to Graphene and PARA.
 */

#include <algorithm>
#include <memory>

#include "api/context.h"
#include "core/rowpress.h"
#include "mitigation/defaults.h"

using namespace rp;
using namespace rp::literals;

namespace {

sim::SystemJob
mixJob(const std::vector<workloads::WorkloadParams> &mix, Time t_mro,
       bool use_para, std::uint32_t trh, std::uint64_t instrs)
{
    sim::SystemJob job;
    job.cfg.core.instrLimit = instrs;
    job.cfg.workloads = mix;
    job.cfg.mem.tMro = t_mro;
    job.mitigationFactory =
        mitigation::standardMitigationFactory(use_para, trh);
    return job;
}

void
runFig41(api::ExperimentContext &ctx)
{
    const std::uint64_t instrs = std::max<std::uint64_t>(
        25000, std::uint64_t(60000 * ctx.scale()));
    const auto profile = mitigation::paperTable3Profile();
    const std::vector<Time> tmros = {36_ns, 96_ns, 636_ns};

    // Homogeneous mixes (4 copies) + heterogeneous compositions.
    std::vector<std::pair<std::string,
                          std::vector<workloads::WorkloadParams>>>
        mixes;
    for (const char *name : {"429.mcf", "462.libquantum",
                             "h264_encode"}) {
        const auto w = workloads::workloadByName(name);
        mixes.emplace_back(std::string("4x ") + name,
                           std::vector<workloads::WorkloadParams>(4, w));
    }
    int mix_seed = 11;
    for (const char *comp : {"HHHH", "HHHL", "HHLL", "HLLL", "LLLL"})
        mixes.emplace_back(comp,
                           workloads::makeMix(comp,
                                              std::uint64_t(mix_seed++)));

    // Alone-IPC baselines: one engine task per (mix, core slot).
    std::vector<workloads::WorkloadParams> all_alone;
    for (const auto &[label, mix] : mixes) {
        (void)label;
        all_alone.insert(all_alone.end(), mix.begin(), mix.end());
    }
    auto alone_flat = sim::aloneIpcs(all_alone, sim::ControllerConfig{},
                                     sim::CoreConfig{128, 4, instrs},
                                     ctx.engine());

    for (bool use_para : {false, true}) {
        // One job per mix x (baseline + t_mro configs).
        std::vector<sim::SystemJob> jobs;
        for (const auto &[label, mix] : mixes) {
            (void)label;
            jobs.push_back(mixJob(mix, 0, use_para, 1000, instrs));
            for (Time t : tmros) {
                const auto a =
                    mitigation::adaptThreshold(profile, 1000, t);
                jobs.push_back(
                    mixJob(mix, t, use_para, a.adaptedTrh, instrs));
            }
        }
        auto results = sim::runSystems(jobs, ctx.engine());

        api::Dataset table(use_para
                               ? std::string("PARA-RP WS normalized "
                                             "to PARA")
                               : std::string("Graphene-RP WS "
                                             "normalized to Graphene"));
        std::vector<std::string> head = {"mix"};
        for (Time t : tmros)
            head.push_back("t_mro=" + formatTime(t));
        table.header(head);

        const std::size_t stride = 1 + tmros.size();
        std::size_t alone_off = 0;
        for (std::size_t mi = 0; mi < mixes.size(); ++mi) {
            const auto &mix = mixes[mi].second;
            const std::vector<double> alone(
                alone_flat.begin() + long(alone_off),
                alone_flat.begin() + long(alone_off + mix.size()));
            alone_off += mix.size();

            const double base_ws =
                results[mi * stride].weightedSpeedup(alone);
            std::vector<std::string> row = {mixes[mi].first};
            for (std::size_t ti = 0; ti < tmros.size(); ++ti) {
                const double ws =
                    results[mi * stride + 1 + ti].weightedSpeedup(alone);
                row.push_back(api::cell(ws / base_ws));
            }
            table.row(std::move(row));
        }
        ctx.emit(table);
        ctx.note("\n");
    }
    ctx.note("Paper shape: Graphene-RP stays within ~1-2% of "
             "Graphene (sometimes faster\ndue to fairness); "
             "PARA-RP's overhead grows with t_mro.\n\n");
}

REGISTER_EXPERIMENT(fig41, "Fig. 41: four-core weighted speedups",
                    "Fig. 41 (homogeneous + HHHH..LLLL mixes)",
                    "simulator", runFig41);

} // namespace
