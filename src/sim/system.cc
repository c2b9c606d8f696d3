#include "sim/system.h"

#include "common/logging.h"

namespace rp::sim {

double
SystemResult::weightedSpeedup(const std::vector<double> &alone_ipcs) const
{
    double ws = 0.0;
    for (std::size_t i = 0; i < cores.size() && i < alone_ipcs.size();
         ++i) {
        if (alone_ipcs[i] > 0.0)
            ws += cores[i].ipc / alone_ipcs[i];
    }
    return ws;
}

SystemResult
runSystem(const SystemConfig &cfg)
{
    if (cfg.workloads.empty())
        fatal("runSystem: no workloads configured");

    Controller mem(cfg.mem);
    dram::AddressMapper mapper(cfg.mem.org);

    std::vector<Core> cores;
    cores.reserve(cfg.workloads.size());
    for (std::size_t i = 0; i < cfg.workloads.size(); ++i) {
        workloads::TraceGen gen(cfg.workloads[i], mapper,
                                hashU64(cfg.seed, i));
        cores.emplace_back(std::move(gen), mem, cfg.core);
    }

    const Time mem_cycle = cfg.mem.timing.tCK;
    Time next_mem_tick = 0;

    std::uint64_t cycle = 0;
    for (; cycle < cfg.maxCycles; ++cycle) {
        const Time now = Time(cycle) * cfg.cpuCycle;

        bool all_done = true;
        for (auto &core : cores) {
            core.tick(now);
            all_done = all_done && core.done();
        }
        if (all_done)
            break;

        while (next_mem_tick <= now) {
            mem.tick(next_mem_tick);
            next_mem_tick += mem_cycle;
        }
    }
    if (cycle >= cfg.maxCycles)
        warn("runSystem: hit the %llu-cycle safety cap",
             (unsigned long long)cfg.maxCycles);

    SystemResult result;
    for (auto &core : cores) {
        SystemResult::PerCore pc;
        pc.workload = core.workload().name;
        pc.instrs = core.retired();
        pc.cycles = core.cycles();
        pc.ipc = core.ipc();
        result.cores.push_back(pc);
    }
    result.mem = mem.stats();
    return result;
}

std::vector<SystemResult>
runSystems(const std::vector<SystemJob> &jobs,
           core::ExperimentEngine &engine)
{
    return engine.map<SystemResult>(
        jobs.size(), [&](const core::TaskContext &ctx) {
            const SystemJob &job = jobs[ctx.index];
            SystemConfig cfg = job.cfg;
            std::unique_ptr<mitigation::Mitigation> mit;
            if (job.mitigationFactory) {
                mit = job.mitigationFactory();
                cfg.mem.mitigation = mit.get();
            }
            return runSystem(cfg);
        });
}

std::vector<SystemResult>
runSystems(const std::vector<SystemConfig> &cfgs,
           core::ExperimentEngine &engine)
{
    std::vector<SystemJob> jobs;
    jobs.reserve(cfgs.size());
    for (const auto &cfg : cfgs)
        jobs.push_back({cfg, nullptr});
    return runSystems(jobs, engine);
}

double
aloneIpc(const workloads::WorkloadParams &workload,
         const ControllerConfig &mem, const CoreConfig &core,
         std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.mem = mem;
    cfg.mem.mitigation = nullptr;
    cfg.core = core;
    cfg.workloads = {workload};
    cfg.seed = seed;
    return runSystem(cfg).ipcOf(0);
}

std::vector<double>
aloneIpcs(const std::vector<workloads::WorkloadParams> &ws,
          const ControllerConfig &mem, const CoreConfig &core,
          core::ExperimentEngine &engine, std::uint64_t seed)
{
    return engine.map<double>(
        ws.size(), [&](const core::TaskContext &ctx) {
            return aloneIpc(ws[ctx.index], mem, core, seed);
        });
}

} // namespace rp::sim
