/**
 * @file
 * rp_trace: the traced run of the repository benchmark.
 *
 * It links librowpress and the registered experiments, runs one
 * workload's jobs through an in-process api::Service, and records a
 * span around every call it makes into a layer's public functions:
 *
 *   pass.<cold|warm>        one pass over the workload's jobs
 *     job.<id>              submit -> Finished
 *       api.dispatch        submit -> Started
 *       api.sink_render     last Dataset -> Finished
 *   probe.sys / probe.chr / probe.sim
 *     core.map -> sys.runDemo (one span per engine task)
 *     chr.acmin_sweep, chr.ber_attempts
 *     sim.run_systems, mitigation.graphene, mitigation.para
 *
 * Spans stay in memory and are written out, with the exact counts the
 * probes and the ThresholdStore registry report, as one JSON document
 * on stdout when the run ends.  perfbench/run.py turns them into the
 * per-layer metrics.  The cold pass runs first in a fresh process, so
 * the warm pass that follows differs from it only by the stores the
 * cold pass built.
 *
 * usage: rp_trace --experiments ID[,ID...] --set KEY=VALUE...
 *                 --passes 1|2 --probe sys|chr|sim --out DIR
 * (--set must give seed and threads; --passes 1 skips the warm pass.)
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/context.h"
#include "api/protocol.h"
#include "api/service.h"
#include "chr/ecc.h"
#include "chr/experiments.h"
#include "core/engine.h"
#include "core/thread_annotations.h"
#include "device/threshold_store.h"
#include "mitigation/adapter.h"
#include "mitigation/defaults.h"
#include "sim/system.h"
#include "sys/demo.h"
#include "workloads/presets.h"

using namespace rp;
using namespace rp::literals;

namespace {

using Overlay = std::vector<std::pair<std::string, std::string>>;

/** In-memory span store; spans may be recorded from engine workers. */
class Tracer
{
  public:
    std::int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    /** Record a closed span; returns its index (a parent handle). */
    int
    add(const std::string &name, std::int64_t start, std::int64_t end,
        int parent)
    {
        core::LockGuard lock(mutex_);
        spans_.push_back({name, start, end, parent});
        return int(spans_.size()) - 1;
    }

    /** Open a span now; close it with end(). */
    int begin(const std::string &name, int parent)
    {
        return add(name, now(), -1, parent);
    }

    void
    end(int span)
    {
        const std::int64_t t = now();
        core::LockGuard lock(mutex_);
        spans_[std::size_t(span)].end = t;
    }

    api::JsonValue
    json() const
    {
        core::LockGuard lock(mutex_);
        api::JsonValue list = api::JsonValue::array();
        for (const Span &s : spans_) {
            api::JsonValue v = api::JsonValue::object();
            v.add("name", api::JsonValue::string(s.name));
            v.add("start_ns", api::JsonValue::number((long long)s.start));
            v.add("end_ns", api::JsonValue::number((long long)s.end));
            v.add("parent", api::JsonValue::number((long long)s.parent));
            list.push(std::move(v));
        }
        return list;
    }

  private:
    using Clock = std::chrono::steady_clock;

    struct Span
    {
        std::string name;
        std::int64_t start;
        std::int64_t end;
        int parent;
    };

    const Clock::time_point origin_ = Clock::now();
    mutable core::Mutex mutex_;
    std::vector<Span> spans_ RP_GUARDED_BY(mutex_);
};

/** Span that closes when the scope ends. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const std::string &name, int parent)
        : tracer_(tracer), id_(tracer.begin(name, parent))
    {
    }
    ~ScopedSpan() { tracer_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    Tracer &tracer_;
    const int id_;
};

/** User + system CPU time of the whole process. */
std::int64_t
processCpuNs()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto ns = [](const timeval &tv) {
        return std::int64_t(tv.tv_sec) * 1000000000 +
               std::int64_t(tv.tv_usec) * 1000;
    };
    return ns(ru.ru_utime) + ns(ru.ru_stime);
}

/** Event times of one job, filled in by the service observer. */
struct JobRecord
{
    std::string experiment;
    std::string pass;
    std::string state = "unknown";
    std::int64_t started = -1;
    std::int64_t lastDataset = -1;
    std::int64_t finished = -1;
    std::int64_t cpuStarted = 0;
    std::int64_t cpuFinished = 0;
};

class JobTracer
{
  public:
    JobTracer(api::Service &service, Tracer &tracer)
        : service_(service), tracer_(tracer)
    {
        observer_ = service_.addObserver(
            [this](const api::JobEvent &event) { onEvent(event); });
    }
    ~JobTracer() { service_.removeObserver(observer_); }
    JobTracer(const JobTracer &) = delete;
    JobTracer &operator=(const JobTracer &) = delete;

    /** Submit the jobs one after another, as `rowpress run` does. */
    void
    runPass(const std::string &pass,
            const std::vector<std::string> &experiments,
            const Overlay &overlay, const std::string &out_dir)
    {
        const int root = tracer_.begin("pass." + pass, -1);
        for (const std::string &id : experiments) {
            api::JobRequest request;
            request.experiment = id;
            request.overlay = overlay;
            request.formats = {"csv", "json"};
            request.outDir = out_dir + "/" + pass;
            const std::int64_t submit = tracer_.now();
            const std::uint64_t job = service_.submit(request);
            service_.wait(job);

            JobRecord rec;
            {
                core::LockGuard lock(mutex_);
                rec = records_[job];
            }
            rec.experiment = id;
            rec.pass = pass;
            const int span =
                tracer_.add("job." + id, submit, rec.finished, root);
            tracer_.add("api.dispatch", submit, rec.started, span);
            // An experiment that emits no dataset renders nothing
            // after its compute: a zero-length sink span.
            const std::int64_t render =
                rec.lastDataset >= 0 ? rec.lastDataset : rec.finished;
            tracer_.add("api.sink_render", render, rec.finished, span);
            done_.push_back(rec);
        }
        tracer_.end(root);
    }

    api::JsonValue
    json() const
    {
        api::JsonValue list = api::JsonValue::array();
        for (const JobRecord &r : done_) {
            api::JsonValue v = api::JsonValue::object();
            v.add("experiment", api::JsonValue::string(r.experiment));
            v.add("pass", api::JsonValue::string(r.pass));
            v.add("state", api::JsonValue::string(r.state));
            v.add("started_ns",
                  api::JsonValue::number((long long)r.started));
            v.add("finished_ns",
                  api::JsonValue::number((long long)r.finished));
            v.add("cpu_ns", api::JsonValue::number(
                                (long long)(r.cpuFinished - r.cpuStarted)));
            list.push(std::move(v));
        }
        return list;
    }

  private:
    void
    onEvent(const api::JobEvent &event)
    {
        const std::int64_t t = tracer_.now();
        core::LockGuard lock(mutex_);
        JobRecord &rec = records_[event.job];
        switch (event.type) {
        case api::JobEventType::Started:
            rec.started = t;
            rec.cpuStarted = processCpuNs();
            break;
        case api::JobEventType::Dataset:
            rec.lastDataset = t;
            break;
        case api::JobEventType::Finished:
            rec.finished = t;
            rec.cpuFinished = processCpuNs();
            rec.state = api::jobStateName(event.state);
            break;
        default:
            break;
        }
    }

    api::Service &service_;
    Tracer &tracer_;
    std::uint64_t observer_ = 0;
    core::Mutex mutex_;
    std::map<std::uint64_t, JobRecord> records_ RP_GUARDED_BY(mutex_);
    std::vector<JobRecord> done_;
};

using Counters = std::map<std::string, long long>;

/** Resolved config of @p id under the workload's overlay. */
api::Config
configFor(const std::string &id, const Overlay &overlay)
{
    return api::Service::resolveConfig(api::Service::findExperiment(id),
                                       overlay);
}

std::unique_ptr<core::ExperimentEngine>
makeEngine(const api::Config &config)
{
    core::ExperimentEngine::Options opts;
    opts.numThreads = config.getInt("threads");
    opts.rootSeed = std::uint64_t(config.getInt("seed"));
    return std::make_unique<core::ExperimentEngine>(opts);
}

/** Fig. 23's two 18-cell grids (Algorithms 1 and 2): 36 sys::runDemo
 *  cells through ExperimentEngine::map, one map per grid as fig23
 *  runs them. */
void
probeSys(Tracer &tracer, const Overlay &overlay, Counters &counters)
{
    const api::Config config = configFor("fig23", overlay);
    const auto engine = makeEngine(config);
    const std::vector<int> reads = {1, 4, 16, 32, 48, 64};
    const std::vector<int> acts = {2, 3, 4};
    const double scale = config.getDouble("scale");
    const std::uint64_t seed = std::uint64_t(config.getInt("seed"));

    ScopedSpan root(tracer, "probe.sys", -1);
    for (bool interleaved : {false, true}) {
        ScopedSpan map(tracer, "core.map", root.id());
        const auto results = engine->map<sys::DemoResult>(
            acts.size() * reads.size(), [&](const core::TaskContext &tc) {
                ScopedSpan task(tracer, "sys.runDemo", map.id());
                sys::DemoConfig cfg;
                cfg.numAggrActs = acts[tc.index / reads.size()];
                cfg.numReads = reads[tc.index % reads.size()];
                cfg.interleavedFlush = interleaved;
                cfg.numVictims = std::max(4, int(10 * scale));
                cfg.numIters = std::max(4000, int(16000 * scale));
                cfg.seed = seed;
                return sys::runDemo(cfg);
            });
        for (const sys::DemoResult &r : results) {
            counters["sys.acts"] += (long long)r.aggressorActs;
            counters["sys.trr_refreshes"] +=
                (long long)r.targetedRefreshes;
            counters["sys.bitflips"] += (long long)r.totalBitflips;
            counters["sys.rows_with_bitflips"] += r.rowsWithBitflips;
        }
    }
}

/** chr drivers at the shapes of Fig. 6 (ACmin sweep) and Fig. 25
 *  (max-activation attempts with full-scan inspection). */
void
probeChr(Tracer &tracer, const Overlay &overlay, Counters &counters)
{
    const api::Experiment &fig06 = api::Service::findExperiment("fig06");
    const api::Config config = configFor("fig06", overlay);
    const auto engine = makeEngine(config);
    const api::ExperimentContext ctx(fig06.info, config, *engine,
                                     [](api::JobEvent &&) {});

    ScopedSpan root(tracer, "probe.chr", -1);
    {
        ScopedSpan span(tracer, "chr.acmin_sweep", root.id());
        const double temp = ctx.config().getDouble("temp");
        for (const auto &die : ctx.dies())
            chr::acminSweep(ctx.moduleConfig(die, temp), *engine,
                            chr::standardTAggOnSweep(),
                            chr::AccessKind::SingleSided);
    }
    ScopedSpan span(tracer, "chr.ber_attempts", root.id());
    for (Time t : {7800_ns, 70200_ns}) {
        for (const auto &die : ctx.dies()) {
            const auto mc = ctx.moduleConfig(die, 80.0);
            const auto rows = chr::baseRowsOf(mc);
            const std::vector<int> tested(
                rows.begin(),
                rows.begin() + std::ptrdiff_t(
                                   std::min<std::size_t>(4, rows.size())));
            for (auto kind : {chr::AccessKind::SingleSided,
                              chr::AccessKind::DoubleSided}) {
                const auto attempts = chr::maxActivationAttempts(
                    mc, *engine, tested, kind,
                    chr::DataPattern::CheckerBoard, t);
                std::vector<chr::VictimFlip> flips;
                for (const auto &attempt : attempts)
                    flips.insert(flips.end(), attempt.flips.begin(),
                                 attempt.flips.end());
                const auto stats = chr::analyzeWordErrors(flips);
                counters["chr.error_words"] +=
                    (long long)(stats.words1to2 + stats.words3to8 +
                                stats.wordsOver8);
            }
        }
    }
}

/** Table 3's batch (8 workloads x {baseline, six t_mro}) without a
 *  mitigation, then with Graphene-RP and with PARA-RP. */
void
probeSim(Tracer &tracer, const Overlay &overlay, Counters &counters)
{
    const api::Config config = configFor("table3", overlay);
    const auto engine = makeEngine(config);
    const std::uint64_t instrs = std::max<std::uint64_t>(
        50000, std::uint64_t(150000 * config.getDouble("scale")));
    const std::uint32_t base_trh = std::uint32_t(config.getInt("trh"));
    const auto profile = mitigation::paperTable3Profile();
    const std::vector<Time> t_mros = {36_ns,  66_ns,  96_ns,
                                      186_ns, 336_ns, 636_ns};
    std::vector<workloads::WorkloadParams> set;
    for (const char *name :
         {"429.mcf", "462.libquantum", "510.parest", "h264_encode",
          "470.lbm", "483.xalancbmk", "tpch17", "ycsb_bserver"})
        set.push_back(workloads::workloadByName(name));

    // mechanism: 0 = none, 1 = Graphene-RP, 2 = PARA-RP.
    auto batch = [&](int mechanism) {
        std::vector<sim::SystemJob> jobs;
        auto add = [&](Time t_mro, std::uint32_t trh) {
            for (const auto &w : set) {
                sim::SystemJob job;
                job.cfg.mem.tMro = t_mro;
                job.cfg.core.instrLimit = instrs;
                job.cfg.workloads = {w};
                if (mechanism != 0)
                    job.mitigationFactory =
                        mitigation::standardMitigationFactory(
                            mechanism == 2, trh);
                jobs.push_back(job);
            }
        };
        add(0, base_trh);
        for (Time t : t_mros)
            add(t, mitigation::adaptThreshold(profile, base_trh, t)
                       .adaptedTrh);
        return jobs;
    };

    ScopedSpan root(tracer, "probe.sim", -1);
    const char *const names[] = {"sim.run_systems", "mitigation.graphene",
                                 "mitigation.para"};
    for (int mechanism = 0; mechanism < 3; ++mechanism) {
        const auto jobs = batch(mechanism);
        std::vector<sim::SystemResult> results;
        {
            ScopedSpan span(tracer, names[mechanism], root.id());
            results = sim::runSystems(jobs, *engine);
        }
        for (const auto &r : results) {
            long long instrs_run = 0;
            for (const auto &c : r.cores)
                instrs_run += (long long)c.instrs;
            counters["sim.instrs"] += instrs_run;
            if (mechanism == 0)
                counters["sim.instrs_unmitigated"] += instrs_run;
            counters["sim.acts"] += (long long)r.mem.acts;
            counters["sim.row_hits"] += (long long)r.mem.rowHits;
            counters["sim.row_misses"] += (long long)r.mem.rowMisses;
            counters["sim.preventive_acts"] +=
                (long long)r.mem.preventiveActs;
        }
    }
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

int
usage(const std::string &why)
{
    std::cerr << "rp_trace: " << why
              << "\nusage: rp_trace --experiments ID[,ID...] "
                 "--set KEY=VALUE... --passes 1|2 --probe sys|chr|sim "
                 "--out DIR\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc % 2 == 0)
        return usage("flag without a value");
    std::vector<std::string> experiments;
    Overlay overlay;
    int passes = 0;
    std::string probe, out_dir;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i], value = argv[i + 1];
        if (flag == "--experiments") {
            experiments = splitList(value);
        } else if (flag == "--set") {
            const auto eq = value.find('=');
            if (eq == std::string::npos)
                return usage("--set expects KEY=VALUE");
            overlay.emplace_back(value.substr(0, eq),
                                 value.substr(eq + 1));
        } else if (flag == "--passes") {
            passes = std::atoi(value.c_str());
        } else if (flag == "--probe") {
            probe = value;
        } else if (flag == "--out") {
            out_dir = value;
        } else {
            return usage("unknown flag " + flag);
        }
    }
    if ((passes != 1 && passes != 2) || out_dir.empty() ||
        (probe != "sys" && probe != "chr" && probe != "sim"))
        return usage("--passes, --probe and --out are required");

    try {
        Tracer tracer;
        api::Service service(api::Service::Options{1});
        JobTracer jobs(service, tracer);
        Counters counters;

        const auto before = device::ThresholdStore::registryStats();
        jobs.runPass("cold", experiments, overlay, out_dir);
        const auto after = device::ThresholdStore::registryStats();
        counters["device.store_misses"] =
            (long long)(after.misses - before.misses);
        counters["device.candidate_rows"] =
            (long long)(after.totals.candidateRows -
                        before.totals.candidateRows);
        counters["device.wordmask_rows"] =
            (long long)(after.totals.wordMaskRows -
                        before.totals.wordMaskRows);
        counters["device.store_bytes"] =
            (long long)after.totals.approxBytes;
        if (passes == 2)
            jobs.runPass("warm", experiments, overlay, out_dir);

        if (probe == "sys")
            probeSys(tracer, overlay, counters);
        else if (probe == "chr")
            probeChr(tracer, overlay, counters);
        else
            probeSim(tracer, overlay, counters);

        api::JsonValue doc = api::JsonValue::object();
        doc.add("spans", tracer.json());
        doc.add("jobs", jobs.json());
        api::JsonValue counts = api::JsonValue::object();
        for (const auto &[name, value] : counters)
            counts.add(name, api::JsonValue::number(value));
        doc.add("counters", std::move(counts));
        api::writeJson(std::cout, doc);
        std::cout << "\n";
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "rp_trace: " << e.what() << "\n";
        return 1;
    }
}
