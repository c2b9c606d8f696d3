/**
 * @file
 * rp::api::Service tests: submission/validation, the per-job event
 * stream, queued + running cancellation through the engine's
 * cancellation points, failure reporting, warm-cache stats, and the
 * concurrent-determinism contract — the same experiment submitted N
 * times with distinct seeds alongside unrelated jobs produces
 * artifacts byte-identical to serial `rowpress run` at --threads 1
 * and 4.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "api/cli.h"
#include "api/context.h"
#include "api/service.h"
#include "device/die_config.h"
#include "device/threshold_store.h"

namespace rp::api {
namespace {

namespace fs = std::filesystem;
using namespace rp::literals;

/** Release-gated experiment used by the cancellation tests. */
struct Gate
{
    std::mutex m;
    std::condition_variable cv;
    bool entered = false;
    bool release = false;

    void
    reset()
    {
        std::lock_guard<std::mutex> lock(m);
        entered = false;
        release = false;
    }

    void
    waitEntered()
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [this] { return entered; });
    }

    void
    open()
    {
        {
            std::lock_guard<std::mutex> lock(m);
            release = true;
        }
        cv.notify_all();
    }
};
Gate g_gate;

void
runSweep(ExperimentContext &ctx)
{
    // Real characterization work (a small ACmin sweep), so the
    // determinism test exercises engine parallelism and the shared
    // warm threshold stores, not just a stub.
    const auto die = device::dieS8GbB();
    const auto mc = ctx.moduleConfig(die, 50.0);
    const std::vector<Time> sweep = {36_ns, 7800_ns, 300_us};
    auto points = chr::acminSweep(mc, ctx.engine(), sweep,
                                  chr::AccessKind::SingleSided);
    Dataset d("svc sweep");
    d.header({"tAggOn_ns", "mean_acmin", "fraction_flipped"});
    for (const auto &p : points)
        d.rowf(double(p.tAggOn), p.meanAcmin(), p.fractionFlipped());
    ctx.emit(d);
    ctx.emitAcminSweepRaw("raw_sweep", die.id, 50.0,
                          chr::AccessKind::SingleSided,
                          chr::DataPattern::CheckerBoard, points);
    ctx.note("sweep note\n");
}

struct RegisterDummies
{
    RegisterDummies()
    {
        auto &registry = ExperimentRegistry::instance();
        registry.add({{"zzsvc_sweep", "Service sweep dummy", "none",
                       "test"},
                      nullptr, runSweep});
        registry.add({{"zzsvc_other", "Unrelated quick dummy", "none",
                       "test"},
                      nullptr, [](ExperimentContext &ctx) {
                          Dataset d("other");
                          d.header({"x"});
                          d.row({"1"});
                          ctx.emit(d);
                      }});
        registry.add({{"zzsvc_gate", "Blocks until released", "none",
                       "test"},
                      nullptr, [](ExperimentContext &ctx) {
                          ctx.engine().map<int>(
                              1, [](const core::TaskContext &) {
                                  std::unique_lock<std::mutex> lock(
                                      g_gate.m);
                                  g_gate.entered = true;
                                  g_gate.cv.notify_all();
                                  g_gate.cv.wait(lock, [] {
                                      return g_gate.release;
                                  });
                                  return 0;
                              });
                          // Second task set: the engine checks the
                          // job's cancel token at run() entry, so a
                          // cancel issued while the gate was closed
                          // lands here.
                          ctx.engine().map<int>(
                              1, [](const core::TaskContext &) {
                                  return 0;
                              });
                      }});
        registry.add({{"zzsvc_fail", "Always throws", "none", "test"},
                      nullptr, [](ExperimentContext &) {
                          throw std::runtime_error("deliberate");
                      }});
    }
};
const RegisterDummies register_dummies;

fs::path
tempDir(const std::string &leaf)
{
    const fs::path dir = fs::path(::testing::TempDir()) / leaf;
    fs::remove_all(dir);
    return dir;
}

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(ApiService, SubmitRunsAndStreamsOrderedEvents)
{
    const fs::path out = tempDir("rp_svc_events");
    Service service;

    std::mutex m;
    std::vector<JobEvent> events;
    service.addObserver([&](const JobEvent &event) {
        std::lock_guard<std::mutex> lock(m);
        events.push_back(event);
    });

    JobRequest req;
    req.experiment = "zzsvc_sweep";
    req.overlay = {{"locations", "1"}, {"threads", "1"}};
    req.outDir = out;
    const auto id = service.submit(req);
    const JobStatus st = service.wait(id);

    EXPECT_EQ(st.state, JobState::Finished);
    EXPECT_EQ(st.experiment, "zzsvc_sweep");
    EXPECT_EQ(st.engineThreads, 1);
    EXPECT_TRUE(fs::exists(out / "zzsvc_sweep" / "svc_sweep.csv"));
    EXPECT_TRUE(fs::exists(out / "zzsvc_sweep" / "raw_sweep.csv"));
    EXPECT_TRUE(fs::exists(out / "zzsvc_sweep" / "result.json"));

    std::lock_guard<std::mutex> lock(m);
    ASSERT_GE(events.size(), 5u);
    EXPECT_EQ(events.front().type, JobEventType::Queued);
    EXPECT_EQ(events[1].type, JobEventType::Started);
    EXPECT_EQ(events.back().type, JobEventType::Finished);
    EXPECT_EQ(events.back().state, JobState::Finished);
    for (const JobEvent &event : events) {
        EXPECT_EQ(event.job, id);
        EXPECT_EQ(event.experiment, "zzsvc_sweep");
    }
    // The Started event carries the fully resolved config.
    bool saw_locations = false;
    for (const ConfigValue &kv : events[1].config) {
        if (kv.key == "locations") {
            saw_locations = true;
            EXPECT_EQ(kv.value, "1");
            EXPECT_EQ(kv.origin, "cli");
        }
    }
    EXPECT_TRUE(saw_locations);
    // result.json embeds the same resolved config.
    const std::string json = slurp(out / "zzsvc_sweep" / "result.json");
    EXPECT_NE(json.find("\"config\""), std::string::npos);
    EXPECT_NE(json.find("\"origin\": \"cli\""), std::string::npos);
}

TEST(ApiService, SubmitValidatesBeforeRunning)
{
    Service service;
    JobRequest req;
    req.experiment = "zz_no_such_experiment";
    EXPECT_THROW(service.submit(req), ConfigError);

    req.experiment = "zzsvc_sweep";
    req.overlay = {{"bogus", "1"}};
    EXPECT_THROW(service.submit(req), ConfigError);

    req.overlay = {{"locations", "garbage"}};
    EXPECT_THROW(service.submit(req), ConfigError);

    req.overlay.clear();
    req.formats = {"xml"};
    EXPECT_THROW(service.submit(req), ConfigError);

    req.formats = {};
    EXPECT_THROW(service.submit(req), ConfigError);

    // "table" needs a stream; serve-style submissions have none.
    req.formats = {"table"};
    req.tableStream = nullptr;
    EXPECT_THROW(service.submit(req), ConfigError);

    EXPECT_THROW(service.status(999), ConfigError);
    EXPECT_FALSE(service.cancel(999));
}

/** Engine threads of a zzsvc_other job run with @p overlay. */
int
engineThreadsOf(
    const std::vector<std::pair<std::string, std::string>> &overlay)
{
    JobRequest req;
    req.experiment = "zzsvc_other";
    req.overlay = overlay;
    req.outDir = tempDir("rp_svc_threads");
    Service service;
    const JobStatus st = service.wait(service.submit(req));
    EXPECT_EQ(st.state, JobState::Finished) << st.error;
    return st.engineThreads;
}

TEST(ApiService, JobConfigIgnoresTheProcessEnvironment)
{
    // The environment aliases of the retired per-figure binaries (and
    // two names retired before them), each set to a non-default value:
    // a job's config is its request, so none of them may reach it.
    const std::vector<std::pair<const char *, const char *>> retired = {
        {"ROWPRESS_BENCH_LOCATIONS", "3"}, {"ROWPRESS_DIES", "all"},
        {"ROWPRESS_BENCH_SCALE", "0.5"},   {"RP_SEED", "9"},
        {"RP_THREADS", "3"},               {"ROWPRESS_TEMP_STEP", "10"},
        {"ROWPRESS_SEED", "9"},            {"ROWPRESS_ALL_DIES", "1"}};
    for (const auto &[name, value] : retired)
        ::setenv(name, value, 1);

    auto resolved = [](const std::string &id) {
        std::map<std::string, ConfigValue> by_key;
        const Config config =
            Service::resolveConfig(Service::findExperiment(id), {});
        for (const ConfigValue &kv : config.resolved())
            by_key[kv.key] = kv;
        return by_key;
    };
    auto fig06 = resolved("fig06");
    for (const auto &[key, value] :
         std::vector<std::pair<std::string, std::string>>{
             {"locations", "10"},
             {"dies", "default"},
             {"scale", "1"},
             {"seed", "1"},
             {"threads", "0"}}) {
        EXPECT_EQ(fig06[key].value, value) << key;
        EXPECT_EQ(fig06[key].origin, "default") << key;
    }
    auto fig15 = resolved("fig15");
    EXPECT_EQ(fig15["temp-step"].value, "5");
    EXPECT_EQ(fig15["temp-step"].origin, "default");

    const int hw = std::max(1, int(std::thread::hardware_concurrency()));
    EXPECT_EQ(engineThreadsOf({}), hw);

    for (const auto &[name, value] : retired)
        ::unsetenv(name);
}

TEST(ApiService, ResolveConfigBoundsLocationsAndThreads)
{
    // The largest location count whose layouts all fit the bank, and
    // a fixed ceiling on engine threads (0 still means hardware
    // concurrency).  Resolving a config starts no engine.
    const Experiment &fig06 = Service::findExperiment("fig06");
    EXPECT_EQ(chr::maxLocations(), 4092);
    for (const auto &[key, value] :
         std::vector<std::pair<std::string, std::string>>{
             {"locations", "4092"}, {"threads", "256"}, {"threads", "0"}})
        EXPECT_NO_THROW(
            (void)Service::resolveConfig(fig06, {{key, value}}))
            << key << "=" << value;

    struct Refused
    {
        const char *key, *value, *bound;
    };
    for (const Refused &c : {Refused{"locations", "4093", "4092"},
                             Refused{"threads", "257", "256"}}) {
        try {
            (void)Service::resolveConfig(fig06, {{c.key, c.value}});
            ADD_FAILURE() << c.key << "=" << c.value << " was accepted";
        } catch (const ConfigError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(std::string("--") + c.key),
                      std::string::npos)
                << what;
            EXPECT_NE(what.find(c.bound), std::string::npos) << what;
        }
    }
}

TEST(ApiService, FailedJobReportsErrorAndWritesNoResult)
{
    const fs::path out = tempDir("rp_svc_fail");
    Service service;
    JobRequest req;
    req.experiment = "zzsvc_fail";
    req.outDir = out;
    const JobStatus st = service.wait(service.submit(req));
    EXPECT_EQ(st.state, JobState::Failed);
    EXPECT_NE(st.error.find("deliberate"), std::string::npos);
    EXPECT_FALSE(st.configError);
    // A failed job never finalizes its sinks.
    EXPECT_FALSE(fs::exists(out / "zzsvc_fail" / "result.json"));
}

TEST(ApiService, SinkFailureAtFinalizeFailsJobNotProcess)
{
    // An unwritable out dir is only hit by JsonSink at endExperiment,
    // i.e. while the Finished event dispatches on a scheduler worker
    // — it must become the job's outcome, not std::terminate.
    const fs::path blocker =
        fs::path(::testing::TempDir()) / "rp_svc_blocker";
    fs::remove_all(blocker);
    { std::ofstream touch(blocker); }
    ASSERT_TRUE(fs::is_regular_file(blocker));

    Service service;
    JobRequest req;
    req.experiment = "zzsvc_other";
    req.formats = {"json"};
    req.outDir = blocker / "sub"; // path under a regular file
    const JobStatus st = service.wait(service.submit(req));
    EXPECT_EQ(st.state, JobState::Failed);
    EXPECT_NE(st.error.find("finalizing outputs failed"),
              std::string::npos);

    // The service survives: the next job runs normally.
    JobRequest ok;
    ok.experiment = "zzsvc_other";
    ok.outDir = tempDir("rp_svc_after_blocker");
    EXPECT_EQ(service.wait(service.submit(ok)).state,
              JobState::Finished);
}

TEST(ApiService, CancelQueuedJob)
{
    const fs::path out = tempDir("rp_svc_cancel_queued");
    g_gate.reset();
    Service service(Service::Options(1));

    JobRequest gate;
    gate.experiment = "zzsvc_gate";
    gate.overlay = {{"threads", "1"}};
    gate.outDir = out;
    const auto gate_id = service.submit(gate);
    g_gate.waitEntered();
    EXPECT_EQ(service.status(gate_id).state, JobState::Running);

    JobRequest queued;
    queued.experiment = "zzsvc_other";
    queued.outDir = out;
    const auto queued_id = service.submit(queued);
    EXPECT_EQ(service.status(queued_id).state, JobState::Queued);

    EXPECT_TRUE(service.cancel(queued_id));
    EXPECT_EQ(service.wait(queued_id).state, JobState::Cancelled);
    // Never started: its sinks never opened an experiment directory.
    EXPECT_FALSE(fs::exists(out / "zzsvc_other"));

    g_gate.open();
    EXPECT_EQ(service.wait(gate_id).state, JobState::Finished);
}

TEST(ApiService, CancelRunningJobAtTaskBoundary)
{
    const fs::path out = tempDir("rp_svc_cancel_running");
    g_gate.reset();
    Service service;

    JobRequest gate;
    gate.experiment = "zzsvc_gate";
    gate.overlay = {{"threads", "1"}};
    gate.outDir = out;
    const auto id = service.submit(gate);
    g_gate.waitEntered();

    EXPECT_TRUE(service.cancel(id));
    g_gate.open();
    const JobStatus st = service.wait(id);
    EXPECT_EQ(st.state, JobState::Cancelled);
    EXPECT_FALSE(fs::exists(out / "zzsvc_gate" / "result.json"));
}

TEST(ApiService, WarmCacheStatsAndEviction)
{
    const fs::path out = tempDir("rp_svc_cache");
    Service service;
    JobRequest req;
    req.experiment = "zzsvc_sweep";
    req.overlay = {{"locations", "1"}, {"threads", "1"}};
    req.outDir = out;
    ASSERT_EQ(service.wait(service.submit(req)).state,
              JobState::Finished);

    const auto stats = device::ThresholdStore::registryStats();
    EXPECT_GE(stats.stores, 1u);
    EXPECT_GE(stats.misses, 1u);
    EXPECT_GE(stats.totals.candidateRows, 1u);
    EXPECT_GT(stats.totals.approxBytes, 0u);

    EXPECT_GE(device::ThresholdStore::evictRegistry(), 1u);
    const auto after = device::ThresholdStore::registryStats();
    EXPECT_EQ(after.stores, 0u);
    EXPECT_GE(after.evictions, 1u);

    // Eviction only trades warmth for memory: a rerun repopulates and
    // (by determinism) rewrites identical artifacts.
    const std::string before_json =
        slurp(out / "zzsvc_sweep" / "result.json");
    ASSERT_EQ(service.wait(service.submit(req)).state,
              JobState::Finished);
    EXPECT_EQ(slurp(out / "zzsvc_sweep" / "result.json"), before_json);
    EXPECT_GE(device::ThresholdStore::registryStats().stores, 1u);
}

/**
 * The concurrent-determinism satellite: the same experiment submitted
 * N times with distinct seeds, alongside an unrelated job, on a
 * multi-worker service — every artifact byte-identical to a serial
 * `rowpress run` of the same (seed, threads).
 */
TEST(ApiService, ConcurrentJobsMatchSerialRunByteForByte)
{
    const std::vector<std::string> seeds = {"11", "12", "13"};
    const std::vector<std::string> files = {"svc_sweep.csv",
                                            "raw_sweep.csv",
                                            "result.json"};

    for (const std::string &threads : {std::string("1"),
                                       std::string("4")}) {
        // Serial references via the `run` front-end (one process-wide
        // execution path: this is the same Service machinery).
        std::map<std::string, std::map<std::string, std::string>> ref;
        for (const std::string &seed : seeds) {
            const fs::path dir =
                tempDir("rp_svc_ref_t" + threads + "_s" + seed);
            std::ostringstream out, err;
            ASSERT_EQ(runCli({"run", "zzsvc_sweep", "--seed", seed,
                              "--locations", "2", "--threads", threads,
                              "--format", "csv,json", "--out",
                              dir.string()},
                             out, err),
                      0)
                << err.str();
            for (const std::string &file : files)
                ref[seed][file] = slurp(dir / "zzsvc_sweep" / file);
        }

        // Same jobs, submitted together on a 3-worker service with an
        // unrelated job racing them.
        Service service(Service::Options(3));
        std::vector<std::uint64_t> ids;
        std::vector<fs::path> dirs;
        for (const std::string &seed : seeds) {
            const fs::path dir =
                tempDir("rp_svc_conc_t" + threads + "_s" + seed);
            JobRequest req;
            req.experiment = "zzsvc_sweep";
            req.overlay = {{"seed", seed},
                           {"locations", "2"},
                           {"threads", threads}};
            req.outDir = dir;
            ids.push_back(service.submit(req));
            dirs.push_back(dir);
        }
        JobRequest other;
        other.experiment = "zzsvc_other";
        other.outDir = tempDir("rp_svc_conc_other_t" + threads);
        const auto other_id = service.submit(other);
        service.drain();

        EXPECT_EQ(service.status(other_id).state, JobState::Finished);
        for (std::size_t i = 0; i < seeds.size(); ++i) {
            ASSERT_EQ(service.status(ids[i]).state, JobState::Finished);
            for (const std::string &file : files)
                EXPECT_EQ(slurp(dirs[i] / "zzsvc_sweep" / file),
                          ref[seeds[i]][file])
                    << "seed " << seeds[i] << " threads " << threads
                    << " file " << file;
        }
    }
}

} // namespace
} // namespace rp::api
