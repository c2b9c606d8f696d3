/**
 * @file
 * Chaos suite: the deterministic fault-injection harness driving the
 * service/protocol robustness stack.  Every scenario arms
 * core::FaultInjector (programmatically or through the RP_FAULT_SEED
 * / RP_FAULT_POINTS environment grammar) and asserts the documented
 * degradation: a worker exception fails its job without wedging the
 * queue; a sink failure degrades only its job; a socket write fault
 * drops one session while its in-flight jobs keep running; a
 * deadline ends a long run as deadline_exceeded with a terminated
 * event stream; a transient failure retried to success is
 * byte-identical to a no-fault run; full queues and load-shed mode
 * reject with machine-readable reasons; SIGTERM drains with the
 * documented exit codes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "api/context.h"
#include "api/protocol.h"
#include "api/service.h"
#include "core/fault.h"

#if defined(__unix__) || defined(__APPLE__)
#define RP_TEST_HAVE_SOCKETS 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace rp::api {
namespace {

namespace fs = std::filesystem;
using core::FaultInjector;
using core::FaultSpec;

/** Every test leaves the process-wide injector disarmed. */
struct DisarmGuard
{
    ~DisarmGuard() { FaultInjector::instance().disarm(); }
};

FaultSpec
spec(const std::string &point, FaultSpec::Kind kind,
     bool transient = false, int count = -1, int skip = 0)
{
    FaultSpec s;
    s.point = point;
    s.kind = kind;
    s.transient = transient;
    s.count = count;
    s.skip = skip;
    return s;
}

/** Release-gated experiment for in-flight/backpressure scenarios. */
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

struct RegisterDummies
{
    RegisterDummies()
    {
        auto &registry = ExperimentRegistry::instance();
        // Deterministic artifact writer: per-task seeds are a pure
        // function of (root seed, index), and map() returns results
        // in index order, so the rendered bytes are independent of
        // thread count — the byte-identity scenarios rely on it.
        registry.add({{"zzflt_artifact", "Deterministic artifacts",
                       "none", "test"},
                      nullptr, [](ExperimentContext &ctx) {
                          const auto vals =
                              ctx.engine().map<std::uint64_t>(
                                  8, [](const core::TaskContext &t) {
                                      return t.seed;
                                  });
                          Dataset d("flt artifact");
                          d.header({"i", "seed"});
                          for (std::size_t i = 0; i < vals.size(); ++i)
                              d.row({std::to_string(i),
                                     std::to_string(vals[i])});
                          ctx.emit(d);
                          ctx.note("flt note\n");
                      }});
        // Long run with frequent task boundaries: deadlines and
        // cancellation land at one of them within ~20 ms.
        registry.add({{"zzflt_slow", "Slow many-task run", "none",
                       "test"},
                      nullptr, [](ExperimentContext &ctx) {
                          ctx.engine().map<int>(
                              60, [](const core::TaskContext &) {
                                  std::this_thread::sleep_for(
                                      std::chrono::milliseconds(20));
                                  return 0;
                              });
                          Dataset d("slow");
                          d.header({"x"});
                          d.row({"1"});
                          ctx.emit(d);
                      }});
        registry.add({{"zzflt_gate", "Blocks until released", "none",
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

JobRequest
artifactRequest(const fs::path &out, const std::string &threads = "1")
{
    JobRequest req;
    req.experiment = "zzflt_artifact";
    req.overlay = {{"threads", threads}, {"seed", "7"}};
    req.outDir = out;
    return req;
}

// ---- injector unit behavior ------------------------------------------

TEST(FaultInjector, RejectsUnknownPointsAndBadSpecs)
{
    DisarmGuard guard;
    auto &fi = FaultInjector::instance();
    EXPECT_THROW(
        fi.arm(1, {spec("no.such.point", FaultSpec::Kind::Throw)}),
        std::invalid_argument);
    FaultSpec bad = spec("sink.render", FaultSpec::Kind::Throw);
    bad.probability = 1.5;
    EXPECT_THROW(fi.arm(1, {bad}), std::invalid_argument);
    FaultSpec bad_errno = spec("sink.render", FaultSpec::Kind::Errno);
    bad_errno.errnoValue = 0;
    EXPECT_THROW(fi.arm(1, {bad_errno}), std::invalid_argument);
    EXPECT_FALSE(fi.armed());
}

TEST(FaultInjector, EnvGrammarArmsSkipCountAndErrno)
{
    DisarmGuard guard;
    auto &fi = FaultInjector::instance();
    ::setenv("RP_FAULT_SEED", "42", 1);
    ::setenv("RP_FAULT_POINTS",
             " sink.render = transient x2 @1 , "
             "protocol.socket.write = errno:EPIPE ",
             1);
    fi.armFromEnv();
    ::unsetenv("RP_FAULT_POINTS");
    ::unsetenv("RP_FAULT_SEED");
    ASSERT_TRUE(fi.armed());

    // skip=1: first hit passes, then two transient throws, then the
    // count is exhausted and the point goes quiet.
    EXPECT_EQ(core::faultPoint("sink.render"), 0);
    EXPECT_THROW(core::faultPoint("sink.render"),
                 core::TransientError);
    EXPECT_THROW(core::faultPoint("sink.render"),
                 core::TransientError);
    EXPECT_EQ(core::faultPoint("sink.render"), 0);

    // Errno faults return the value instead of throwing.
    EXPECT_EQ(core::faultPoint("protocol.socket.write"), EPIPE);

    const auto stats = fi.stats();
    bool checked = false;
    for (const auto &p : stats) {
        if (p.point == "sink.render") {
            EXPECT_EQ(p.hits, 4u);
            EXPECT_EQ(p.fires, 2u);
            checked = true;
        }
    }
    EXPECT_TRUE(checked);
}

TEST(FaultInjector, EnvGrammarRejectsMalformedInput)
{
    DisarmGuard guard;
    auto &fi = FaultInjector::instance();
    for (const char *bad :
         {"sink.render", "sink.render=frobnicate",
          "zz.unknown=throw", "sink.render=errno:EWHAT",
          "sink.render=delay:abc", "sink.render=throw~nope"}) {
        ::setenv("RP_FAULT_POINTS", bad, 1);
        EXPECT_THROW(fi.armFromEnv(), std::invalid_argument) << bad;
    }
    ::unsetenv("RP_FAULT_POINTS");
    EXPECT_FALSE(fi.armed());
}

TEST(FaultInjector, ProbabilityGateReplaysUnderFixedSeed)
{
    DisarmGuard guard;
    auto &fi = FaultInjector::instance();
    FaultSpec p = spec("sink.render", FaultSpec::Kind::Errno);
    p.errnoValue = EIO;
    p.probability = 0.5;

    auto pattern = [&](std::uint64_t seed) {
        fi.disarm();
        fi.arm(seed, {p});
        std::string bits;
        for (int i = 0; i < 64; ++i)
            bits += core::faultPoint("sink.render") ? '1' : '0';
        return bits;
    };

    const std::string a = pattern(1234);
    const std::string b = pattern(1234);
    EXPECT_EQ(a, b); // same seed: identical fault schedule
    EXPECT_NE(a.find('1'), std::string::npos);
    EXPECT_NE(a.find('0'), std::string::npos);
    EXPECT_NE(a, pattern(99)); // different seed: different schedule
}

// ---- service chaos ---------------------------------------------------

TEST(FaultService, WorkerExceptionFailsJobWithoutWedgingQueue)
{
    DisarmGuard guard;
    const fs::path out = tempDir("rp_flt_worker");
    FaultInjector::instance().arm(
        1, {spec("core.engine.task", FaultSpec::Kind::Throw,
                 /*transient=*/false, /*count=*/1)});

    Service service(Service::Options{/*workers=*/1});
    const auto first = service.submit(artifactRequest(out / "a"));
    const auto second = service.submit(artifactRequest(out / "b"));

    const JobStatus st1 = service.wait(first);
    EXPECT_EQ(st1.state, JobState::Failed);
    EXPECT_NE(st1.error.find("core.engine.task"), std::string::npos);

    // The queue is not stuck: the next job runs to completion.
    const JobStatus st2 = service.wait(second);
    EXPECT_EQ(st2.state, JobState::Finished);
    EXPECT_TRUE(
        fs::exists(out / "b" / "zzflt_artifact" / "result.json"));
}

TEST(FaultService, SinkFailureDegradesOnlyItsJob)
{
    DisarmGuard guard;
    const fs::path out = tempDir("rp_flt_sink");
    // First rendered (non-Queued) sink delivery throws; with one
    // scheduler worker the hit schedule is deterministic, so the
    // fault lands in job 1's Started delivery.
    FaultInjector::instance().arm(
        1, {spec("sink.render", FaultSpec::Kind::Throw,
                 /*transient=*/false, /*count=*/1)});

    Service service(Service::Options{/*workers=*/1});
    const auto first = service.submit(artifactRequest(out / "a"));
    const auto second = service.submit(artifactRequest(out / "b"));

    const JobStatus st1 = service.wait(first);
    EXPECT_EQ(st1.state, JobState::Failed);
    EXPECT_NE(st1.error.find("sink.render"), std::string::npos);

    const JobStatus st2 = service.wait(second);
    EXPECT_EQ(st2.state, JobState::Finished);
    EXPECT_TRUE(
        fs::exists(out / "b" / "zzflt_artifact" / "result.json"));
}

TEST(FaultService, DeadlineExceededEndsLongRunAndItsEventStream)
{
    DisarmGuard guard;
    Service service(Service::Options{/*workers=*/1});

    std::mutex m;
    std::vector<JobEvent> events;
    service.addObserver([&](const JobEvent &event) {
        std::lock_guard<std::mutex> lock(m);
        events.push_back(event);
    });

    JobRequest req;
    req.experiment = "zzflt_slow";
    req.overlay = {{"threads", "1"}};
    req.outDir = tempDir("rp_flt_deadline");
    req.deadlineMs = 150; // the run takes ~1.2 s unconstrained
    const auto id = service.submit(req);

    const JobStatus st = service.wait(id);
    EXPECT_EQ(st.state, JobState::DeadlineExceeded);
    EXPECT_LT(st.elapsedMs, 5000.0);

    std::lock_guard<std::mutex> lock(m);
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.back().type, JobEventType::Finished);
    EXPECT_EQ(events.back().state, JobState::DeadlineExceeded);
}

TEST(FaultService, DeadlineExpiresQueuedJobBeforeItRuns)
{
    DisarmGuard guard;
    g_gate.reset();
    Service service(Service::Options{/*workers=*/1});

    JobRequest blocker;
    blocker.experiment = "zzflt_gate";
    blocker.overlay = {{"threads", "1"}};
    blocker.outDir = tempDir("rp_flt_qdl_gate");
    const auto gate_id = service.submit(blocker);
    g_gate.waitEntered();

    JobRequest queued = artifactRequest(tempDir("rp_flt_qdl"));
    queued.deadlineMs = 100;
    const auto id = service.submit(queued);

    const JobStatus st = service.wait(id);
    EXPECT_EQ(st.state, JobState::DeadlineExceeded);
    EXPECT_EQ(st.attempts, 0); // never ran

    g_gate.open();
    EXPECT_EQ(service.wait(gate_id).state, JobState::Finished);
}

TEST(FaultService, TransientRetrySucceedsByteIdenticalToNoFaultRun)
{
    DisarmGuard guard;
    for (const std::string threads : {"1", "4"}) {
        FaultInjector::instance().disarm();
        const fs::path clean =
            tempDir("rp_flt_retry_clean_t" + threads);
        const fs::path faulted =
            tempDir("rp_flt_retry_faulted_t" + threads);

        Service service(Service::Options{/*workers=*/1});
        EXPECT_EQ(
            service.wait(service.submit(artifactRequest(
                             clean, threads)))
                .state,
            JobState::Finished);

        // One transient mid-run fault (attempt 1's first engine
        // task), then clean: the retry must succeed and rewrite the
        // same bytes.
        FaultInjector::instance().arm(
            7, {spec("core.engine.task", FaultSpec::Kind::Throw,
                     /*transient=*/true, /*count=*/1)});

        std::mutex m;
        std::vector<JobEvent> events;
        const auto observer =
            service.addObserver([&](const JobEvent &event) {
                std::lock_guard<std::mutex> lock(m);
                events.push_back(event);
            });

        JobRequest req = artifactRequest(faulted, threads);
        req.retry.maxAttempts = 3;
        req.retry.backoffBaseMs = 1;
        const JobStatus st = service.wait(service.submit(req));
        service.removeObserver(observer);

        EXPECT_EQ(st.state, JobState::Finished) << st.error;
        EXPECT_EQ(st.attempts, 2);

        bool saw_retrying = false;
        {
            std::lock_guard<std::mutex> lock(m);
            for (const JobEvent &event : events) {
                if (event.type == JobEventType::Retrying) {
                    saw_retrying = true;
                    EXPECT_EQ(event.attempt, 1);
                    EXPECT_GE(event.backoffMs, 1);
                }
            }
        }
        EXPECT_TRUE(saw_retrying);

        for (const char *leaf : {"flt_artifact.csv", "result.json"}) {
            const fs::path a = clean / "zzflt_artifact" / leaf;
            const fs::path b = faulted / "zzflt_artifact" / leaf;
            ASSERT_TRUE(fs::exists(a)) << a;
            ASSERT_TRUE(fs::exists(b)) << b;
            EXPECT_EQ(slurp(a), slurp(b))
                << leaf << " differs at threads=" << threads;
        }
    }
}

TEST(FaultService, PreDispatchTransientRetriesButHonorsAttemptCap)
{
    DisarmGuard guard;
    // Every attempt fails transiently: the job retries up to the cap
    // and then reports the last failure.
    FaultInjector::instance().arm(
        1, {spec("service.worker.pre_dispatch",
                 FaultSpec::Kind::Throw, /*transient=*/true)});

    Service service(Service::Options{/*workers=*/1});
    JobRequest req = artifactRequest(tempDir("rp_flt_cap"));
    req.retry.maxAttempts = 3;
    req.retry.backoffBaseMs = 1;
    const JobStatus st = service.wait(service.submit(req));
    EXPECT_EQ(st.state, JobState::Failed);
    EXPECT_EQ(st.attempts, 3);
    EXPECT_NE(st.error.find("service.worker.pre_dispatch"),
              std::string::npos);

    // Non-transient failures never retry.
    FaultInjector::instance().disarm();
    FaultInjector::instance().arm(
        1, {spec("service.worker.pre_dispatch",
                 FaultSpec::Kind::Throw, /*transient=*/false)});
    const JobStatus once = service.wait(service.submit(req));
    EXPECT_EQ(once.state, JobState::Failed);
    EXPECT_EQ(once.attempts, 1);
}

TEST(FaultService, QueueFullAndLoadShedRejectWithReasons)
{
    DisarmGuard guard;
    g_gate.reset();
    Service service(Service::Options{/*workers=*/1,
                                     /*max_queue=*/2});

    JobRequest blocker;
    blocker.experiment = "zzflt_gate";
    blocker.overlay = {{"threads", "1"}};
    blocker.outDir = tempDir("rp_flt_queue_gate");
    const auto gate_id = service.submit(blocker);
    g_gate.waitEntered(); // worker busy; the queue is empty

    const fs::path out = tempDir("rp_flt_queue");
    const auto q1 = service.submit(artifactRequest(out / "1"));
    const auto q2 = service.submit(artifactRequest(out / "2"));

    try {
        service.submit(artifactRequest(out / "3"));
        FAIL() << "expected queue_full";
    } catch (const AdmissionError &e) {
        EXPECT_EQ(e.reason(), "queue_full");
    }

    service.setLoadShed(true);
    EXPECT_TRUE(service.loadShedding());
    try {
        service.submit(artifactRequest(out / "4"));
        FAIL() << "expected load_shed";
    } catch (const AdmissionError &e) {
        EXPECT_EQ(e.reason(), "load_shed");
    }
    service.setLoadShed(false);

    g_gate.open();
    EXPECT_EQ(service.wait(gate_id).state, JobState::Finished);
    EXPECT_EQ(service.wait(q1).state, JobState::Finished);
    EXPECT_EQ(service.wait(q2).state, JobState::Finished);
}

TEST(FaultService, WaitForTimesOutThenCompletes)
{
    DisarmGuard guard;
    g_gate.reset();
    Service service(Service::Options{/*workers=*/1});

    JobRequest blocker;
    blocker.experiment = "zzflt_gate";
    blocker.overlay = {{"threads", "1"}};
    blocker.outDir = tempDir("rp_flt_waitfor");
    const auto id = service.submit(blocker);
    g_gate.waitEntered();

    JobStatus snapshot;
    EXPECT_EQ(service.waitFor(id, 50, snapshot),
              Service::WaitOutcome::TimedOut);
    EXPECT_EQ(snapshot.state, JobState::Running);

    g_gate.open();
    EXPECT_EQ(service.waitFor(id, 10000, snapshot),
              Service::WaitOutcome::Done);
    EXPECT_EQ(snapshot.state, JobState::Finished);
}

#if RP_TEST_HAVE_SOCKETS

// ---- TCP supervision chaos -------------------------------------------

int
freePort()
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd, (const sockaddr *)&addr, sizeof(addr)), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd, (sockaddr *)&addr, &len), 0);
    const int port = ntohs(addr.sin_port);
    ::close(fd);
    return port;
}

/** Line-oriented NDJSON test client. */
class TcpClient
{
  public:
    bool
    connectTo(int port)
    {
        for (int i = 0; i < 100; ++i) {
            fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
            sockaddr_in addr{};
            addr.sin_family = AF_INET;
            addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
            addr.sin_port = htons(std::uint16_t(port));
            if (::connect(fd_, (const sockaddr *)&addr,
                          sizeof(addr)) == 0)
                return true;
            ::close(fd_);
            fd_ = -1;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        }
        return false;
    }

    void
    sendLine(const std::string &line)
    {
        const std::string framed = line + "\n";
#if defined(MSG_NOSIGNAL)
        (void)::send(fd_, framed.data(), framed.size(), MSG_NOSIGNAL);
#else
        (void)::write(fd_, framed.data(), framed.size());
#endif
    }

    /** False on EOF (which sets sawEof_) or timeout. */
    bool
    readLine(std::string &out, int timeout_ms = 20000)
    {
        for (;;) {
            const auto nl = buf_.find('\n');
            if (nl != std::string::npos) {
                out = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return true;
            }
            pollfd pfd{};
            pfd.fd = fd_;
            pfd.events = POLLIN;
            if (::poll(&pfd, 1, timeout_ms) <= 0)
                return false;
            char tmp[4096];
            const ssize_t n = ::read(fd_, tmp, sizeof(tmp));
            sawEof_ = n == 0;
            if (n <= 0)
                return false;
            buf_.append(tmp, std::size_t(n));
        }
    }

    /** Next non-event line (responses interleave with the stream). */
    bool
    readResponse(JsonValue &out, int timeout_ms = 20000)
    {
        std::string line;
        while (readLine(line, timeout_ms)) {
            JsonValue v = parseJson(line);
            if (!v.find("event")) {
                out = std::move(v);
                return true;
            }
        }
        return false;
    }

    void
    closeNow()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
    }

    ~TcpClient() { closeNow(); }

    int fd_ = -1;
    std::string buf_;
    bool sawEof_ = false;
};

struct ServerHandle
{
    std::thread thread;
    std::shared_ptr<int> exitCode =
        std::make_shared<int>(-1); // stable across handle moves

    int
    join()
    {
        thread.join();
        return *exitCode;
    }
};

ServerHandle
startServer(Service &service, const ServeOptions &opts,
            std::ostream &log)
{
    ServerHandle handle;
    auto code = handle.exitCode;
    handle.thread = std::thread([&service, opts, &log, code] {
        *code = serveTcp(service, opts, log);
    });
    return handle;
}

std::string
submitLine(const std::string &experiment, const fs::path &out,
           const std::string &extra = "")
{
    return "{\"op\":\"submit\",\"experiment\":\"" + experiment +
           "\",\"config\":{\"threads\":\"1\"},\"out\":\"" +
           out.string() + "\"" + extra + "}";
}

TEST(FaultTcp, ConcurrentSessionsSeeOnlyTheirOwnEvents)
{
    DisarmGuard guard;
    Service service(Service::Options{/*workers=*/2,
                                     /*max_queue=*/16});
    ServeOptions opts;
    opts.port = freePort();
    std::ostringstream log;
    ServerHandle server = startServer(service, opts, log);

    TcpClient a, b;
    ASSERT_TRUE(a.connectTo(opts.port));
    ASSERT_TRUE(b.connectTo(opts.port));

    const fs::path out = tempDir("rp_flt_tcp_iso");
    a.sendLine(submitLine("zzflt_artifact", out / "a"));
    b.sendLine(submitLine("zzflt_artifact", out / "b"));

    JsonValue ra, rb;
    ASSERT_TRUE(a.readResponse(ra));
    ASSERT_TRUE(b.readResponse(rb));
    ASSERT_TRUE(ra.find("ok")->boolean) << ra.find("error")->text;
    ASSERT_TRUE(rb.find("ok")->boolean) << rb.find("error")->text;
    const std::string job_a = ra.find("job")->text;
    const std::string job_b = rb.find("job")->text;
    EXPECT_NE(job_a, job_b);

    // Drain each session's event stream to its job's finished line;
    // every event a session sees must belong to its own job.
    auto drainEvents = [](TcpClient &client, const std::string &job) {
        std::string line;
        bool finished = false;
        while (!finished && client.readLine(line)) {
            JsonValue v = parseJson(line);
            const JsonValue *event = v.find("event");
            if (!event)
                continue;
            EXPECT_EQ(v.find("job")->text, job)
                << "cross-session event leak: " << line;
            finished = event->text == "finished";
        }
        EXPECT_TRUE(finished);
    };
    drainEvents(a, job_a);
    drainEvents(b, job_b);

    // wait on the other session's job id still works (status is
    // global; only the *stream* is scoped).
    b.sendLine("{\"op\":\"wait\",\"job\":" + job_a +
               ",\"timeout_ms\":10000}");
    JsonValue wb;
    ASSERT_TRUE(b.readResponse(wb));
    EXPECT_TRUE(wb.find("ok")->boolean);
    EXPECT_EQ(wb.find("outcome")->text, "done");
    EXPECT_EQ(wb.find("state")->text, "finished");

    a.sendLine("{\"op\":\"shutdown\"}");
    EXPECT_EQ(server.join(), 0);
}

TEST(FaultTcp, SessionInflightCapRejectsWithSessionLimit)
{
    DisarmGuard guard;
    g_gate.reset();
    Service service(Service::Options{/*workers=*/1,
                                     /*max_queue=*/16});
    ServeOptions opts;
    opts.port = freePort();
    opts.sessionMaxInflight = 1;
    std::ostringstream log;
    ServerHandle server = startServer(service, opts, log);

    TcpClient client;
    ASSERT_TRUE(client.connectTo(opts.port));
    const fs::path out = tempDir("rp_flt_tcp_cap");
    client.sendLine(submitLine("zzflt_gate", out / "gate"));
    JsonValue first;
    ASSERT_TRUE(client.readResponse(first));
    ASSERT_TRUE(first.find("ok")->boolean);
    g_gate.waitEntered();

    client.sendLine(submitLine("zzflt_artifact", out / "rejected"));
    JsonValue rejected;
    ASSERT_TRUE(client.readResponse(rejected));
    EXPECT_FALSE(rejected.find("ok")->boolean);
    ASSERT_NE(rejected.find("reason"), nullptr);
    EXPECT_EQ(rejected.find("reason")->text, "session_limit");

    g_gate.open();
    client.sendLine("{\"op\":\"wait\",\"job\":" +
                    first.find("job")->text +
                    ",\"timeout_ms\":10000}");
    JsonValue waited;
    ASSERT_TRUE(client.readResponse(waited));
    EXPECT_EQ(waited.find("outcome")->text, "done");

    client.sendLine("{\"op\":\"shutdown\"}");
    EXPECT_EQ(server.join(), 0);
}

TEST(FaultTcp, SocketWriteFaultDropsSessionButNotInFlightJobs)
{
    DisarmGuard guard;
    g_gate.reset();
    Service service(Service::Options{/*workers=*/1,
                                     /*max_queue=*/16});
    ServeOptions opts;
    opts.port = freePort();
    std::ostringstream log;
    ServerHandle server = startServer(service, opts, log);

    TcpClient victim;
    ASSERT_TRUE(victim.connectTo(opts.port));
    const fs::path out = tempDir("rp_flt_tcp_epipe");
    victim.sendLine(submitLine("zzflt_gate", out / "gate"));
    JsonValue submitted;
    ASSERT_TRUE(victim.readResponse(submitted));
    ASSERT_TRUE(submitted.find("ok")->boolean);
    const std::string job = submitted.find("job")->text;
    g_gate.waitEntered(); // job is running on its worker

    // Every subsequent socket write on the victim's session fails
    // with EPIPE: its next response cannot be delivered, so the
    // session winds down — without touching the in-flight job.
    FaultSpec epipe =
        spec("protocol.socket.write", FaultSpec::Kind::Errno);
    epipe.errnoValue = EPIPE;
    FaultInjector::instance().arm(1, {epipe});

    victim.sendLine("{\"op\":\"status\"}");
    // Event lines written before the fault was armed may still drain
    // out of the socket buffer; the status *response* cannot (its
    // write faults), so the stream must end without one.
    std::string line;
    bool saw_response = false;
    for (int i = 0; i < 50 && victim.readLine(line, 3000); ++i) {
        if (parseJson(line).find("ok"))
            saw_response = true;
    }
    EXPECT_FALSE(saw_response);
    victim.closeNow();

    FaultInjector::instance().disarm();
    g_gate.open();

    // The job survived its session: a fresh session can await it.
    TcpClient watcher;
    ASSERT_TRUE(watcher.connectTo(opts.port));
    watcher.sendLine("{\"op\":\"wait\",\"job\":" + job +
                     ",\"timeout_ms\":10000}");
    JsonValue waited;
    ASSERT_TRUE(watcher.readResponse(waited));
    EXPECT_TRUE(waited.find("ok")->boolean);
    EXPECT_EQ(waited.find("outcome")->text, "done");
    EXPECT_EQ(waited.find("state")->text, "finished");

    watcher.sendLine("{\"op\":\"shutdown\"}");
    EXPECT_EQ(server.join(), 0);
}

TEST(FaultTcp, AcceptRetriesAfterInjectedFdExhaustion)
{
    DisarmGuard guard;
    Service service(Service::Options{/*workers=*/1});
    ServeOptions opts;
    opts.port = freePort();
    std::ostringstream log;

    // The first two accept attempts see EMFILE; the loop must back
    // off and still accept the pending connection afterwards.
    FaultSpec emfile = spec("protocol.accept", FaultSpec::Kind::Errno,
                            /*transient=*/false, /*count=*/2);
    emfile.errnoValue = EMFILE;
    FaultInjector::instance().arm(1, {emfile});

    ServerHandle server = startServer(service, opts, log);
    TcpClient client;
    ASSERT_TRUE(client.connectTo(opts.port));
    client.sendLine("{\"op\":\"list\",\"glob\":\"zzflt_*\"}");
    JsonValue listing;
    ASSERT_TRUE(client.readResponse(listing));
    EXPECT_TRUE(listing.find("ok")->boolean);

    EXPECT_NE(log.str().find("out of descriptors"),
              std::string::npos);

    client.sendLine("{\"op\":\"shutdown\"}");
    EXPECT_EQ(server.join(), 0);
}

TEST(FaultTcp, IdleSessionTimesOutWithoutKillingItsJobs)
{
    DisarmGuard guard;
    g_gate.reset();
    Service service(Service::Options{/*workers=*/1});
    ServeOptions opts;
    opts.port = freePort();
    // The idle budget runs from accept: it needs headroom over
    // scheduler jitter before the submit line arrives.
    opts.idleTimeoutMs = 1000;
    std::ostringstream log;
    ServerHandle server = startServer(service, opts, log);

    const std::string submit =
        submitLine("zzflt_gate", tempDir("rp_flt_tcp_idle") / "gate");
    TcpClient idler;
    ASSERT_TRUE(idler.connectTo(opts.port));
    idler.sendLine(submit);
    JsonValue submitted;
    ASSERT_TRUE(idler.readResponse(submitted));
    const std::string job = submitted.find("job")->text;
    g_gate.waitEntered();

    // Silent past the idle budget: the server disconnects us (event
    // lines of the gated job may arrive first).
    std::string line;
    while (idler.readLine(line, 10000)) {
    }
    EXPECT_TRUE(idler.sawEof_);
    idler.closeNow();

    g_gate.open();
    TcpClient watcher;
    ASSERT_TRUE(watcher.connectTo(opts.port));
    watcher.sendLine("{\"op\":\"wait\",\"job\":" + job +
                     ",\"timeout_ms\":10000}");
    JsonValue waited;
    ASSERT_TRUE(watcher.readResponse(waited));
    EXPECT_EQ(waited.find("state")->text, "finished");

    watcher.sendLine("{\"op\":\"shutdown\"}");
    EXPECT_EQ(server.join(), 0);
}

TEST(FaultTcp, SigtermDrainsIdleServerWithExitCode3)
{
    DisarmGuard guard;
    Service service(Service::Options{/*workers=*/1});
    ServeOptions opts;
    opts.port = freePort();
    opts.graceMs = 2000;
    std::ostringstream log;
    ServerHandle server = startServer(service, opts, log);

    // Let the accept loop install its handlers and start polling.
    TcpClient probe;
    ASSERT_TRUE(probe.connectTo(opts.port));
    probe.closeNow();

    ::raise(SIGTERM);
    EXPECT_EQ(server.join(), 3); // drained within grace
}

TEST(FaultTcp, SigtermGraceExpiryCancelsAndExits4)
{
    DisarmGuard guard;
    Service service(Service::Options{/*workers=*/1});
    ServeOptions opts;
    opts.port = freePort();
    opts.graceMs = 100; // far less than the slow job needs
    std::ostringstream log;
    ServerHandle server = startServer(service, opts, log);

    TcpClient client;
    ASSERT_TRUE(client.connectTo(opts.port));
    client.sendLine(
        submitLine("zzflt_slow", tempDir("rp_flt_tcp_term")));
    JsonValue submitted;
    ASSERT_TRUE(client.readResponse(submitted));
    ASSERT_TRUE(submitted.find("ok")->boolean);

    // Give the scheduler a beat to start the job, then signal.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ::raise(SIGTERM);
    EXPECT_EQ(server.join(), 4); // grace expired: cancelled

    // The slow job was cancelled, not completed.
    bool saw_terminal = false;
    for (const JobStatus &st : service.jobs()) {
        if (st.experiment == "zzflt_slow") {
            saw_terminal = st.state == JobState::Cancelled;
        }
    }
    EXPECT_TRUE(saw_terminal);
}

#endif // RP_TEST_HAVE_SOCKETS

} // namespace
} // namespace rp::api
