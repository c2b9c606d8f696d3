/**
 * @file
 * Chaos suite: the deterministic fault-injection harness driving the
 * service/protocol robustness stack.  Every scenario arms
 * core::FaultInjector (programmatically or through the
 * RP_FAULT_POINTS environment grammar) and asserts the documented
 * degradation: a worker exception fails its job without wedging the
 * queue; a sink failure degrades only its job; a failed output ends
 * a serve session while its submitted jobs still finish; a deadline
 * ends a long run as deadline_exceeded with a terminated event
 * stream; a failed job resubmitted reproduces a no-fault run byte
 * for byte; a full queue rejects with a machine-readable reason;
 * SIGTERM drains `serve` with the documented exit codes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "api/context.h"
#include "api/protocol.h"
#include "api/service.h"
#include "core/fault.h"

#include <unistd.h>

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
spec(const std::string &point, int count = -1, int skip = 0)
{
    FaultSpec s;
    s.point = point;
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

/** Records the event types of every job's stream, in order. */
class EventLog
{
  public:
    explicit EventLog(Service &service)
        : service_(service),
          handle_(service.addObserver([this](const JobEvent &event) {
              std::lock_guard<std::mutex> lock(m_);
              types_[event.job].push_back(event.type);
          }))
    {
    }

    ~EventLog() { service_.removeObserver(handle_); }

    EventLog(const EventLog &) = delete;
    EventLog &operator=(const EventLog &) = delete;

    std::vector<JobEventType>
    of(std::uint64_t job)
    {
        std::lock_guard<std::mutex> lock(m_);
        return types_[job];
    }

  private:
    Service &service_;
    std::mutex m_;
    std::map<std::uint64_t, std::vector<JobEventType>> types_;
    std::uint64_t handle_;
};

/** The whole stream of a job that ended before its Started event. */
const std::vector<JobEventType> kNeverStarted = {JobEventType::Queued,
                                                 JobEventType::Finished};

// ---- injector unit behavior ------------------------------------------

TEST(FaultInjector, RejectsUnknownPointsAndBadSpecs)
{
    DisarmGuard guard;
    auto &fi = FaultInjector::instance();
    EXPECT_THROW(fi.arm({spec("no.such.point")}),
                 std::invalid_argument);
    EXPECT_THROW(
        fi.arm({spec("sink.render", /*count=*/-1, /*skip=*/-1)}),
        std::invalid_argument);
    EXPECT_FALSE(fi.armed());
}

TEST(FaultInjector, EnvGrammarArmsSkipCountPerPoint)
{
    DisarmGuard guard;
    auto &fi = FaultInjector::instance();
    ::setenv("RP_FAULT_POINTS",
             " sink.render = throw x2 @1 , "
             "persist.snapshot.write = throw ",
             1);
    fi.armFromEnv();
    ::unsetenv("RP_FAULT_POINTS");
    ASSERT_TRUE(fi.armed());

    // skip=1: first hit passes, then two throws, then the count is
    // exhausted and the point goes quiet.
    EXPECT_NO_THROW(core::faultPoint("sink.render"));
    EXPECT_THROW(core::faultPoint("sink.render"), core::InjectedFault);
    EXPECT_THROW(core::faultPoint("sink.render"), core::InjectedFault);
    EXPECT_NO_THROW(core::faultPoint("sink.render"));

    // A spec without suffixes fires on every hit of its own point.
    EXPECT_THROW(core::faultPoint("persist.snapshot.write"),
                 core::InjectedFault);
    EXPECT_THROW(core::faultPoint("persist.snapshot.write"),
                 core::InjectedFault);

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
    // The retired kinds (transient, delay, errno), the retired
    // probability suffix (~prob) and the retired service.submit.admit
    // point are rejected like any unknown one, and so is a count or
    // skip that is not 1 to 9 digits.
    for (const char *bad :
         {"sink.render", "sink.render=frobnicate",
          "zz.unknown=throw", "sink.render=errno:EIO",
          "sink.render=delay:abc", "sink.render=throw~nope",
          "sink.render=throw~0.5", "sink.render=throw x1~0.5",
          "sink.render=transient", "sink.render=delay:5",
          "service.submit.admit=throw", "sink.render=throw x",
          "sink.render=throw x-1", "sink.render=throw @1x",
          "sink.render=throw x1234567890"}) {
        ::setenv("RP_FAULT_POINTS", bad, 1);
        EXPECT_THROW(fi.armFromEnv(), std::invalid_argument) << bad;
    }
    ::unsetenv("RP_FAULT_POINTS");
    EXPECT_FALSE(fi.armed());
}

// ---- service chaos ---------------------------------------------------

TEST(FaultService, WorkerExceptionFailsJobWithoutWedgingQueue)
{
    DisarmGuard guard;
    const fs::path out = tempDir("rp_flt_worker");
    FaultInjector::instance().arm(
        {spec("core.engine.task", /*count=*/1)});

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
        {spec("sink.render", /*count=*/1)});

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
    EventLog log(service);

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
    EXPECT_EQ(log.of(id), kNeverStarted); // no Started: never ran

    g_gate.open();
    EXPECT_EQ(service.wait(gate_id).state, JobState::Finished);
}

TEST(FaultService, FailedJobResubmittedIsByteIdenticalToNoFaultRun)
{
    DisarmGuard guard;
    auto listing = [](const fs::path &dir) {
        std::set<std::string> names;
        for (const auto &entry : fs::directory_iterator(dir))
            names.insert(entry.path().filename().string());
        return names;
    };
    for (const std::string threads : {"1", "4"}) {
        FaultInjector::instance().disarm();
        const fs::path clean =
            tempDir("rp_flt_resubmit_clean_t" + threads);
        const fs::path faulted =
            tempDir("rp_flt_resubmit_faulted_t" + threads);

        Service service(Service::Options{/*workers=*/1});
        EXPECT_EQ(
            service.wait(service.submit(artifactRequest(
                             clean, threads)))
                .state,
            JobState::Finished);

        // One mid-run fault (the job's first engine task): a job runs
        // once, so it fails, naming the point.
        FaultInjector::instance().arm(
            {spec("core.engine.task", /*count=*/1)});
        const JobRequest req = artifactRequest(faulted, threads);
        const JobStatus failed = service.wait(service.submit(req));
        EXPECT_EQ(failed.state, JobState::Failed);
        EXPECT_NE(failed.error.find("core.engine.task"),
                  std::string::npos)
            << failed.error;

        // The fault is spent: the same request resubmitted to the
        // same out dir writes the clean run's bytes.
        const JobStatus again = service.wait(service.submit(req));
        EXPECT_EQ(again.state, JobState::Finished) << again.error;

        const fs::path a_dir = clean / "zzflt_artifact";
        const fs::path b_dir = faulted / "zzflt_artifact";
        EXPECT_EQ(listing(a_dir), listing(b_dir));
        for (const char *leaf : {"flt_artifact.csv", "result.json"}) {
            const fs::path a = a_dir / leaf;
            const fs::path b = b_dir / leaf;
            ASSERT_TRUE(fs::exists(a)) << a;
            ASSERT_TRUE(fs::exists(b)) << b;
            EXPECT_EQ(slurp(a), slurp(b))
                << leaf << " differs at threads=" << threads;
        }
    }
}

TEST(FaultService, PreDispatchFaultFailsJobBeforeItStarts)
{
    DisarmGuard guard;
    // The fault fails the job before it opens its stream: Queued,
    // then Finished(failed), and no Started.
    FaultInjector::instance().arm(
        {spec("service.worker.pre_dispatch", /*count=*/1)});
    Service service(Service::Options{/*workers=*/1});
    EventLog log(service);
    const auto id =
        service.submit(artifactRequest(tempDir("rp_flt_predispatch")));
    const JobStatus st = service.wait(id);
    EXPECT_EQ(st.state, JobState::Failed);
    EXPECT_NE(st.error.find("service.worker.pre_dispatch"),
              std::string::npos)
        << st.error;
    EXPECT_EQ(log.of(id), kNeverStarted);
}

TEST(FaultService, QueueFullRejectsWithReason)
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

// ---- serve over stdio -------------------------------------------------

/**
 * A thread-safe output stream target: the serving threads write
 * lines, the test waits for them.
 */
class LineSink : public std::streambuf
{
  public:
    /** True once the output holds @p needle; false after 20 s. */
    bool
    waitFor(const std::string &needle)
    {
        std::unique_lock<std::mutex> lock(m_);
        return cv_.wait_for(lock, std::chrono::seconds(20), [&] {
            return text_.find(needle) != std::string::npos;
        });
    }

    std::string
    text()
    {
        std::lock_guard<std::mutex> lock(m_);
        return text_;
    }

  protected:
    int_type
    overflow(int_type ch) override
    {
        if (ch != traits_type::eof()) {
            const char c = char(ch);
            xsputn(&c, 1);
        }
        return traits_type::not_eof(ch);
    }

    std::streamsize
    xsputn(const char *data, std::streamsize n) override
    {
        {
            std::lock_guard<std::mutex> lock(m_);
            text_.append(data, std::size_t(n));
        }
        cv_.notify_all();
        return n;
    }

  private:
    std::mutex m_;
    std::condition_variable cv_;
    std::string text_;
};

/** serveFd on its own thread, reading requests from a pipe. */
struct PipeServer
{
    PipeServer(Service &service, int grace_ms)
    {
        EXPECT_EQ(::pipe(fds), 0);
        thread = std::thread([this, &service, grace_ms] {
            code = serveFd(service, fds[0], out, grace_ms);
        });
    }

    ~PipeServer()
    {
        join();
        ::close(fds[0]);
    }

    void
    send(const std::string &line)
    {
        const std::string framed = line + "\n";
        EXPECT_EQ(::write(fds[1], framed.data(), framed.size()),
                  ssize_t(framed.size()));
    }

    /** Close the input (EOF), wait for the server, return its code. */
    int
    join()
    {
        if (fds[1] >= 0) {
            ::close(fds[1]);
            fds[1] = -1;
        }
        if (thread.joinable())
            thread.join();
        return code;
    }

    int fds[2] = {-1, -1};
    LineSink sink;
    std::ostream out{&sink};
    int code = -1;
    std::thread thread;
};

std::string
submitLine(const std::string &experiment, const fs::path &out)
{
    return "{\"op\":\"submit\",\"experiment\":\"" + experiment +
           "\",\"config\":{\"threads\":\"1\"},\"out\":\"" +
           out.string() + "\"}";
}

TEST(FaultServe, WaitOpAnswersDoneOrTimeout)
{
    DisarmGuard guard;
    g_gate.reset();
    Service service(Service::Options{/*workers=*/1});
    const fs::path out = tempDir("rp_flt_serve_wait");
    std::istringstream in(
        submitLine("zzflt_artifact", out / "a") + "\n" +
        "{\"op\":\"wait\",\"job\":1,\"timeout_ms\":10000}\n" +
        submitLine("zzflt_gate", out / "gate") + "\n" +
        "{\"op\":\"wait\",\"job\":2,\"timeout_ms\":50}\n" +
        "{\"op\":\"wait\",\"job\":2,\"timeout_ms\":-1}\n");
    LineSink sink;
    std::ostream os(&sink);
    // The gated job ends only after its timed-out wait was answered,
    // so that answer cannot race the job's completion.
    std::thread opener([&sink] {
        sink.waitFor("\"outcome\":\"timeout\"");
        g_gate.open();
    });
    EXPECT_EQ(serveSession(service, in, os), 0);
    opener.join();

    std::vector<JsonValue> waits;
    std::istringstream lines(sink.text());
    std::string line;
    while (std::getline(lines, line)) {
        JsonValue v = parseJson(line);
        if (const JsonValue *op = v.find("op"); op && op->text == "wait")
            waits.push_back(std::move(v));
    }
    ASSERT_EQ(waits.size(), 3u);
    EXPECT_TRUE(waits[0].find("ok")->boolean);
    EXPECT_EQ(waits[0].find("outcome")->text, "done");
    EXPECT_EQ(waits[0].find("state")->text, "finished");
    EXPECT_TRUE(waits[1].find("ok")->boolean);
    EXPECT_EQ(waits[1].find("outcome")->text, "timeout");
    EXPECT_FALSE(waits[2].find("ok")->boolean);
    EXPECT_NE(waits[2].find("error")->text.find("timeout_ms"),
              std::string::npos);
}

/** Accepts one line of output, then fails every write. */
class OneLineBuf : public std::streambuf
{
  protected:
    int_type
    overflow(int_type ch) override
    {
        if (ch == traits_type::eof())
            return traits_type::not_eof(ch);
        const char c = char(ch);
        return xsputn(&c, 1) == 1 ? ch : traits_type::eof();
    }

    std::streamsize
    xsputn(const char *data, std::streamsize n) override
    {
        if (closed_)
            return 0;
        text_.append(data, std::size_t(n));
        closed_ = text_.find('\n') != std::string::npos;
        return n;
    }

  private:
    std::string text_;
    bool closed_ = false;
};

TEST(FaultServe, OutputFailureEndsSessionButJobsFinish)
{
    DisarmGuard guard;
    Service service(Service::Options{/*workers=*/1});
    const fs::path out = tempDir("rp_flt_serve_out");
    std::istringstream in(submitLine("zzflt_artifact", out) + "\n" +
                          "{\"op\":\"status\"}\n"
                          "{\"op\":\"status\"}\n");
    OneLineBuf buf;
    std::ostream os(&buf);
    EXPECT_EQ(serveSession(service, in, os), 1);
    EXPECT_TRUE(fs::exists(out / "zzflt_artifact" / "result.json"));
    ASSERT_EQ(service.jobs().size(), 1u);
    EXPECT_EQ(service.jobs().front().state, JobState::Finished);
}

TEST(FaultServe, SigtermDrainsIdleServerWithExitCode3)
{
    DisarmGuard guard;
    Service service(Service::Options{/*workers=*/1});
    PipeServer server(service, /*grace_ms=*/2000);

    // An answered request proves the handlers are installed.
    server.send("{\"op\":\"list\",\"glob\":\"zzflt_*\"}");
    ASSERT_TRUE(server.sink.waitFor("\"op\":\"list\""));

    ::raise(SIGTERM);
    // Reading has stopped: a request sent after the signal is never
    // served.
    server.send(submitLine("zzflt_artifact", tempDir("rp_flt_serve_idle")));
    EXPECT_EQ(server.join(), 3); // drained within grace
    EXPECT_TRUE(service.jobs().empty());
}

TEST(FaultServe, SigtermGraceExpiryCancelsAndExits4)
{
    DisarmGuard guard;
    Service service(Service::Options{/*workers=*/1});
    PipeServer server(service, /*grace_ms=*/100); // far less than the
                                                  // slow job needs
    server.send(submitLine("zzflt_slow", tempDir("rp_flt_serve_term")));
    ASSERT_TRUE(server.sink.waitFor("\"event\":\"started\""));

    ::raise(SIGTERM);
    EXPECT_EQ(server.join(), 4); // grace expired: cancelled

    // The slow job was cancelled, not completed, and its terminal
    // event was written before serveFd returned.
    bool saw_terminal = false;
    for (const JobStatus &st : service.jobs()) {
        if (st.experiment == "zzflt_slow") {
            saw_terminal = st.state == JobState::Cancelled;
        }
    }
    EXPECT_TRUE(saw_terminal);
    EXPECT_NE(server.sink.text().find("\"state\":\"cancelled\""),
              std::string::npos);
}

} // namespace
} // namespace rp::api
