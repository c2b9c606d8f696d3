#include "api/protocol.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <deque>
#include <istream>
#include <ostream>
#include <thread>

#include "api/context.h"
#include "api/service.h"
#include "core/fault.h"
#include "core/thread_annotations.h"
#include "persist/cache.h"

#if defined(__unix__) || defined(__APPLE__)
#define ROWPRESS_HAVE_SOCKETS 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace rp::api {

// ---- experiment listing ----------------------------------------------

JsonValue
experimentListJson(const std::vector<std::string> &patterns)
{
    JsonValue arr = JsonValue::array();
    for (const Experiment *exp : ExperimentRegistry::instance().match(
             patterns.empty() ? std::vector<std::string>{"*"}
                              : patterns)) {
        JsonValue e = JsonValue::object();
        e.add("id", JsonValue::string(exp->info.id));
        e.add("category", JsonValue::string(exp->info.category));
        e.add("title", JsonValue::string(exp->info.title));
        e.add("paper_ref", JsonValue::string(exp->info.paperRef));

        ConfigSchema schema = baseSchema();
        if (exp->declareOptions)
            exp->declareOptions(schema);
        JsonValue opts = JsonValue::array();
        for (const OptionSpec &spec : schema.options()) {
            JsonValue o = JsonValue::object();
            o.add("key", JsonValue::string(spec.key));
            const char *type = "string";
            switch (spec.type) {
            case OptionType::Int: type = "int"; break;
            case OptionType::Double: type = "double"; break;
            case OptionType::Bool: type = "bool"; break;
            case OptionType::String: type = "string"; break;
            }
            o.add("type", JsonValue::string(type));
            o.add("default", JsonValue::string(spec.defaultValue));
            if (!spec.envVar.empty())
                o.add("env", JsonValue::string(spec.envVar));
            o.add("help", JsonValue::string(spec.help));
            if (spec.hasMin)
                o.add("min", JsonValue::number(spec.minValue));
            opts.push(std::move(o));
        }
        e.add("options", std::move(opts));
        arr.push(std::move(e));
    }

    JsonValue root = JsonValue::object();
    root.add("experiments", std::move(arr));
    return root;
}

// ---- events ----------------------------------------------------------

std::string
jobEventLine(const JobEvent &event)
{
    JsonValue line = JsonValue::object();
    auto stamp = [&line, &event](const char *name) {
        line.add("event", JsonValue::string(name));
        line.add("job", JsonValue::number((long long)event.job));
        line.add("experiment", JsonValue::string(event.experiment));
    };
    switch (event.type) {
    case JobEventType::Queued:
        stamp("queued");
        break;
    case JobEventType::Started: {
        stamp("started");
        JsonValue config = JsonValue::object();
        for (const ConfigValue &kv : event.config) {
            JsonValue entry = JsonValue::object();
            entry.add("value", JsonValue::string(kv.value));
            entry.add("origin", JsonValue::string(kv.origin));
            config.add(kv.key, std::move(entry));
        }
        line.add("config", std::move(config));
        break;
    }
    case JobEventType::Progress:
        stamp("progress");
        line.add("done", JsonValue::number((long long)event.done));
        line.add("total", JsonValue::number((long long)event.total));
        break;
    case JobEventType::Dataset:
        stamp("dataset");
        if (event.dataset) {
            line.add("name", JsonValue::string(event.dataset->name));
            line.add("rows", JsonValue::number(
                                 (long long)event.dataset->rows.size()));
        }
        break;
    case JobEventType::Note:
        stamp("note");
        line.add("text", JsonValue::string(event.text));
        break;
    case JobEventType::RawCsv:
        // Name only: rendering the body just to report its size
        // would force the artifact to be built even for consumers
        // that never persist it.
        stamp("artifact");
        line.add("name", JsonValue::string(event.name));
        break;
    case JobEventType::Timing:
        stamp("timing");
        line.add("elapsed_ms", JsonValue::number(event.elapsedMs));
        break;
    case JobEventType::Retrying:
        stamp("retrying");
        line.add("attempt",
                 JsonValue::number((long long)event.attempt));
        line.add("backoff_ms",
                 JsonValue::number((long long)event.backoffMs));
        if (!event.error.empty())
            line.add("error", JsonValue::string(event.error));
        break;
    case JobEventType::Finished:
        stamp("finished");
        line.add("state",
                 JsonValue::string(jobStateName(event.state)));
        if (!event.error.empty())
            line.add("error", JsonValue::string(event.error));
        line.add("elapsed_ms", JsonValue::number(event.elapsedMs));
        break;
    }
    return toJson(line);
}

// ---- serve session ---------------------------------------------------

namespace {

/** One NDJSON client session over arbitrary streams. */
class ProtocolSession
{
  public:
    /**
     * @p client_id scopes the event stream: nonzero ids (one per TCP
     * session) see only their own jobs' events; 0 (the stdio
     * session, necessarily alone in its process) sees everything.
     * @p max_inflight bounds this session's non-terminal jobs
     * (0 = uncapped).
     */
    ProtocolSession(Service &service, std::istream &in,
                    std::ostream &out, std::uint64_t client_id = 0,
                    int max_inflight = 0)
        : service_(service), in_(in), out_(out), clientId_(client_id),
          maxInflight_(max_inflight)
    {
    }

    /** Returns true when the client requested service shutdown. */
    bool
    run(bool eof_is_shutdown)
    {
        // Events are enqueued by the service's dispatch path and
        // written by a dedicated writer thread: the observer must
        // never block on client I/O, or one client that stops
        // reading its socket would stall every job in the service
        // (event dispatch is serialized process-wide).
        std::thread writer([this] { writerLoop(); });
        const std::uint64_t observer =
            service_.addObserver([this](const JobEvent &event) {
                if (clientId_ != 0 && event.client != clientId_)
                    return; // another session's job
                if (event.type == JobEventType::Finished)
                    --inflight_; // balances opSubmit's increment
                enqueue(jobEventLine(event),
                        /*critical=*/event.type ==
                            JobEventType::Finished);
            });

        bool shutdown_requested = false;
        bool force = false;
        std::string text;
        while (std::getline(in_, text)) {
            if (text.empty() ||
                text.find_first_not_of(" \t\r") == std::string::npos)
                continue;
            JsonValue response = JsonValue::object();
            if (handle(text, response, &shutdown_requested, &force))
                writeLine(toJson(response));
            if (shutdown_requested)
                break;
            // A session whose responses can no longer be delivered
            // (peer hung up mid-write) is dead: stop consuming its
            // requests.  Its in-flight jobs keep running — only the
            // event stream ends.
            if (outFailed())
                break;
        }

        if (shutdown_requested || eof_is_shutdown) {
            // Drain before detaching so every submitted job's event
            // stream (and artifacts) completes — `printf ... | serve`
            // runs everything it was fed.  A forced shutdown cancels
            // instead.
            if (force)
                service_.shutdownNow();
            else
                service_.shutdown();
        }
        service_.removeObserver(observer);
        // No more producers: flush what is queued, then stop.
        {
            core::LockGuard lock(queueMutex_);
            writerStop_ = true;
        }
        queueCv_.notify_all();
        writer.join();
        return shutdown_requested;
    }

    bool
    failed() const
    {
        // The writer thread is joined by the time callers ask, but
        // take the stream lock anyway — it documents that out_ is
        // shared with the writer and keeps the read race-free even
        // if a caller ever probes mid-session.
        core::LockGuard lock(outMutex_);
        return out_.fail();
    }

  private:
    /** Event lines a slow client may buffer before we drop (~a few
     *  MB worst case); overflow is reported on the stream once the
     *  client catches up, so a reader can tell the stream has gaps. */
    static constexpr std::size_t kMaxQueuedEvents = 65536;

    void
    enqueue(std::string line, bool critical)
    {
        {
            core::LockGuard lock(queueMutex_);
            // Terminal (finished) events are exempt from the drop:
            // clients correlate on them (the documented pattern), so
            // a job's outcome must survive an overflow even if its
            // progress/dataset lines did not.  The exemption is
            // bounded by jobs in flight, not event volume.
            if (!critical && queue_.size() >= kMaxQueuedEvents) {
                ++dropped_;
                return;
            }
            queue_.push_back(std::move(line));
        }
        queueCv_.notify_one();
    }

    void
    writerLoop()
    {
        for (;;) {
            std::string line;
            std::uint64_t dropped = 0;
            {
                core::UniqueLock lock(queueMutex_);
                while (!writerStop_ && queue_.empty() &&
                       dropped_ == 0)
                    queueCv_.wait(lock);
                if (!queue_.empty()) {
                    line = std::move(queue_.front());
                    queue_.pop_front();
                } else if (dropped_ != 0) {
                    dropped = dropped_;
                    dropped_ = 0;
                } else {
                    return; // stop requested and fully drained
                }
            }
            if (dropped != 0) {
                JsonValue overflow = JsonValue::object();
                overflow.add("event", JsonValue::string("overflow"));
                overflow.add("dropped",
                             JsonValue::number((long long)dropped));
                writeLine(toJson(overflow));
            } else {
                writeLine(line);
            }
        }
    }

    void
    writeLine(const std::string &line)
    {
        core::LockGuard lock(outMutex_);
        out_ << line << "\n";
        out_.flush();
    }

    /** Stream-state read under the same lock the writer writes under
     *  (the request loop and the writer thread share out_). */
    bool
    outFailed()
    {
        core::LockGuard lock(outMutex_);
        return out_.fail();
    }

    /** Returns false when no response should be written (never today). */
    bool
    handle(const std::string &text, JsonValue &response,
           bool *shutdown_requested, bool *force)
    {
        std::string op;
        JsonValue tag;
        bool has_tag = false;
        try {
            const JsonValue request = parseJson(text);
            if (request.kind != JsonValue::Kind::Object)
                throw ConfigError("protocol: request is not an object");
            if (const JsonValue *t = request.find("tag")) {
                tag = *t;
                has_tag = true;
            }
            const JsonValue *opv = request.find("op");
            if (!opv || opv->kind != JsonValue::Kind::String)
                throw ConfigError(
                    "protocol: request needs a string \"op\"");
            op = opv->text;
            response.add("ok", JsonValue::makeBool(true));
            response.add("op", JsonValue::string(op));
            if (has_tag)
                response.add("tag", tag);

            if (op == "submit") {
                rejectUnknownMembers(request,
                                     {"op", "tag", "experiment",
                                      "config", "formats", "out",
                                      "time", "deadline_ms",
                                      "max_attempts", "backoff_ms"});
                opSubmit(request, response);
            } else if (op == "status") {
                rejectUnknownMembers(request, {"op", "tag", "job"});
                opStatus(request, response);
            } else if (op == "wait") {
                rejectUnknownMembers(request,
                                     {"op", "tag", "job",
                                      "timeout_ms"});
                opWait(request, response);
            } else if (op == "list") {
                rejectUnknownMembers(request, {"op", "tag", "glob"});
                opList(request, response);
            } else if (op == "cancel") {
                rejectUnknownMembers(request, {"op", "tag", "job"});
                opCancel(request, response);
            } else if (op == "cache") {
                rejectUnknownMembers(request, {"op", "tag", "evict"});
                opCache(request, response);
            } else if (op == "shed") {
                rejectUnknownMembers(request, {"op", "tag", "on"});
                opShed(request, response);
            } else if (op == "shutdown") {
                rejectUnknownMembers(request, {"op", "tag", "force"});
                *force = boolMember(request, "force");
                *shutdown_requested = true;
            } else {
                throw ConfigError("protocol: unknown op '" + op + "'");
            }
        } catch (const AdmissionError &e) {
            // Policy rejections carry a machine-readable reason so a
            // client knows to back off and retry, not fix its request.
            response = JsonValue::object();
            response.add("ok", JsonValue::makeBool(false));
            if (!op.empty())
                response.add("op", JsonValue::string(op));
            if (has_tag)
                response.add("tag", tag);
            response.add("error", JsonValue::string(e.what()));
            response.add("reason", JsonValue::string(e.reason()));
        } catch (const std::exception &e) {
            response = JsonValue::object();
            response.add("ok", JsonValue::makeBool(false));
            if (!op.empty())
                response.add("op", JsonValue::string(op));
            // Echo the tag on errors too: correlation matters most
            // when a pipelined request fails.
            if (has_tag)
                response.add("tag", tag);
            response.add("error", JsonValue::string(e.what()));
        }
        return true;
    }

    /**
     * Boolean member or absent; any other kind (a "1" instead of
     * true) errors rather than silently meaning false.
     */
    static bool
    boolMember(const JsonValue &request, const char *key)
    {
        const JsonValue *v = request.find(key);
        if (!v)
            return false;
        if (v->kind != JsonValue::Kind::Bool)
            throw ConfigError(std::string("protocol: \"") + key +
                              "\" must be true or false");
        return v->boolean;
    }

    /** Integer (or integer-text) member into @p out, when present. */
    static void
    intMember(const JsonValue &request, const char *key, int *out)
    {
        const std::string what = std::string("protocol: \"") + key + "\"";
        if (const JsonValue *v = request.find(key))
            *out = int(parseInt(v->scalarText(what), what));
    }

    /**
     * The same hard unknown-key rejection the Config layer applies:
     * a typo'd member ("format" for "formats", "outdir" for "out")
     * must error, never silently run the defaults.
     */
    static void
    rejectUnknownMembers(const JsonValue &request,
                         std::initializer_list<const char *> known)
    {
        for (const auto &[key, value] : request.members) {
            (void)value;
            bool ok = false;
            for (const char *k : known)
                ok = ok || key == k;
            if (!ok)
                throw ConfigError("protocol: unknown member \"" + key +
                                  "\" for this op");
        }
    }

    std::uint64_t
    jobIdOf(const JsonValue &request)
    {
        const JsonValue *job = request.find("job");
        if (!job || job->kind != JsonValue::Kind::Number)
            throw ConfigError("protocol: op needs a numeric \"job\"");
        return std::uint64_t(
            parseInt(job->text, "protocol: \"job\""));
    }

    void
    opSubmit(const JsonValue &request, JsonValue &response)
    {
        JobRequest job;
        const JsonValue *exp = request.find("experiment");
        if (!exp || exp->kind != JsonValue::Kind::String)
            throw ConfigError(
                "protocol: submit needs a string \"experiment\"");
        job.experiment = exp->text;
        if (const JsonValue *config = request.find("config")) {
            if (config->kind != JsonValue::Kind::Object)
                throw ConfigError(
                    "protocol: \"config\" must be an object");
            for (const auto &[key, value] : config->members)
                job.overlay.emplace_back(
                    key, value.scalarText("protocol: config." + key));
        }
        if (const JsonValue *formats = request.find("formats")) {
            if (formats->kind != JsonValue::Kind::Array)
                throw ConfigError(
                    "protocol: \"formats\" must be an array");
            job.formats.clear();
            for (const JsonValue &f : formats->items)
                job.formats.push_back(
                    f.scalarText("protocol: formats[]"));
        }
        if (const JsonValue *out = request.find("out")) {
            if (out->kind != JsonValue::Kind::String)
                throw ConfigError("protocol: \"out\" must be a string");
            job.outDir = out->text;
        }
        job.time = boolMember(request, "time");
        intMember(request, "deadline_ms", &job.deadlineMs);
        intMember(request, "max_attempts", &job.retry.maxAttempts);
        intMember(request, "backoff_ms", &job.retry.backoffBaseMs);
        job.clientId = clientId_;
        if (maxInflight_ > 0 && inflight_.load() >= maxInflight_)
            throw AdmissionError(
                "session_limit",
                "session has " + std::to_string(maxInflight_) +
                    " jobs in flight; wait for one to finish");
        // Count before submitting: the decrement rides the job's
        // Finished event, which cannot precede the submit.
        ++inflight_;
        std::uint64_t id = 0;
        try {
            id = service_.submit(job);
        } catch (...) {
            --inflight_;
            throw;
        }
        response.add("job", JsonValue::number((long long)id));
    }

    void
    opWait(const JsonValue &request, JsonValue &response)
    {
        const std::uint64_t id = jobIdOf(request);
        int timeout_ms = 60000;
        intMember(request, "timeout_ms", &timeout_ms);
        if (timeout_ms < 0)
            throw ConfigError("protocol: \"timeout_ms\" must be >= 0");
        JobStatus st;
        const Service::WaitOutcome outcome =
            service_.waitFor(id, timeout_ms, st);
        response.add("outcome",
                     JsonValue::string(
                         outcome == Service::WaitOutcome::Done
                             ? "done"
                             : "timeout"));
        for (auto &member : statusJson(st).members)
            response.add(member.first, std::move(member.second));
    }

    void
    opShed(const JsonValue &request, JsonValue &response)
    {
        if (const JsonValue *on = request.find("on")) {
            if (on->kind != JsonValue::Kind::Bool)
                throw ConfigError(
                    "protocol: \"on\" must be true or false");
            service_.setLoadShed(on->boolean);
        }
        response.add("shedding",
                     JsonValue::makeBool(service_.loadShedding()));
    }

    static JsonValue
    statusJson(const JobStatus &st)
    {
        JsonValue v = JsonValue::object();
        v.add("job", JsonValue::number((long long)st.id));
        v.add("experiment", JsonValue::string(st.experiment));
        v.add("state", JsonValue::string(jobStateName(st.state)));
        if (!st.error.empty())
            v.add("error", JsonValue::string(st.error));
        v.add("done", JsonValue::number((long long)st.done));
        v.add("total", JsonValue::number((long long)st.total));
        v.add("elapsed_ms", JsonValue::number(st.elapsedMs));
        v.add("threads", JsonValue::number((long long)st.engineThreads));
        v.add("attempts", JsonValue::number((long long)st.attempts));
        return v;
    }

    static JsonValue
    warmCacheJson()
    {
        const auto stats = Service::warmCacheStats();
        JsonValue v = JsonValue::object();
        v.add("stores", JsonValue::number((long long)stats.stores));
        v.add("hits", JsonValue::number((long long)stats.hits));
        v.add("misses", JsonValue::number((long long)stats.misses));
        v.add("evictions",
              JsonValue::number((long long)stats.evictions));
        v.add("candidate_rows",
              JsonValue::number((long long)stats.totals.candidateRows));
        v.add("candidate_cells",
              JsonValue::number((long long)stats.totals.candidateCells));
        v.add("word_mask_rows",
              JsonValue::number((long long)stats.totals.wordMaskRows));
        v.add("approx_bytes",
              JsonValue::number((long long)stats.totals.approxBytes));
        return v;
    }

    static JsonValue
    diskCacheJson()
    {
        const persist::CacheStats stats =
            persist::SnapshotCache::instance().stats();
        JsonValue v = JsonValue::object();
        v.add("enabled", JsonValue::makeBool(stats.enabled));
        v.add("dir", JsonValue::string(stats.dir));
        v.add("hits", JsonValue::number((long long)stats.hits));
        v.add("misses", JsonValue::number((long long)stats.misses));
        v.add("rejected",
              JsonValue::number((long long)stats.rejected));
        v.add("publishes",
              JsonValue::number((long long)stats.publishes));
        v.add("publish_skips",
              JsonValue::number((long long)stats.publishSkips));
        v.add("publish_failures",
              JsonValue::number((long long)stats.publishFailures));
        v.add("bytes_loaded",
              JsonValue::number((long long)stats.bytesLoaded));
        v.add("bytes_published",
              JsonValue::number((long long)stats.bytesPublished));
        return v;
    }

    void
    opStatus(const JsonValue &request, JsonValue &response)
    {
        if (request.find("job")) {
            const JobStatus st = service_.status(jobIdOf(request));
            for (auto &member : statusJson(st).members)
                response.add(member.first, std::move(member.second));
            return;
        }
        JsonValue jobs = JsonValue::array();
        for (const JobStatus &st : service_.jobs())
            jobs.push(statusJson(st));
        response.add("jobs", std::move(jobs));
        response.add("warm_cache", warmCacheJson());
    }

    void
    opList(const JsonValue &request, JsonValue &response)
    {
        std::vector<std::string> patterns;
        if (const JsonValue *glob = request.find("glob")) {
            if (glob->kind != JsonValue::Kind::String)
                throw ConfigError(
                    "protocol: \"glob\" must be a string");
            patterns.push_back(glob->text);
        }
        JsonValue listing = experimentListJson(patterns);
        for (auto &member : listing.members)
            response.add(member.first, std::move(member.second));
    }

    void
    opCancel(const JsonValue &request, JsonValue &response)
    {
        const std::uint64_t id = jobIdOf(request);
        const bool cancelled = service_.cancel(id);
        response.add("job", JsonValue::number((long long)id));
        response.add("cancelled", JsonValue::makeBool(cancelled));
    }

    void
    opCache(const JsonValue &request, JsonValue &response)
    {
        if (boolMember(request, "evict"))
            response.add("evicted",
                         JsonValue::number(
                             (long long)Service::evictWarmCache()));
        response.add("warm_cache", warmCacheJson());
        response.add("disk_cache", diskCacheJson());
    }

    Service &service_;
    std::istream &in_;
    std::ostream &out_;
    const std::uint64_t clientId_;
    const int maxInflight_;
    std::atomic<int> inflight_{0};
    /// Serializes request-loop and writer-thread access to out_
    /// (stream writes and state probes); mutable for failed() const.
    mutable core::Mutex outMutex_;

    core::Mutex queueMutex_;
    core::CondVar queueCv_;
    std::deque<std::string> queue_ RP_GUARDED_BY(queueMutex_);
    std::uint64_t dropped_ RP_GUARDED_BY(queueMutex_) = 0;
    bool writerStop_ RP_GUARDED_BY(queueMutex_) = false;
};

} // namespace

int
serveSession(Service &service, std::istream &in, std::ostream &out)
{
    ProtocolSession session(service, in, out);
    session.run(/*eof_is_shutdown=*/true);
    return session.failed() ? 1 : 0;
}

// ---- TCP front-end ---------------------------------------------------

#if ROWPRESS_HAVE_SOCKETS

namespace {

/** Minimal read/write streambuf over a connected socket fd. */
class FdStreamBuf : public std::streambuf
{
  public:
    explicit FdStreamBuf(int fd, int idle_timeout_ms = 0)
        : fd_(fd), idleTimeoutMs_(idle_timeout_ms)
    {
        setg(inBuf_, inBuf_, inBuf_);
    }

  protected:
    int_type
    underflow() override
    {
        if (gptr() < egptr())
            return traits_type::to_int_type(*gptr());
        // Fault point: the peer vanishing mid-read (ECONNRESET and
        // friends read as EOF — the session ends, the service lives).
        if (const int e = core::faultPoint("protocol.socket.read")) {
            errno = e;
            return traits_type::eof();
        }
        if (idleTimeoutMs_ > 0) {
            // Idle supervision: a client that goes silent past the
            // budget is disconnected (reads as EOF), freeing its
            // session thread; its in-flight jobs keep running.
            pollfd pfd{};
            pfd.fd = fd_;
            pfd.events = POLLIN;
            int r;
            do {
                r = ::poll(&pfd, 1, idleTimeoutMs_);
            } while (r < 0 && errno == EINTR);
            if (r <= 0)
                return traits_type::eof();
        }
        ssize_t n;
        do {
            n = ::read(fd_, inBuf_, sizeof(inBuf_));
        } while (n < 0 && errno == EINTR);
        if (n <= 0)
            return traits_type::eof();
        setg(inBuf_, inBuf_, inBuf_ + n);
        return traits_type::to_int_type(*gptr());
    }

    int_type
    overflow(int_type ch) override
    {
        if (ch == traits_type::eof())
            return traits_type::not_eof(ch);
        const char c = char(ch);
        return writeAll(&c, 1) ? ch : traits_type::eof();
    }

    std::streamsize
    xsputn(const char *data, std::streamsize n) override
    {
        return writeAll(data, std::size_t(n)) ? n : 0;
    }

  private:
    bool
    writeAll(const char *data, std::size_t n)
    {
        // Fault point: a peer hang-up surfacing on the write side
        // (EPIPE); the writer thread sees a failed stream and the
        // session winds down without touching other sessions' jobs.
        if (const int e = core::faultPoint("protocol.socket.write")) {
            errno = e;
            return false;
        }
        while (n > 0) {
            // MSG_NOSIGNAL: a peer that hung up must produce EPIPE
            // (ending this session), not SIGPIPE (whose default
            // action would kill the whole long-lived server).
#if defined(MSG_NOSIGNAL)
            const ssize_t w = ::send(fd_, data, n, MSG_NOSIGNAL);
#else
            const ssize_t w = ::write(fd_, data, n);
#endif
            if (w < 0 && errno == EINTR)
                continue;
            if (w <= 0)
                return false;
            data += std::size_t(w);
            n -= std::size_t(w);
        }
        return true;
    }

    int fd_;
    int idleTimeoutMs_;
    char inBuf_[4096];
};

/**
 * SIGTERM/SIGINT latch for the accept loop.  A lock-free atomic, not
 * volatile sig_atomic_t: the handler may run on any thread of the
 * process (raise() in tests, a signal delivered to a worker), so the
 * latch must be data-race-free across threads as well as
 * async-signal-safe — lock-free std::atomic is both.
 */
std::atomic<int> g_serveSignal{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "signal handler requires a lock-free latch");

extern "C" void
serveSignalHandler(int)
{
    g_serveSignal.store(1, std::memory_order_relaxed);
}

bool
serveSignalled()
{
    return g_serveSignal.load(std::memory_order_relaxed) != 0;
}

/** One live TCP session: its socket, thread, and completion flag. */
struct TcpSession
{
    int fd = -1;
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
};

} // namespace

int
serveTcp(Service &service, const ServeOptions &opts, std::ostream &log)
{
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listener < 0)
        throw ConfigError("serve: cannot create socket");
    const int one = 1;
    ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(std::uint16_t(opts.port));
    if (::bind(listener, (const sockaddr *)&addr, sizeof(addr)) != 0 ||
        ::listen(listener, 16) != 0) {
        ::close(listener);
        throw ConfigError("serve: cannot bind 127.0.0.1:" +
                          std::to_string(opts.port));
    }
    log << "[rowpress] serving on 127.0.0.1:" << opts.port << "\n";
    log.flush();

    // Graceful-drain signals: latch and finish the loop iteration
    // instead of dying mid-job.  Handlers are restored on exit so a
    // caller embedding serveTcp gets its own disposition back.
    g_serveSignal.store(0, std::memory_order_relaxed);
    struct sigaction sa
    {
    };
    sa.sa_handler = serveSignalHandler;
    sigemptyset(&sa.sa_mask);
    struct sigaction old_term
    {
    }, old_int{};
    ::sigaction(SIGTERM, &sa, &old_term);
    ::sigaction(SIGINT, &sa, &old_int);

    std::vector<TcpSession> sessions; // touched only by this thread
    std::atomic<bool> shutdown_op{false};
    std::uint64_t next_client = 0;
    bool accept_failed = false;
    int accept_backoff_ms = 0;

    while (!shutdown_op.load(std::memory_order_acquire) &&
           !serveSignalled()) {
        // Reap finished sessions so a long-lived server's thread and
        // fd counts track live clients, not total connections ever.
        for (auto it = sessions.begin(); it != sessions.end();) {
            if (it->done->load(std::memory_order_acquire)) {
                it->thread.join();
                ::close(it->fd);
                it = sessions.erase(it);
            } else {
                ++it;
            }
        }

        // Poll with a bounded tick so signal/shutdown latches are
        // noticed without a connection arriving.
        pollfd pfd{};
        pfd.fd = listener;
        pfd.events = POLLIN;
        const int pr = ::poll(&pfd, 1, 200);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            log << "[rowpress] poll failed; server exiting\n";
            accept_failed = true;
            break;
        }
        if (pr == 0)
            continue;

        // Fault point: accept-path errno emulation (fd exhaustion
        // drills without actually exhausting the process's table).
        int err = core::faultPoint("protocol.accept");
        int conn = -1;
        if (err == 0) {
            conn = ::accept(listener, nullptr, nullptr);
            if (conn < 0)
                err = errno;
        }
        if (conn < 0) {
            // A harmless signal (profiler timer, window resize) must
            // not take the whole long-lived server down.
            if (err == EINTR)
                continue;
            if (err == EMFILE || err == ENFILE || err == ENOBUFS) {
                // Transient resource exhaustion: back off (bounded,
                // doubling) and retry — sessions closing will free
                // fds.  Exiting here would turn a burst of clients
                // into an outage.
                accept_backoff_ms =
                    accept_backoff_ms == 0
                        ? 10
                        : std::min(accept_backoff_ms * 2, 1000);
                log << "[rowpress] accept: out of descriptors (errno "
                    << err << "); retrying in " << accept_backoff_ms
                    << " ms\n";
                log.flush();
                for (int slept = 0;
                     slept < accept_backoff_ms && !serveSignalled() &&
                     !shutdown_op.load(std::memory_order_acquire);
                     slept += 20)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
                continue;
            }
            log << "[rowpress] accept failed (errno " << err
                << "); server exiting\n";
            accept_failed = true;
            break;
        }
        accept_backoff_ms = 0;
#if defined(SO_NOSIGPIPE)
        // BSD/macOS equivalent of MSG_NOSIGNAL.
        const int no_sigpipe = 1;
        ::setsockopt(conn, SOL_SOCKET, SO_NOSIGPIPE, &no_sigpipe,
                     sizeof(no_sigpipe));
#endif
        // One concurrent session per connection, each with a unique
        // nonzero client id: its submits are tagged with it and its
        // event stream filtered on it, so sessions never see each
        // other's jobs.  A client hang-up only ends its session; the
        // service (warm caches, job history) persists.
        const std::uint64_t client = ++next_client;
        auto done = std::make_shared<std::atomic<bool>>(false);
        const int idle_ms = opts.idleTimeoutMs;
        const int inflight_cap = opts.sessionMaxInflight;
        std::thread thread([&service, conn, client, idle_ms,
                            inflight_cap, done, &shutdown_op] {
            FdStreamBuf buf(conn, idle_ms);
            std::istream in(&buf);
            std::ostream out(&buf);
            ProtocolSession session(service, in, out, client,
                                    inflight_cap);
            if (session.run(/*eof_is_shutdown=*/false))
                shutdown_op.store(true, std::memory_order_release);
            // Unblock nothing-in-particular: the accept loop owns
            // the close; signalling both directions down lets any
            // straggling peer write fail fast.
            ::shutdown(conn, SHUT_RDWR);
            done->store(true, std::memory_order_release);
        });
        sessions.push_back(
            TcpSession{conn, std::move(thread), std::move(done)});
    }
    ::close(listener); // stop accepting before any drain below

    int exit_code = accept_failed ? 1 : 0;
    if (serveSignalled() &&
        !shutdown_op.load(std::memory_order_acquire)) {
        // Signal drain: shed new submissions, give in-flight work the
        // grace budget, then cancel whatever remains.  The exit code
        // tells a supervisor which of the two happened.
        log << "[rowpress] signal received; draining (grace "
            << opts.graceMs << " ms)\n";
        log.flush();
        service.setLoadShed(true);
        const bool drained = service.drainFor(opts.graceMs);
        if (drained) {
            service.shutdown();
            exit_code = 3;
        } else {
            service.shutdownNow();
            exit_code = 4;
        }
        log << "[rowpress] drain "
            << (drained ? "complete" : "expired; in-flight jobs "
                                       "cancelled")
            << "\n";
        log.flush();
    }

    // Wake every session reader off its socket, then join.  Sessions
    // end at their next read; their in-flight jobs already drained
    // (shutdown op / signal path) or were cancelled.
    for (TcpSession &session : sessions)
        ::shutdown(session.fd, SHUT_RDWR);
    for (TcpSession &session : sessions) {
        session.thread.join();
        ::close(session.fd);
    }
    ::sigaction(SIGTERM, &old_term, nullptr);
    ::sigaction(SIGINT, &old_int, nullptr);
    return exit_code;
}

#else // !ROWPRESS_HAVE_SOCKETS

int
serveTcp(Service &, const ServeOptions &, std::ostream &)
{
    throw ConfigError("serve: --port is not supported on this platform "
                      "(no POSIX sockets); use stdin/stdout mode");
}

#endif

} // namespace rp::api
