#include "api/protocol.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <deque>
#include <istream>
#include <ostream>
#include <thread>

#include "api/context.h"
#include "api/service.h"
#include "core/thread_annotations.h"
#include "device/threshold_store.h"
#include "persist/cache.h"

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
            case OptionType::String: type = "string"; break;
            }
            o.add("type", JsonValue::string(type));
            o.add("default", JsonValue::string(spec.defaultValue));
            o.add("help", JsonValue::string(spec.help));
            if (spec.hasMin)
                o.add("min", JsonValue::number(spec.minValue));
            if (spec.hasMax)
                o.add("max", JsonValue::number(spec.maxValue));
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
     * @p stopped, when given, is asked before each request line; true
     * ends the request loop as EOF does, even with lines still
     * buffered.
     */
    ProtocolSession(Service &service, std::istream &in,
                    std::ostream &out, bool (*stopped)() = nullptr)
        : service_(service), in_(in), out_(out), stopped_(stopped)
    {
    }

    /**
     * Answer request lines until EOF, a shutdown op, a failed write
     * on the output, or the stop predicate, streaming job events
     * meanwhile.  Returns true for {"op":"shutdown","force":true}.
     * The event stream stays attached, so the caller's drain still
     * reaches the output; close() detaches it.
     */
    bool
    serve()
    {
        // Events are enqueued by the service's dispatch path and
        // written by a dedicated writer thread: the observer must
        // never block on client I/O, or a client that stops reading
        // would stall every job in the service (event dispatch is
        // serialized process-wide).
        writer_ = std::thread([this] { writerLoop(); });
        observer_ = service_.addObserver([this](const JobEvent &event) {
            enqueue(jobEventLine(event),
                    /*critical=*/event.type == JobEventType::Finished);
        });

        bool shutdown_requested = false;
        bool force = false;
        std::string text;
        while (!(stopped_ && stopped_()) && std::getline(in_, text)) {
            if (text.empty() ||
                text.find_first_not_of(" \t\r") == std::string::npos)
                continue;
            JsonValue response = JsonValue::object();
            handle(text, response, &shutdown_requested, &force);
            writeLine(toJson(response));
            if (shutdown_requested)
                break;
            // Responses that can no longer be delivered (the reader
            // of the output went away) end the request loop; the
            // jobs already submitted still drain.
            if (outFailed())
                break;
        }
        return force;
    }

    /**
     * Detach from the service and write every queued event line.
     * Returns true when writing the output failed.
     */
    bool
    close()
    {
        service_.removeObserver(observer_);
        // No more producers: flush what is queued, then stop.
        {
            core::LockGuard lock(queueMutex_);
            writerStop_ = true;
        }
        queueCv_.notify_all();
        writer_.join();
        return outFailed();
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

    void
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
                                      "deadline_ms"});
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
            *out = parseInt32(v->scalarText(what), what);
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
        intMember(request, "deadline_ms", &job.deadlineMs);
        response.add("job",
                     JsonValue::number((long long)service_.submit(job)));
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
        return v;
    }

    static JsonValue
    warmCacheJson()
    {
        const auto stats = device::ThresholdStore::registryStats();
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
        if (boolMember(request, "evict")) {
            const std::size_t evicted =
                device::ThresholdStore::evictRegistry();
            response.add("evicted",
                         JsonValue::number((long long)evicted));
        }
        response.add("warm_cache", warmCacheJson());
        response.add("disk_cache", diskCacheJson());
    }

    Service &service_;
    std::istream &in_;
    std::ostream &out_;
    bool (*const stopped_)();
    std::thread writer_;
    std::uint64_t observer_ = 0;
    /// Serializes request-loop and writer-thread access to out_
    /// (stream writes and state probes).
    core::Mutex outMutex_;

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
    // EOF and plain shutdown drain before returning, so every
    // submitted job's event stream and artifacts complete — `printf
    // ... | serve` runs everything it was fed.
    if (session.serve())
        service.shutdownNow();
    else
        service.shutdown();
    return session.close() ? 1 : 0;
}

// ---- stdio serve under SIGTERM/SIGINT supervision --------------------

namespace {

/**
 * SIGTERM/SIGINT latch.  A lock-free atomic, not volatile
 * sig_atomic_t: the handler may run on any thread of the process
 * (raise() in tests, a signal delivered to a worker), so the latch
 * must be data-race-free across threads as well as
 * async-signal-safe — lock-free std::atomic is both.
 */
std::atomic<int> g_serveSignal{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "signal handler requires a lock-free latch");

/** Write end of the wake pipe, for the handler (-1 = none yet). */
std::atomic<int> g_wakeFd{-1};

extern "C" void
serveSignalHandler(int)
{
    const int saved_errno = errno;
    g_serveSignal.store(1, std::memory_order_relaxed);
    // Wake the request reader's poll(), whichever thread this runs on.
    const int fd = g_wakeFd.load(std::memory_order_relaxed);
    if (fd >= 0) {
        const ssize_t n = ::write(fd, "!", 1);
        (void)n; // a full pipe is already readable
    }
    errno = saved_errno;
}

bool
serveSignalled()
{
    return g_serveSignal.load(std::memory_order_relaxed) != 0;
}

/**
 * Read end of the self-pipe the handler writes to (g_wakeFd holds the
 * write end).  Created once and never closed, so a handler that runs
 * late can never write into a descriptor number that was reused.
 * Both ends are non-blocking: the handler must not block, and serveFd
 * empties the read end of bytes left by an earlier signal.
 */
int
wakeReadFd()
{
    static const int read_fd = [] {
        int p[2];
        if (::pipe(p) != 0)
            throw std::runtime_error("serve: cannot create a pipe");
        for (const int fd : p) {
            ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
            ::fcntl(fd, F_SETFD, FD_CLOEXEC);
        }
        g_wakeFd.store(p[1], std::memory_order_relaxed);
        return p[0];
    }();
    return read_fd;
}

/**
 * Read-only streambuf over a file descriptor whose input also ends
 * when the signal latch fires: underflow() polls the descriptor
 * together with the wake pipe, so input wakes it at once and so does
 * a signal.
 */
class FdStreamBuf : public std::streambuf
{
  public:
    explicit FdStreamBuf(int fd) : fd_(fd) { setg(inBuf_, inBuf_, inBuf_); }

  protected:
    int_type
    underflow() override
    {
        if (gptr() < egptr())
            return traits_type::to_int_type(*gptr());
        pollfd pfds[2] = {{fd_, POLLIN, 0}, {wakeReadFd(), POLLIN, 0}};
        while (::poll(pfds, 2, -1) < 0)
            if (errno != EINTR)
                return traits_type::eof();
        if (serveSignalled())
            return traits_type::eof();
        ssize_t n;
        do {
            n = ::read(fd_, inBuf_, sizeof(inBuf_));
        } while (n < 0 && errno == EINTR);
        if (n <= 0)
            return traits_type::eof();
        setg(inBuf_, inBuf_, inBuf_ + n);
        return traits_type::to_int_type(*gptr());
    }

  private:
    int fd_;
    char inBuf_[4096];
};

} // namespace

int
serveFd(Service &service, int in_fd, std::ostream &out, int grace_ms)
{
    const int wake_fd = wakeReadFd();
    char stale[64];
    while (::read(wake_fd, stale, sizeof(stale)) > 0) {
    }
    g_serveSignal.store(0, std::memory_order_relaxed);
    struct sigaction sa = {}, old_term = {}, old_int = {};
    sa.sa_handler = serveSignalHandler;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGTERM, &sa, &old_term);
    ::sigaction(SIGINT, &sa, &old_int);

    FdStreamBuf buf(in_fd);
    std::istream in(&buf);
    ProtocolSession session(service, in, out, serveSignalled);
    const bool force = session.serve();
    // Reading has stopped: from here on a signal gets the caller's
    // disposition again.  The latch is read after the restore, so a
    // signal is either seen below or handled by that disposition.
    ::sigaction(SIGTERM, &old_term, nullptr);
    ::sigaction(SIGINT, &old_int, nullptr);

    // After a signal, give in-flight work the grace budget; the exit
    // code tells a supervisor whether it drained (3) or had to be
    // cancelled (4).
    int code = 0;
    if (serveSignalled())
        code = service.drainFor(grace_ms) ? 3 : 4;
    if (force || code == 4)
        service.shutdownNow();
    else
        service.shutdown();
    const bool failed = session.close();
    return code != 0 ? code : failed ? 1 : 0;
}

} // namespace rp::api
