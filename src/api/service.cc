#include "api/service.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <utility>

#include "api/context.h"
#include "core/fault.h"
#include "persist/cache.h"

namespace rp::api {

const char *
jobStateName(JobState state)
{
    switch (state) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Finished: return "finished";
    case JobState::Failed: return "failed";
    case JobState::Cancelled: return "cancelled";
    case JobState::DeadlineExceeded: return "deadline_exceeded";
    }
    return "unknown";
}

Service::Service(Options opts) : opts_(opts)
{
    const int n = opts_.workers > 0 ? opts_.workers : 1;
    workers_.reserve(std::size_t(n));
    for (int i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    deadlineMonitor_ = std::thread([this] { deadlineLoop(); });
}

Service::~Service()
{
    shutdownNow();
}

const Experiment &
Service::findExperiment(const std::string &id)
{
    const Experiment *exp = ExperimentRegistry::instance().find(id);
    if (!exp)
        throw ConfigError("unknown experiment '" + id +
                          "' (see 'rowpress list'; jobs take exact "
                          "ids, not globs)");
    return *exp;
}

Config
Service::resolveConfig(
    const Experiment &exp,
    const std::vector<std::pair<std::string, std::string>> &overlay)
{
    ConfigSchema schema = baseSchema();
    if (exp.declareOptions)
        exp.declareOptions(schema);
    Config config{std::move(schema)};
    for (const auto &[key, value] : overlay) {
        if (!config.schema().find(key))
            throw ConfigError("experiment '" + exp.info.id +
                              "' does not accept --" + key);
        config.set(key, value);
    }
    return config;
}

std::uint64_t
Service::submit(const JobRequest &request)
{
    const Experiment &exp = findExperiment(request.experiment);
    Config config = resolveConfig(exp, request.overlay);

    // The job policy is range-checked here, once, for every
    // front-end (`run` flags and protocol members alike).
    if (request.deadlineMs < 0)
        throw ConfigError("job deadline must be >= 0 ms");

    // Build the sinks up front so a bad format (or "table" without a
    // stream to render on) fails the submission, not the run.
    if (request.formats.empty())
        throw ConfigError("job for '" + request.experiment +
                          "': no output formats");
    std::vector<std::unique_ptr<ResultSink>> sinks;
    // Valid, silently-discarding stream for the file-sink formats
    // that never render to it (a null streambuf sets badbit on use).
    static std::ostream null_stream(nullptr);
    for (const std::string &format : request.formats) {
        if (format == "table" && !request.tableStream)
            throw ConfigError(
                "format 'table' needs an output stream (serve jobs "
                "have none; use csv/json artifacts instead)");
        std::ostream &os =
            request.tableStream ? *request.tableStream : null_stream;
        sinks.push_back(makeSink(format, request.outDir, os));
    }

    Job *job_ptr = nullptr;
    std::uint64_t id = 0;
    bool has_deadline = false;
    {
        core::LockGuard lock(mutex_);
        if (stopping_)
            throw ConfigError("service is shutting down");
        // Admission control, checked before the job exists: a
        // policy rejection costs the client one round-trip and the
        // service nothing.  `admitting_` counts submissions past
        // this gate whose queue push is still in flight, so a burst
        // cannot overshoot the bound between gate and push.
        if (opts_.maxQueue > 0 &&
            queue_.size() + admitting_ >= opts_.maxQueue)
            throw AdmissionError(
                "queue_full",
                "pending queue is full (" +
                    std::to_string(opts_.maxQueue) +
                    " jobs); retry with backoff");
        ++admitting_;
        // Bound the job history: drop the oldest terminal jobs once
        // past the cap, so a long-lived service's memory tracks jobs
        // in flight, not total jobs ever submitted.
        for (auto it = jobs_.begin();
             jobs_.size() >= kMaxJobHistory && it != jobs_.end();) {
            Job &old = *it->second;
            const bool done = terminal(old.state) && old.eventsDone;
            it = done ? jobs_.erase(it) : std::next(it);
        }
        id = ++lastId_;
        auto job = std::make_unique<Job>(id, request, std::move(config));
        job->sinks = std::move(sinks);
        if (request.deadlineMs > 0) {
            job->hasDeadline = true;
            job->deadline =
                std::chrono::steady_clock::now() +
                std::chrono::milliseconds(request.deadlineMs);
        }
        has_deadline = job->hasDeadline;
        job_ptr = job.get();
        jobs_[id] = std::move(job);
    }

    // Queued precedes the scheduler pickup, so a job's event stream
    // always opens with it: dispatch before the job becomes runnable.
    JobEvent event;
    event.type = JobEventType::Queued;
    dispatch(*job_ptr, std::move(event));

    bool accepted = false;
    {
        core::LockGuard lock(mutex_);
        --admitting_;
        // Recheck: a shutdown() may have joined the workers while the
        // Queued event was being dispatched, and a push now would
        // leave the job runnable with nobody to run it (wait() would
        // block forever) — such a racing submission comes back
        // cancelled.  A concurrent cancel() (or an already-expired
        // deadline) may also have flipped the state; since the job
        // was not enqueued yet, delivery of its Finished event is
        // ours either way, which keeps the event stream opening with
        // Queued.
        if (!stopping_ && job_ptr->state == JobState::Queued) {
            queue_.push_back(job_ptr);
            job_ptr->enqueued = true;
            accepted = true;
        } else if (job_ptr->state == JobState::Queued) {
            job_ptr->state = JobState::Cancelled;
        }
    }
    if (accepted) {
        queueCv_.notify_one();
        // Local copy: job_ptr's scheduler fields belong to mutex_,
        // which is no longer held here (annotation-surfaced cleanup;
        // the old read was benign — only this thread ever wrote it).
        if (has_deadline)
            deadlineCv_.notify_all();
        return id;
    }
    deliverAbortedFinish(*job_ptr);
    return id;
}

void
Service::deliverAbortedFinish(Job &job)
{
    JobEvent event;
    event.type = JobEventType::Finished;
    {
        core::LockGuard lock(mutex_);
        event.state = job.state;
    }
    try {
        dispatch(job, std::move(event));
    } catch (const std::exception &) {
        // Aborted jobs finalize nothing; a sink error here has no
        // outcome to report into.
    }
    releaseSinks(job);
    {
        core::LockGuard lock(mutex_);
        job.eventsDone = true;
    }
    jobsCv_.notify_all();
}

JobStatus
Service::statusOf(const Job &job) const
{
    JobStatus st;
    st.id = job.id;
    st.experiment = job.req.experiment;
    st.state = job.state;
    st.error = job.error;
    st.configError = job.configError;
    st.done = job.done.load(std::memory_order_relaxed);
    st.total = job.total.load(std::memory_order_relaxed);
    st.elapsedMs = job.elapsedMs;
    st.engineThreads = job.engineThreads;
    return st;
}

JobStatus
Service::status(std::uint64_t id) const
{
    core::LockGuard lock(mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        throw ConfigError("unknown job " + std::to_string(id));
    return statusOf(*it->second);
}

std::vector<JobStatus>
Service::jobs() const
{
    core::LockGuard lock(mutex_);
    std::vector<JobStatus> out;
    out.reserve(jobs_.size());
    for (const auto &[id, job] : jobs_) {
        (void)id;
        out.push_back(statusOf(*job));
    }
    return out;
}

bool
Service::cancel(std::uint64_t id)
{
    Job *to_finish = nullptr;
    {
        core::LockGuard lock(mutex_);
        auto it = jobs_.find(id);
        if (it == jobs_.end())
            return false;
        Job &job = *it->second;
        switch (job.state) {
        case JobState::Queued:
            // Flipping the state under the lock makes this cancel
            // exclusive (a racing cancel/submit sees non-Queued);
            // wait() still blocks until eventsDone, which
            // deliverCancelledFinish sets only after the Finished
            // event has reached every sink and observer.
            job.state = JobState::Cancelled;
            if (!job.enqueued)
                // The submitting thread has not pushed the job yet
                // (it may still be dispatching the Queued event); its
                // recheck sees the flip and delivers Finished after
                // Queued, preserving stream order.
                return true;
            for (auto qit = queue_.begin(); qit != queue_.end(); ++qit) {
                if (*qit == &job) {
                    queue_.erase(qit);
                    break;
                }
            }
            to_finish = &job;
            break;
        case JobState::Running:
            // Fires at the job engine's next task boundary; the
            // worker reports Cancelled when CancelledError unwinds.
            job.cancelToken->store(true);
            return true;
        default:
            return false;
        }
    }
    deliverAbortedFinish(*to_finish);
    return true;
}

JobStatus
Service::wait(std::uint64_t id)
{
    core::UniqueLock lock(mutex_);
    for (;;) {
        // Re-resolve per wake: the history cap may prune a job that
        // went terminal while we slept (only terminal jobs are ever
        // pruned, so an erased id means the wait is over — but its
        // outcome is gone with the history).
        auto it = jobs_.find(id);
        if (it == jobs_.end())
            throw ConfigError("unknown job " + std::to_string(id) +
                              " (never submitted, or pruned from the "
                              "job history)");
        Job &job = *it->second;
        if (terminal(job.state) && job.eventsDone)
            return statusOf(job);
        jobsCv_.wait(lock);
    }
}

Service::WaitOutcome
Service::waitFor(std::uint64_t id, int timeout_ms, JobStatus &out)
{
    const auto until =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(timeout_ms > 0 ? timeout_ms : 0);
    core::UniqueLock lock(mutex_);
    for (;;) {
        auto it = jobs_.find(id);
        if (it == jobs_.end())
            throw ConfigError("unknown job " + std::to_string(id) +
                              " (never submitted, or pruned from the "
                              "job history)");
        Job &job = *it->second;
        if (terminal(job.state) && job.eventsDone) {
            out = statusOf(job);
            return WaitOutcome::Done;
        }
        if (jobsCv_.wait_until(lock, until) ==
            std::cv_status::timeout) {
            // One last resolve under the lock: the job may have gone
            // terminal (or been pruned) during the final wait slice.
            it = jobs_.find(id);
            if (it == jobs_.end())
                throw ConfigError(
                    "unknown job " + std::to_string(id) +
                    " (never submitted, or pruned from the job "
                    "history)");
            Job &last = *it->second;
            out = statusOf(last);
            return terminal(last.state) && last.eventsDone
                       ? WaitOutcome::Done
                       : WaitOutcome::TimedOut;
        }
    }
}

bool
Service::allJobsDoneLocked() const
{
    for (const auto &[id, job] : jobs_) {
        (void)id;
        if (!terminal(job->state) || !job->eventsDone)
            return false;
    }
    return true;
}

void
Service::drain()
{
    core::UniqueLock lock(mutex_);
    while (!allJobsDoneLocked())
        jobsCv_.wait(lock);
}

bool
Service::drainFor(int timeout_ms)
{
    const auto until =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(timeout_ms > 0 ? timeout_ms : 0);
    core::UniqueLock lock(mutex_);
    while (!allJobsDoneLocked()) {
        if (jobsCv_.wait_until(lock, until) ==
            std::cv_status::timeout)
            return allJobsDoneLocked();
    }
    return true;
}

void
Service::shutdown()
{
    {
        core::LockGuard lock(mutex_);
        stopping_ = true;
    }
    queueCv_.notify_all();
    for (auto &w : workers_)
        w.join();
    workers_.clear();
    // Deadlines stay enforced while the workers drain the queue;
    // only once every job is done does the monitor go away.
    {
        core::LockGuard lock(mutex_);
        monitorStop_ = true;
    }
    deadlineCv_.notify_all();
    if (deadlineMonitor_.joinable())
        deadlineMonitor_.join();
}

void
Service::shutdownNow()
{
    std::vector<Job *> to_finish;
    {
        core::LockGuard lock(mutex_);
        stopping_ = true;
        for (Job *job : queue_) {
            job->state = JobState::Cancelled;
            to_finish.push_back(job);
        }
        queue_.clear();
        for (const auto &[id, job] : jobs_) {
            (void)id;
            if (job->state == JobState::Running)
                job->cancelToken->store(true);
        }
    }
    for (Job *job : to_finish)
        deliverAbortedFinish(*job);
    jobsCv_.notify_all();
    queueCv_.notify_all();
    for (auto &w : workers_)
        w.join();
    workers_.clear();
    {
        core::LockGuard lock(mutex_);
        monitorStop_ = true;
    }
    deadlineCv_.notify_all();
    if (deadlineMonitor_.joinable())
        deadlineMonitor_.join();
}

std::uint64_t
Service::addObserver(Observer fn)
{
    core::LockGuard lock(dispatchMutex_);
    observers_.emplace_back(++lastObserver_, std::move(fn));
    return lastObserver_;
}

void
Service::removeObserver(std::uint64_t handle)
{
    core::LockGuard lock(dispatchMutex_);
    for (auto it = observers_.begin(); it != observers_.end(); ++it) {
        if (it->first == handle) {
            observers_.erase(it);
            return;
        }
    }
}

void
Service::dispatch(Job &job, JobEvent &&event)
{
    event.job = job.id;
    event.experiment = job.req.experiment;
    // A job emits its events sequentially (the scheduler worker, or
    // its engine's progress hook while that worker blocks in run()),
    // so per-job order is inherent; the locks only serialize sink
    // teardown (per job) and the shared observer list (process-wide,
    // but observers are enqueue-only and cheap).
    {
        core::LockGuard lock(job.sinkMutex);
        for (const auto &sink : job.sinks) {
            // Fault point: artifact-render failures.  Not on the
            // Queued event — submit()'s admission bookkeeping
            // brackets that dispatch, and a throw there would leak
            // the in-flight admission count.
            if (event.type != JobEventType::Queued)
                core::faultPoint("sink.render");
            applyJobEvent(*sink, event);
        }
    }
    core::LockGuard lock(dispatchMutex_);
    for (const auto &[handle, observer] : observers_) {
        (void)handle;
        observer(event);
    }
}

void
Service::finishJob(Job &job, JobState state, std::string error,
                   bool config_error)
{
    JobEvent event;
    event.type = JobEventType::Finished;
    event.state = state;
    event.error = error;
    event.elapsedMs = job.elapsedMs;
    // Finalize sinks (a successful Finished writes result.json etc.)
    // BEFORE eventsDone flips, so wait() returning implies the
    // artifacts are complete on disk and the event stream is closed.
    // A sink that throws here (unwritable out dir, disk full) runs on
    // a scheduler worker with no other handler — swallow it into the
    // job's outcome instead of std::terminate'ing the service.
    try {
        dispatch(job, std::move(event));
    } catch (const std::exception &e) {
        if (state == JobState::Finished) {
            state = JobState::Failed;
            error = std::string("finalizing outputs failed: ") +
                    e.what();
            config_error = false;
        }
    }
    // The job is terminal: drop its sinks now.  JsonSink retains
    // every dataset/note until destruction, so a long-lived service
    // would otherwise keep each job's full result set in memory
    // forever (status metadata stays, it is small).  The swap takes
    // the dispatch lock — dispatch() iterates this vector under it.
    releaseSinks(job);
    {
        core::LockGuard lock(mutex_);
        job.state = state;
        job.eventsDone = true;
        job.error = std::move(error);
        job.configError = config_error;
    }
    jobsCv_.notify_all();
}

void
Service::releaseSinks(Job &job)
{
    std::vector<std::unique_ptr<ResultSink>> doomed;
    {
        core::LockGuard lock(job.sinkMutex);
        doomed.swap(job.sinks);
    }
    // Destruction happens outside the lock.
}

void
Service::workerLoop()
{
    for (;;) {
        Job *job = nullptr;
        {
            core::UniqueLock lock(mutex_);
            while (!stopping_ && queue_.empty())
                queueCv_.wait(lock);
            if (queue_.empty()) {
                if (stopping_)
                    return;
                continue;
            }
            job = queue_.front();
            queue_.pop_front();
            // A cancel() can race the window between a submission's
            // Queued event and its queue push; the job is terminal
            // already, so drop it rather than run it.
            if (job->state != JobState::Queued)
                continue;
            job->state = JobState::Running;
        }
        executeJob(*job);
    }
}

void
Service::deadlineLoop()
{
    core::UniqueLock lock(mutex_);
    for (;;) {
        if (monitorStop_)
            return;
        // Earliest unexpired deadline among live jobs; sleep until
        // it (or until a submit/shutdown replans the schedule).
        bool any = false;
        auto next = std::chrono::steady_clock::time_point::max();
        for (const auto &[id, job] : jobs_) {
            (void)id;
            if (job->hasDeadline && !job->deadlineHit &&
                !terminal(job->state)) {
                any = true;
                next = std::min(next, job->deadline);
            }
        }
        if (!any) {
            deadlineCv_.wait(lock);
            continue;
        }
        if (deadlineCv_.wait_until(lock, next) ==
            std::cv_status::no_timeout)
            continue; // new deadline or shutdown: replan
        const auto now = std::chrono::steady_clock::now();
        std::vector<Job *> expired_queued;
        for (auto &[id, job] : jobs_) {
            (void)id;
            if (!job->hasDeadline || job->deadlineHit ||
                terminal(job->state) || job->deadline > now)
                continue;
            job->deadlineHit = true;
            if (job->state == JobState::Queued) {
                // Never ran: go terminal directly.  If submit() has
                // not pushed it yet, its recheck sees the non-Queued
                // state and delivers the Finished event itself.
                job->state = JobState::DeadlineExceeded;
                if (job->enqueued) {
                    queue_.erase(std::remove(queue_.begin(),
                                             queue_.end(), job.get()),
                                 queue_.end());
                    expired_queued.push_back(job.get());
                }
            } else {
                // Running: fire the token; the worker maps the
                // CancelledError unwind to DeadlineExceeded via
                // deadlineHit.
                job->cancelToken->store(true);
            }
        }
        lock.unlock();
        for (Job *job : expired_queued)
            deliverAbortedFinish(*job);
        lock.lock();
    }
}

void
Service::executeJob(Job &job)
{
    const auto start = std::chrono::steady_clock::now();
    JobState final_state = JobState::Finished;
    std::string error;
    bool config_error = false;

    try {
        // Fault point: the worker dying between claiming the job and
        // opening its event stream.
        core::faultPoint("service.worker.pre_dispatch");

        const Experiment &exp = findExperiment(job.req.experiment);

        JobEvent started;
        started.type = JobEventType::Started;
        started.info = exp.info;
        started.config = job.config.resolved();
        dispatch(job, std::move(started));

        core::ExperimentEngine::Options eopts;
        eopts.numThreads = job.config.getInt("threads");
        eopts.rootSeed = std::uint64_t(job.config.getInt("seed"));
        eopts.cancel = job.cancelToken;
        eopts.progress = [this, &job](std::size_t done,
                                      std::size_t total) {
            job.done.store(done, std::memory_order_relaxed);
            job.total.store(total, std::memory_order_relaxed);
            // Deterministic throttle (a pure function of done/total):
            // ~16 updates per task set plus the final one, so the
            // protocol stream stays readable on thousand-task jobs.
            const std::size_t buckets = 16;
            if (done != total &&
                (done * buckets) / total == ((done - 1) * buckets) / total)
                return;
            JobEvent event;
            event.type = JobEventType::Progress;
            event.done = done;
            event.total = total;
            dispatch(job, std::move(event));
        };
        core::ExperimentEngine engine(eopts);
        {
            core::LockGuard lock(mutex_);
            job.engineThreads = engine.numThreads();
        }

        ExperimentContext ctx(
            exp.info, job.config, engine,
            [this, &job](JobEvent &&event) {
                dispatch(job, std::move(event));
            });

        exp.run(ctx);
    } catch (const core::CancelledError &) {
        bool deadline_hit = false;
        {
            core::LockGuard lock(mutex_);
            deadline_hit = job.deadlineHit;
        }
        // The token fires for both client cancels and deadline
        // expiry; deadlineHit disambiguates which policy unwound us.
        final_state = deadline_hit ? JobState::DeadlineExceeded
                                   : JobState::Cancelled;
    } catch (const ConfigError &e) {
        final_state = JobState::Failed;
        error = e.what();
        config_error = true;
    } catch (const std::exception &e) {
        final_state = JobState::Failed;
        error = e.what();
    }

    {
        core::LockGuard lock(mutex_);
        job.elapsedMs =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
    }

    // Publish freshly built tiers to the snapshot cache (a no-op
    // when no cache directory is configured; never throws).  Only
    // successful jobs publish: a failed/cancelled run may have
    // partially built tiers, which the monotone rule would happily
    // accept, but publishing work we could not finish buys nothing.
    if (final_state == JobState::Finished)
        persist::SnapshotCache::instance().publishRegistry();

    finishJob(job, final_state, std::move(error), config_error);
}

} // namespace rp::api
