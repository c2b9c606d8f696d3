/**
 * @file
 * rp::api::Service: the long-lived experiment execution layer.
 *
 * Every invocation used to be a batch run: process start, cold
 * ThresholdStore build, run, exit — the warm-store wins of the keyed
 * store registry evaporated across invocations.  The Service keeps
 * one process alive across many requests: it owns a job scheduler
 * (a small pool of scheduler workers pulling a FIFO queue), resolves
 * each JobRequest into a typed Config at submission, runs each job on
 * a private, job-scoped core::ExperimentEngine (the job's task group,
 * carrying its cancel token and progress hook), and fans the job's
 * ordered JobEvent stream out to the attached ResultSinks and any
 * registered observers (the serve protocol).
 *
 * Execution-path unification: `rowpress run` and `rowpress serve`
 * are both thin clients of this class — submit() + wait() — so a
 * job's artifacts are byte-identical whichever front-end produced
 * them, and identical again when other jobs run concurrently:
 *
 *  - a job's results are a pure function of (experiment, resolved
 *    config); the engine's determinism contract covers thread count,
 *    and per-job engines isolate scheduling entirely;
 *  - the process-wide ThresholdStore registry is a pure
 *    deterministic cache, so sharing it between concurrent jobs cannot
 *    change any result.  So is the on-disk snapshot cache behind it
 *    (persist::SnapshotCache), a setting of the process that the
 *    front-end configures before the Service exists; a job cannot
 *    name a directory;
 *  - sinks write under `<outDir>/<experiment>/`, so concurrent jobs
 *    collide only if a client submits the same (outDir, experiment)
 *    twice in flight — give such jobs distinct outDirs.
 */

#ifndef ROWPRESS_API_SERVICE_H
#define ROWPRESS_API_SERVICE_H

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "api/job.h"
#include "api/sink.h"
#include "core/engine.h"
#include "core/thread_annotations.h"

namespace rp::api {

/**
 * A submission the service refused by *policy* (not by validation):
 * the pending queue is full.  Distinct from ConfigError so front-ends
 * can answer with a machine-readable rejection ("queue_full") that
 * tells the client to back off and retry, rather than to fix its
 * request.
 */
class AdmissionError : public std::runtime_error
{
  public:
    AdmissionError(std::string reason, const std::string &what)
        : std::runtime_error(what), reason_(std::move(reason))
    {
    }

    /** "queue_full". */
    const std::string &reason() const { return reason_; }

  private:
    std::string reason_;
};

class Service
{
  public:
    struct Options
    {
        /**
         * Scheduler workers = jobs in flight at once.  Each running
         * job additionally owns its engine's worker threads (the
         * job's --threads), so total parallelism is the product.
         */
        int workers;

        /**
         * Admission bound on *pending* (queued, not yet running)
         * jobs; a submit that would exceed it throws
         * AdmissionError("queue_full").  0 = unbounded (the
         * pre-robustness behavior; `rowpress serve` defaults to a
         * bound via --queue-max).
         */
        std::size_t maxQueue;

        // Constructor instead of a default member initializer: the
        // latter cannot appear in a nested class used as a default
        // argument of the enclosing class (GCC rejects it).
        explicit Options(int workers_ = 1, std::size_t max_queue = 0)
            : workers(workers_), maxQueue(max_queue)
        {
        }
    };

    /** Global event tap (the serve protocol's streaming channel). */
    using Observer = std::function<void(const JobEvent &)>;

    explicit Service(Options opts = Options());
    ~Service(); ///< shutdownNow(): cancels whatever is still live.

    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    /**
     * Validate and enqueue one job.  The experiment id must be exact;
     * the overlay is validated against the experiment's schema and
     * the formats against the sink factory — a bad request throws
     * ConfigError here, before anything runs.  Emits Queued.  A
     * submission racing a shutdown() may come back as a terminal
     * Cancelled job instead of being run.
     */
    std::uint64_t submit(const JobRequest &request);

    /**
     * Terminal jobs kept for the status verb before the oldest are
     * pruned (their sinks are already released; this bounds the
     * metadata too, so a service under sustained traffic does not
     * grow with total submission count).  A pruned id reads as
     * unknown afterwards.
     */
    static constexpr std::size_t kMaxJobHistory = 4096;

    /** Snapshot of one job; throws ConfigError on an unknown id. */
    JobStatus status(std::uint64_t id) const;

    /** Snapshot of every retained job, in submission order. */
    std::vector<JobStatus> jobs() const;

    /**
     * Cancel a job: a queued job terminates immediately; a running
     * job's cancel token fires and takes effect at its engine's next
     * task boundary (best-effort — an experiment past its last task
     * set finishes normally).  Returns false when the job is already
     * terminal or unknown.
     */
    bool cancel(std::uint64_t id);

    /** Block until the job is terminal; returns the final status. */
    JobStatus wait(std::uint64_t id);

    /** Outcome of the timed wait overload. */
    enum class WaitOutcome
    {
        Done,    ///< The job is terminal; the status is final.
        TimedOut,///< Timeout expired; the status is a live snapshot.
    };

    /**
     * wait() with a timeout: returns Done with the final status once
     * the job is terminal, or TimedOut with a point-in-time snapshot
     * after @p timeout_ms — so a wedged job can never hang a caller
     * (a serve request loop) forever.  Throws like wait() on an
     * unknown/pruned id.
     */
    WaitOutcome waitFor(std::uint64_t id, int timeout_ms,
                        JobStatus &out);

    /** Block until every submitted job is terminal. */
    void drain();

    /**
     * drain() with a timeout: true when every job went terminal
     * within @p timeout_ms (the graceful-shutdown grace window),
     * false when work is still in flight after it.
     */
    bool drainFor(int timeout_ms);

    /** Stop accepting submissions, then drain (graceful shutdown). */
    void shutdown();

    /** Stop accepting, cancel queued + running jobs, then join. */
    void shutdownNow();

    /**
     * Register a tap on the event streams of all jobs; returns a
     * handle for removeObserver (protocol sessions detach on exit).
     * Observers run under the dispatch lock (events are serialized);
     * keep them fast and never call back into the Service from one.
     */
    std::uint64_t addObserver(Observer fn);
    void removeObserver(std::uint64_t handle);

    // ---- shared request resolution ----------------------------------

    /** Exact-id lookup; throws ConfigError when not registered. */
    static const Experiment &findExperiment(const std::string &id);

    /**
     * THE config resolution path: base + declared schema, defaults <
     * overlay.  `rowpress run` flags and serve submit overlays both
     * go through here, and nothing else (no environment variable) is
     * read, so a job's resolved config cannot depend on the front-end
     * or the process.
     */
    static Config
    resolveConfig(const Experiment &exp,
                  const std::vector<std::pair<std::string, std::string>>
                      &overlay);

  private:
    struct Job
    {
        Job(std::uint64_t id_, JobRequest req_, Config config_)
            : id(id_), req(std::move(req_)), config(std::move(config_))
        {
        }

        const std::uint64_t id;
        const JobRequest req;
        const Config config;

        // Scheduler bookkeeping (state .. engineThreads below) is
        // guarded by Service::mutex_.  Clang's analysis cannot bind a
        // member of one object to the mutex of another
        // (RP_GUARDED_BY(owner.mutex_) is not expressible), so the
        // discipline is carried by RP_REQUIRES(mutex_) on every
        // Service helper that touches these fields (statusOf etc.);
        // see README "Static analysis".
        JobState state = JobState::Queued;
        /**
         * Deadline bookkeeping: the absolute expiry instant (valid
         * when hasDeadline) and whether the monitor fired it.  A
         * CancelledError unwinding a job whose deadlineHit is set
         * reports DeadlineExceeded, not Cancelled.
         */
        std::chrono::steady_clock::time_point deadline{};
        bool hasDeadline = false;
        bool deadlineHit = false;
        /**
         * True once submit() pushed the job onto the runnable queue.
         * A cancel() that wins the race before then flips the state
         * only; the submitting thread delivers the Finished event
         * itself, so a job's stream always opens with Queued.
         */
        bool enqueued = false;
        /**
         * True once the terminal Finished event has been delivered to
         * the job's sinks and all observers.  wait()/drain() require
         * it in addition to a terminal state, so their return
         * guarantees the artifacts are final and the event stream is
         * complete — whichever order a canceller flipped the state in.
         */
        bool eventsDone = false;
        std::string error;
        bool configError = false;
        /**
         * Progress of the current task set.  Atomics, not mutex_:
         * the engine's progress hook stores them on every task
         * completion of every concurrent job, and the one service
         * mutex must not become that hot path.
         */
        std::atomic<std::size_t> done{0};
        std::atomic<std::size_t> total{0};
        double elapsedMs = 0.0;
        int engineThreads = 0;

        core::CancelToken cancelToken =
            std::make_shared<std::atomic<bool>>(false);
        /**
         * Guards sinks (delivery and teardown).  Per job, not
         * process-wide: sinks are job-private, and one job rendering
         * a large artifact must not stall other jobs' dispatch (a
         * progress hook blocks its engine's workers while it waits).
         */
        core::Mutex sinkMutex;
        std::vector<std::unique_ptr<ResultSink>> sinks
            RP_GUARDED_BY(sinkMutex);
    };

    void workerLoop();
    void deadlineLoop() RP_EXCLUDES(mutex_);
    /** Run a claimed job once, then finishJob() its outcome. */
    void executeJob(Job &job);
    void dispatch(Job &job, JobEvent &&event)
        RP_EXCLUDES(mutex_, dispatchMutex_);
    /** Snapshot one job's scheduler fields; caller holds mutex_. */
    JobStatus statusOf(const Job &job) const RP_REQUIRES(mutex_);
    /** True when every retained job is terminal with its event
     *  stream closed (the drain()/drainFor() condition). */
    bool allJobsDoneLocked() const RP_REQUIRES(mutex_);
    void finishJob(Job &job, JobState state, std::string error,
                   bool config_error);
    /** Finished(job.state) event + eventsDone for a never-run job
     *  (cancelled or deadline-expired while queued). */
    void deliverAbortedFinish(Job &job);
    /** Drop a terminal job's sinks under the dispatch lock. */
    void releaseSinks(Job &job);

    static bool terminal(JobState state)
    {
        return state != JobState::Queued && state != JobState::Running;
    }

    const Options opts_;
    mutable core::Mutex mutex_;   ///< jobs_/queue_/scheduler state.
    core::CondVar queueCv_;       ///< Wakes scheduler workers.
    core::CondVar jobsCv_;        ///< Wakes wait()/drain().
    core::CondVar deadlineCv_;    ///< Wakes the deadline loop.
    std::map<std::uint64_t, std::unique_ptr<Job>> jobs_
        RP_GUARDED_BY(mutex_);
    std::deque<Job *> queue_ RP_GUARDED_BY(mutex_);
    std::uint64_t lastId_ RP_GUARDED_BY(mutex_) = 0;
    bool stopping_ RP_GUARDED_BY(mutex_) = false;
    /// Submissions past the admission gate, queue push in flight.
    std::size_t admitting_ RP_GUARDED_BY(mutex_) = 0;
    /// Deadline loop exit flag.
    bool monitorStop_ RP_GUARDED_BY(mutex_) = false;

    core::Mutex dispatchMutex_; ///< Observer list + observer calls.
    std::vector<std::pair<std::uint64_t, Observer>> observers_
        RP_GUARDED_BY(dispatchMutex_);
    std::uint64_t lastObserver_ RP_GUARDED_BY(dispatchMutex_) = 0;

    std::vector<std::thread> workers_;
    std::thread deadlineMonitor_;
};

} // namespace rp::api

#endif // ROWPRESS_API_SERVICE_H
