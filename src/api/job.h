/**
 * @file
 * Job currency of the rp::api::Service layer.
 *
 * A JobRequest names one experiment run: the experiment id, a config
 * overlay (applied on top of the defaults, exactly like CLI flags),
 * the output formats and artifact directory.  The Service resolves
 * the request into a Config at submission, schedules it, and emits
 * typed JobEvents while it runs.  A job's results are a pure
 * function of (experiment, resolved config) — independent of how the
 * request arrived (`rowpress run`, `rowpress serve`, or the C++ API)
 * and of what other jobs run concurrently.
 *
 * JobEvents are the streaming-sink currency: every output backend
 * (the ASCII table, CSV, and JSON ResultSinks; the serve protocol's
 * NDJSON event lines) is a consumer of the same ordered per-job event
 * stream, so there is exactly one path from an experiment's emit
 * calls to any rendered artifact.
 */

#ifndef ROWPRESS_API_JOB_H
#define ROWPRESS_API_JOB_H

#include <cstdint>
#include <filesystem>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "api/config.h"
#include "api/dataset.h"
#include "api/registry.h"

namespace rp::api {

/** Lifecycle of a submitted job. */
enum class JobState
{
    Queued,    ///< Accepted and validated, waiting for a scheduler slot.
    Running,   ///< Executing on a scheduler worker.
    Finished,  ///< Completed successfully; artifacts are final.
    Failed,    ///< The experiment threw; see JobStatus::error.
    Cancelled, ///< Cancelled before or during execution.
    /**
     * The job's deadline_ms budget (measured from submission)
     * expired: its cancel token fired and the engine unwound at the
     * next task boundary.  Terminal, like Cancelled, but
     * distinguishable — a deadline is the service enforcing policy,
     * not a client changing its mind.
     */
    DeadlineExceeded,
};

/** Lower-case wire name of a job state ("queued", "running", ...). */
const char *jobStateName(JobState state);

/**
 * One experiment run, as submitted by a client.  A job runs once: a
 * failure is final, and since the results are a pure function of the
 * request, resubmitting it reproduces a clean run's artifacts.
 */
struct JobRequest
{
    /** Exact experiment id (no globs — one job is one experiment). */
    std::string experiment;

    /**
     * Config overlay, applied in order on top of the defaults.  The
     * same layer CLI flags occupy, so `rowpress run fig06 --temp 65`
     * and a serve submit with {"temp": "65"} resolve identically.
     */
    std::vector<std::pair<std::string, std::string>> overlay;

    /** Output formats ("table", "csv", "json"); must be non-empty. */
    std::vector<std::string> formats = {"csv", "json"};

    /** Artifact directory (the `--out` of this job). */
    std::filesystem::path outDir = "artifacts";

    /**
     * Stream for the "table" format (stdout in `rowpress run`).
     * Required when formats contains "table"; the serve protocol has
     * no free-form output channel, so it rejects "table" instead.
     */
    std::ostream *tableStream = nullptr;

    /**
     * Wall-clock budget in ms from submission (spanning queue time
     * and the run); 0 = none, and Service::submit rejects a negative
     * one.  On expiry the service fires the job's cancel token and
     * the job terminates DeadlineExceeded at the engine's next task
     * boundary.
     */
    int deadlineMs = 0;
};

/** Type of a streamed job event. */
enum class JobEventType
{
    Queued,   ///< Submission accepted.
    Started,  ///< Execution began; carries info + resolved config.
    Progress, ///< Engine task-set progress (done / total).
    Dataset,  ///< The experiment emitted a Dataset.
    Note,     ///< The experiment emitted commentary text.
    RawCsv,   ///< The experiment emitted a raw tidy-CSV artifact.
    Finished, ///< Terminal: Finished/Failed/Cancelled/DeadlineExceeded.
};

/**
 * One event of a job's ordered stream.  Events of a single job are
 * delivered in emission order; events of different jobs interleave.
 */
struct JobEvent
{
    JobEventType type = JobEventType::Queued;
    std::uint64_t job = 0;
    std::string experiment;

    // Started
    ExperimentInfo info;
    std::vector<ConfigValue> config; ///< Fully resolved (all keys).

    // Progress (counts are per engine task set, not per job).
    std::size_t done = 0;
    std::size_t total = 0;

    // Dataset.  A borrowed pointer, like bodyWriter below: dispatch
    // is synchronous and the experiment's table can be large, so the
    // event refers to it instead of copying it.  Valid only during
    // delivery; a consumer that stashes the event must copy what it
    // needs first.
    const Dataset *dataset = nullptr;

    // Note
    std::string text;

    // RawCsv: artifact name + the body writer (one of the chr/export
    // writers).  Dispatch is synchronous, and the writer may capture
    // caller locals by reference — consumers must invoke it during
    // delivery (CsvSink streams it straight to its file; a consumer
    // that stashes the event must not call it later).  Keeping the
    // writer lazy means runs without a csv consumer never render the
    // artifact at all.
    std::string name;
    std::function<void(std::ostream &)> bodyWriter;

    // Finished
    double elapsedMs = 0.0;
    JobState state = JobState::Queued;
    std::string error;
};

/** Receives one job's events, in order (ExperimentContext -> Service). */
using JobEventEmitter = std::function<void(JobEvent &&)>;

/** Point-in-time view of a job (the `status` verb / CLI wait). */
struct JobStatus
{
    std::uint64_t id = 0;
    std::string experiment;
    JobState state = JobState::Queued;
    std::string error;       ///< Failure message when state == Failed.
    bool configError = false;///< Failure was a ConfigError (exit 2).
    std::size_t done = 0;    ///< Progress of the current task set.
    std::size_t total = 0;
    double elapsedMs = 0.0;  ///< Wall clock of the finished run.
    int engineThreads = 0;   ///< Resolved engine worker count.
};

} // namespace rp::api

#endif // ROWPRESS_API_JOB_H
