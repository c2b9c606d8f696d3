/**
 * @file
 * ExperimentEngine: the shared parallel execution layer of the
 * characterization + simulation stack.
 *
 * Every sweep in the repo — ACmin / tAggONmin searches over locations,
 * temperatures and patterns, `characterizeProfile` grids, multicore
 * simulator runs, bench figure series — is dozens-to-thousands of
 * *independent* experiments.  The engine runs such a task set on
 * several threads while keeping the results bit-identical to a serial
 * run:
 *
 *  - results are collected into a caller-indexed vector, so the
 *    completion order never reorders output;
 *  - every task receives a deterministic seed derived as
 *    `hashU64(rootSeed, taskIndex)` — independent of which thread runs
 *    the task, of the thread count, and of scheduling;
 *  - tasks must be *closed*: they may only touch their own state (e.g.
 *    a per-task platform/Module built from the task description) and
 *    their slot of the result vector.  Given that contract, the engine
 *    guarantees run(tasks, 1 thread) == run(tasks, N threads) bit for
 *    bit.
 *
 * Scheduling is fork-join: `run` starts min(numThreads, tasks) - 1
 * threads for the set, they and the calling thread claim task indices
 * from one atomic cursor, and `run` joins them before it returns.  No
 * thread outlives its set, so several threads may call `run` on one
 * engine at once, and a task may call `run` on its own engine.
 *
 * The thread count is Options::numThreads, or the hardware concurrency
 * when that is 0.  A service job's engine takes it from the job's
 * resolved `threads` option; no environment variable sets it.
 *
 * Job-scoped task groups: the api::Service constructs one engine per
 * job, so an engine doubles as the job's task group — its Options
 * carry the job's cancel token (checked at every task boundary, the
 * engine's cancellation points) and the job's default progress hook
 * (streamed as Progress events).  Engines of concurrent jobs are
 * fully independent; results stay a pure function of the task set
 * and root seed regardless of what other jobs run.
 */

#ifndef ROWPRESS_CORE_ENGINE_H
#define ROWPRESS_CORE_ENGINE_H

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/thread_annotations.h"

namespace rp::core {

/**
 * Thrown out of ExperimentEngine::run when the engine's cancel token
 * fires: remaining tasks of the set are skipped and the run call
 * site unwinds.  The api::Service maps it to JobState::Cancelled.
 */
class CancelledError : public std::runtime_error
{
  public:
    CancelledError() : std::runtime_error("task set cancelled") {}
};

/**
 * Shared cancellation flag: setting it to true makes every engine
 * bound to it abandon its task set at the next task boundary (the
 * engine's cancellation points).  One token per job scopes
 * cancellation to that job's task group without touching others.
 */
using CancelToken = std::shared_ptr<std::atomic<bool>>;

/** Per-task execution context handed to every task. */
struct TaskContext
{
    std::size_t index = 0;    ///< Index within the submitted task set.
    std::uint64_t seed = 0;   ///< hashU64(rootSeed, index).
};

/** Fork-join runner for independent experiment tasks. */
class ExperimentEngine
{
  public:
    using Task = std::function<void(const TaskContext &)>;

    struct Options
    {
        /** Threads per task set; 0 selects defaultThreadCount(). */
        int numThreads = 0;
        /** Root of the per-task seed derivation. */
        std::uint64_t rootSeed = 1;
        /**
         * Job-scoped cancel token: when set and fired, every run on
         * this engine aborts at the next task boundary by rethrowing
         * CancelledError (results of already-finished tasks are
         * discarded with the run).  An engine owned by one service
         * job is that job's task group; the token cancels exactly it.
         */
        CancelToken cancel;
        /**
         * Progress hook, invoked serially as (done, total) within
         * every run.  The service wires this to the job's Progress
         * event stream so drivers need no per-call plumbing.
         */
        std::function<void(std::size_t, std::size_t)> progress;
    };

    ExperimentEngine() : ExperimentEngine(Options()) {}
    explicit ExperimentEngine(Options opts);

    // The threads of a run hold `this`.
    ExperimentEngine(const ExperimentEngine &) = delete;
    ExperimentEngine &operator=(const ExperimentEngine &) = delete;

    int numThreads() const { return numThreads_; }
    std::uint64_t rootSeed() const { return rootSeed_; }

    /** The hardware concurrency, at least 1. */
    static int defaultThreadCount();

    /** The seed a task at @p index receives under @p root_seed. */
    static std::uint64_t
    taskSeed(std::uint64_t root_seed, std::size_t index)
    {
        return hashU64(root_seed, index, 0x45474e45ULL /* "EGNE" */);
    }

    /**
     * Execute all tasks; returns once the set is complete and every
     * thread started for it has been joined.  The first exception
     * thrown by a task is rethrown here (remaining tasks are skipped).
     * An empty task set returns immediately.
     */
    void run(std::vector<Task> tasks);

    /**
     * Ordered parallel map: invoke `fn(ctx) -> R` for indices
     * [0, n) and return the results in index order.
     */
    template <typename R, typename Fn>
    std::vector<R>
    map(std::size_t n, Fn &&fn)
    {
        std::vector<R> out(n);
        std::vector<Task> tasks;
        tasks.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            tasks.push_back([&out, &fn, i](const TaskContext &ctx) {
                out[i] = fn(ctx);
            });
        }
        run(std::move(tasks));
        return out;
    }

  private:
    struct RunState
    {
        // Immutable while the set is in flight (written by run()
        // before any thread starts, read-only afterwards): no guard.
        std::vector<Task> tasks;

        /// Next unclaimed task index.
        std::atomic<std::size_t> cursor{0};

        Mutex doneMutex;
        std::size_t done RP_GUARDED_BY(doneMutex) = 0;
        bool cancelled RP_GUARDED_BY(doneMutex) = false;
        std::exception_ptr firstError RP_GUARDED_BY(doneMutex);
    };

    void claimTasks(RunState &state) const;
    void execute(RunState &state, std::size_t task_index) const;

    bool cancelRequested() const
    {
        return cancel_ && cancel_->load(std::memory_order_relaxed);
    }

    int numThreads_;
    std::uint64_t rootSeed_;
    CancelToken cancel_;
    std::function<void(std::size_t, std::size_t)> progress_;
};

} // namespace rp::core

#endif // ROWPRESS_CORE_ENGINE_H
