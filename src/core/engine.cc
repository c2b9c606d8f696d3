#include "core/engine.h"

#include <algorithm>
#include <thread>

#include "core/fault.h"

namespace rp::core {

int
ExperimentEngine::defaultThreadCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? int(hw) : 1;
}

ExperimentEngine::ExperimentEngine(Options opts)
    : numThreads_(opts.numThreads > 0 ? opts.numThreads
                                      : defaultThreadCount()),
      rootSeed_(opts.rootSeed), cancel_(std::move(opts.cancel)),
      progress_(std::move(opts.progress))
{
}

void
ExperimentEngine::run(std::vector<Task> tasks)
{
    if (tasks.empty())
        return;

    // Cancellation point: a cancelled job never starts another task
    // set (the per-task checks in execute() cover sets in flight).
    if (cancelRequested())
        throw CancelledError();

    RunState state;
    state.tasks = std::move(tasks);

    // Fork: the calling thread claims tasks next to the threads started
    // for this set.  If one fails to start, the set finishes on the
    // threads already running; results do not depend on their number.
    const std::size_t helpers =
        std::min(std::size_t(numThreads_), state.tasks.size()) - 1;
    std::vector<std::thread> threads;
    threads.reserve(helpers);
    for (std::size_t i = 0; i < helpers; ++i) {
        try {
            threads.emplace_back([this, &state] { claimTasks(state); });
        } catch (...) {
            break;
        }
    }

    // Join on every path: no thread may outlive `state`, and destroying
    // a joinable std::thread ends the program.
    auto join = [&threads] {
        for (std::thread &t : threads)
            t.join();
    };
    try {
        claimTasks(state);
    } catch (...) {
        join();
        throw;
    }
    join();

    LockGuard lock(state.doneMutex);
    if (state.firstError)
        std::rethrow_exception(state.firstError);
}

void
ExperimentEngine::claimTasks(RunState &state) const
{
    const std::size_t n = state.tasks.size();
    for (;;) {
        const std::size_t i =
            state.cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= n)
            return;
        execute(state, i);
    }
}

void
ExperimentEngine::execute(RunState &state, std::size_t task_index) const
{
    bool skip;
    {
        LockGuard lock(state.doneMutex);
        // Cancellation point: between any two tasks of a set.  The
        // token fires asynchronously (Service::cancel); the first
        // thread to notice records CancelledError as the run's
        // outcome and every remaining task is skipped.
        if (!state.cancelled && cancelRequested()) {
            state.cancelled = true;
            if (!state.firstError)
                state.firstError =
                    std::make_exception_ptr(CancelledError());
        }
        skip = state.cancelled;
    }

    if (!skip) {
        TaskContext ctx;
        ctx.index = task_index;
        ctx.seed = taskSeed(rootSeed_, task_index);
        try {
            // Fault point: a thread dying mid-task (the engine's
            // first-error capture turns it into the run's outcome,
            // exactly like an experiment body throwing).
            faultPoint("core.engine.task");
            state.tasks[task_index](ctx);
        } catch (...) {
            LockGuard lock(state.doneMutex);
            if (!state.firstError)
                state.firstError = std::current_exception();
            state.cancelled = true;
        }
    }

    LockGuard lock(state.doneMutex);
    ++state.done;
    if (progress_ && !state.cancelled) {
        // A throwing progress callback is treated like a failing task:
        // captured and rethrown at the run() call site, never allowed
        // to escape a thread (std::terminate).
        try {
            progress_(state.done, state.tasks.size());
        } catch (...) {
            if (!state.firstError)
                state.firstError = std::current_exception();
            state.cancelled = true;
        }
    }
}

} // namespace rp::core
