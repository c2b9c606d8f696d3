/**
 * @file
 * ExperimentEngine tests: deterministic seed derivation, bit-identical
 * results at 1 vs N threads, ordered result collection, exception
 * propagation, the empty-task-set edge case, and the fork-join
 * contract: the caller runs tasks, concurrent and nested runs are
 * independent, and cancellation lands after the join.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/engine.h"

namespace rp::core {
namespace {

ExperimentEngine::Options
withThreads(int n, std::uint64_t root_seed = 1)
{
    ExperimentEngine::Options opts;
    opts.numThreads = n;
    opts.rootSeed = root_seed;
    return opts;
}

TEST(Engine, ThreadCountHonoursOptions)
{
    ExperimentEngine one(withThreads(1));
    EXPECT_EQ(one.numThreads(), 1);
    ExperimentEngine four(withThreads(4));
    EXPECT_EQ(four.numThreads(), 4);
}

TEST(Engine, TaskSeedIsPureFunctionOfRootSeedAndIndex)
{
    const std::uint64_t s0 = ExperimentEngine::taskSeed(1, 0);
    EXPECT_EQ(s0, ExperimentEngine::taskSeed(1, 0));
    EXPECT_NE(s0, ExperimentEngine::taskSeed(1, 1));
    EXPECT_NE(s0, ExperimentEngine::taskSeed(2, 0));
}

TEST(Engine, MapReturnsResultsInIndexOrder)
{
    ExperimentEngine engine(withThreads(4));
    // Earlier tasks sleep longer, so completion order is reversed;
    // results must still come back in index order.
    auto out = engine.map<std::size_t>(16, [](const TaskContext &ctx) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(200 * (16 - ctx.index)));
        return ctx.index * 10;
    });
    ASSERT_EQ(out.size(), 16u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * 10);
}

TEST(Engine, SameRootSeedIsBitIdenticalAcrossThreadCounts)
{
    auto job = [](const TaskContext &ctx) {
        // Derive a chaotic but deterministic value from the task seed.
        Rng rng(ctx.seed);
        double acc = 0.0;
        for (int i = 0; i < 100; ++i)
            acc += rng.normal();
        return acc;
    };

    ExperimentEngine serial(withThreads(1, 42));
    ExperimentEngine parallel(withThreads(4, 42));
    auto a = serial.map<double>(64, job);
    auto b = parallel.map<double>(64, job);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "diverged at task " << i;

    // A different root seed must change the stream.
    ExperimentEngine other(withThreads(4, 43));
    auto c = other.map<double>(64, job);
    EXPECT_NE(a.front(), c.front());
}

TEST(Engine, ExceptionPropagatesToCaller)
{
    ExperimentEngine engine(withThreads(4));
    std::vector<ExperimentEngine::Task> tasks;
    for (int i = 0; i < 32; ++i) {
        tasks.push_back([](const TaskContext &ctx) {
            if (ctx.index == 13)
                throw std::runtime_error("task 13 failed");
        });
    }
    EXPECT_THROW(engine.run(std::move(tasks)), std::runtime_error);

    // The engine stays usable after a failed run.
    auto out = engine.map<int>(8, [](const TaskContext &ctx) {
        return int(ctx.index);
    });
    ASSERT_EQ(out.size(), 8u);
    EXPECT_EQ(out[7], 7);
}

TEST(Engine, EmptyTaskSetReturnsImmediately)
{
    ExperimentEngine engine(withThreads(2));
    engine.run({});
    auto out = engine.map<int>(0, [](const TaskContext &) { return 1; });
    EXPECT_TRUE(out.empty());
}

TEST(Engine, ProgressReportsEveryTask)
{
    std::atomic<std::size_t> calls{0};
    std::size_t last_done = 0;
    std::size_t last_total = 0;
    ExperimentEngine::Options opts = withThreads(4);
    opts.progress = [&](std::size_t done, std::size_t total) {
        ++calls;
        last_done = done;
        last_total = total;
    };
    ExperimentEngine engine(opts);

    std::vector<ExperimentEngine::Task> tasks;
    for (int i = 0; i < 20; ++i)
        tasks.push_back([](const TaskContext &) {});
    engine.run(std::move(tasks));

    EXPECT_EQ(calls.load(), 20u);
    EXPECT_EQ(last_done, 20u);
    EXPECT_EQ(last_total, 20u);
}

TEST(Engine, ManyMoreTasksThanWorkersCompletes)
{
    ExperimentEngine engine(withThreads(3));
    std::atomic<int> count{0};
    std::vector<ExperimentEngine::Task> tasks;
    for (int i = 0; i < 500; ++i)
        tasks.push_back([&](const TaskContext &) { ++count; });
    engine.run(std::move(tasks));
    EXPECT_EQ(count.load(), 500);
}

TEST(Engine, OneThreadRunsEveryTaskOnTheCaller)
{
    ExperimentEngine engine(withThreads(1));
    const auto caller = std::this_thread::get_id();
    auto on_caller = engine.map<int>(16, [&](const TaskContext &) {
        return int(std::this_thread::get_id() == caller);
    });
    ASSERT_EQ(on_caller.size(), 16u);
    for (std::size_t i = 0; i < on_caller.size(); ++i)
        EXPECT_EQ(on_caller[i], 1) << "task " << i;
}

TEST(Engine, ConcurrentRunsOnOneEngineAreIndependent)
{
    // Two callers share one engine: each run has its own cursor and
    // result slots, so both get complete, index-ordered results.
    ExperimentEngine engine(withThreads(4));
    auto square = [&engine](std::size_t n, std::size_t offset) {
        return engine.map<std::size_t>(n, [offset](const TaskContext &ctx) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
            return ctx.index * ctx.index + offset;
        });
    };
    for (int round = 0; round < 10; ++round) {
        std::vector<std::size_t> a, b;
        std::thread other([&] { a = square(200, 1); });
        b = square(150, 7);
        other.join();
        ASSERT_EQ(a.size(), 200u);
        ASSERT_EQ(b.size(), 150u);
        for (std::size_t i = 0; i < a.size(); ++i)
            ASSERT_EQ(a[i], i * i + 1) << "round " << round;
        for (std::size_t i = 0; i < b.size(); ++i)
            ASSERT_EQ(b[i], i * i + 7) << "round " << round;
    }
}

TEST(Engine, TaskMayRunItsOwnEngine)
{
    ExperimentEngine engine(withThreads(4));
    auto rows = engine.map<std::vector<std::size_t>>(
        6, [&engine](const TaskContext &outer) {
            return engine.map<std::size_t>(
                5, [&outer](const TaskContext &inner) {
                    return outer.index * 10 + inner.index;
                });
        });
    ASSERT_EQ(rows.size(), 6u);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        ASSERT_EQ(rows[i].size(), 5u);
        for (std::size_t j = 0; j < rows[i].size(); ++j)
            EXPECT_EQ(rows[i][j], i * 10 + j);
    }
}

TEST(Engine, CancelFromTaskSkipsUnclaimedTasksAfterJoin)
{
    // Task 0 fires the token; every other task waits for it first, so
    // each thread holds at most one task when it fires, and no task
    // claimed after it may run.  run() throws only after the join, so
    // no task is still running when it returns.
    constexpr int kThreads = 4;
    constexpr std::size_t kTasks = 64;
    ExperimentEngine::Options opts = withThreads(kThreads);
    opts.cancel = std::make_shared<std::atomic<bool>>(false);
    const CancelToken token = opts.cancel;
    ExperimentEngine engine(opts);

    std::vector<std::atomic<int>> state(kTasks); // 0 idle, 1 running, 2 done
    std::vector<ExperimentEngine::Task> tasks;
    for (std::size_t i = 0; i < kTasks; ++i) {
        tasks.push_back([&](const TaskContext &ctx) {
            state[ctx.index] = 1;
            if (ctx.index == 0)
                token->store(true);
            while (!token->load())
                std::this_thread::yield();
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            state[ctx.index] = 2;
        });
    }
    EXPECT_THROW(engine.run(std::move(tasks)), CancelledError);

    EXPECT_EQ(state[0].load(), 2);
    for (std::size_t i = 0; i < kTasks; ++i) {
        EXPECT_NE(state[i].load(), 1) << "task " << i << " still running";
        if (i >= std::size_t(kThreads)) {
            EXPECT_EQ(state[i].load(), 0) << "task " << i << " ran";
        }
    }
}

} // namespace
} // namespace rp::core
