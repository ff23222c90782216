/**
 * @file
 * Unit tests for the fixed-size thread pool and parallelFor, the one
 * fan-out rule: submission-order result collection, exception
 * propagation through futures, drain-on-destruction shutdown, inline
 * execution with one worker, and the RIX_JOBS knob.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "base/thread_pool.hh"

using namespace rix;

TEST(ThreadPool, ResultsCollectInSubmissionOrder)
{
    ThreadPool pool(4);
    std::vector<std::future<int>> futs;
    // Make early tasks slow so later tasks finish first; the futures
    // must still deliver each task's own value in submission order.
    for (int i = 0; i < 32; ++i) {
        futs.push_back(pool.submit([i]() {
            if (i < 4)
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
            return i * i;
        }));
    }
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(futs[i].get(), i * i);
}

TEST(ThreadPool, ExceptionPropagatesToCollector)
{
    ThreadPool pool(2);
    auto ok = pool.submit([]() { return 7; });
    auto bad = pool.submit([]() -> int {
        throw std::runtime_error("job exploded");
    });
    auto also_ok = pool.submit([]() { return 9; });

    EXPECT_EQ(ok.get(), 7);
    EXPECT_THROW(bad.get(), std::runtime_error);
    // A throwing task must not take its worker down with it.
    EXPECT_EQ(also_ok.get(), 9);
}

TEST(ThreadPool, DestructorDrainsQueuedWork)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 64; ++i)
            pool.submit([&ran]() { ran.fetch_add(1); });
        // No get() on purpose: destruction alone must run everything.
    }
    EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, ConcurrentExceptionsReachTheirOwnFutures)
{
    // Many tasks throwing at once from different workers: each
    // exception must land in exactly its own future, with its own
    // message, and every healthy task must still deliver its value.
    ThreadPool pool(4);
    std::vector<std::future<int>> futs;
    for (int i = 0; i < 64; ++i) {
        futs.push_back(pool.submit([i]() -> int {
            if (i % 3 == 0)
                throw std::runtime_error("task " + std::to_string(i));
            return i;
        }));
    }
    for (int i = 0; i < 64; ++i) {
        if (i % 3 == 0) {
            try {
                futs[i].get();
                FAIL() << "task " << i << " should have thrown";
            } catch (const std::runtime_error &e) {
                EXPECT_EQ(std::string(e.what()),
                          "task " + std::to_string(i));
            }
        } else {
            EXPECT_EQ(futs[i].get(), i);
        }
    }
}

TEST(ParallelFor, OneThreadRunsInlineInIndexOrder)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<size_t> order;
    bool allInline = true;
    parallelFor(1, 50, [&](size_t i) {
        order.push_back(i);
        allInline = allInline && std::this_thread::get_id() == caller;
    });
    EXPECT_TRUE(allInline);
    ASSERT_EQ(order.size(), 50u);
    for (size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, EveryIndexRunsExactlyOnce)
{
    std::vector<std::atomic<int>> hits(100);
    parallelFor(4, hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, ExceptionArrivesAfterEveryOtherIndexFinished)
{
    // Index 3 throws at once; the others are slow. The exception must
    // not reach the caller while any other index is still running.
    for (unsigned threads : {1u, 4u}) {
        std::atomic<int> finished{0};
        try {
            parallelFor(threads, 16, [&](size_t i) {
                if (i == 3)
                    throw std::runtime_error("index 3");
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
                finished.fetch_add(1);
            });
            FAIL() << "index 3 should have thrown";
        } catch (const std::runtime_error &e) {
            EXPECT_EQ(std::string(e.what()), "index 3");
        }
        EXPECT_EQ(finished.load(), 15) << threads << " threads";
    }
}

TEST(ParallelFor, FirstExceptionInIndexOrderWins)
{
    try {
        parallelFor(4, 32, [](size_t i) {
            if (i == 20)
                throw std::runtime_error("late");
            if (i == 7) {
                // Thrown after index 20's, but earlier in index order.
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
                throw std::runtime_error("early");
            }
        });
        FAIL() << "parallelFor should have thrown";
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()), "early");
    }
}

TEST(ThreadPool, ZeroThreadsClampsToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    auto f = pool.submit([]() { return 42; });
    EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, JobsFromEnvKnob)
{
    setenv("RIX_JOBS", "3", 1);
    EXPECT_EQ(jobsFromEnv(), 3u);
    setenv("RIX_JOBS", "1", 1);
    EXPECT_EQ(jobsFromEnv(), 1u);
    unsetenv("RIX_JOBS");
    EXPECT_GE(jobsFromEnv(), 1u);
}

TEST(ThreadPoolDeathTest, JobsFromEnvRejectsZeroAndGarbage)
{
    // Historically strtoul mapped "0" and garbage to a silent serial
    // fallback; the strict parser must fail loudly instead.
    setenv("RIX_JOBS", "0", 1);
    EXPECT_EXIT(jobsFromEnv(), ::testing::ExitedWithCode(1),
                "RIX_JOBS: must be >= 1");
    setenv("RIX_JOBS", "abc", 1);
    EXPECT_EXIT(jobsFromEnv(), ::testing::ExitedWithCode(1),
                "RIX_JOBS: invalid value 'abc'");
    setenv("RIX_JOBS", "4x", 1);
    EXPECT_EXIT(jobsFromEnv(), ::testing::ExitedWithCode(1),
                "RIX_JOBS: invalid value '4x'");
    setenv("RIX_JOBS", "", 1);
    EXPECT_EXIT(jobsFromEnv(), ::testing::ExitedWithCode(1),
                "RIX_JOBS: empty value");
    setenv("RIX_JOBS", "99999", 1);
    EXPECT_EXIT(jobsFromEnv(), ::testing::ExitedWithCode(1),
                "RIX_JOBS: 99999 workers");
    unsetenv("RIX_JOBS");
}
