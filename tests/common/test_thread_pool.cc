/**
 * @file
 * Unit tests for the thread pool and parallelFor.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hh"

namespace harp::common {
namespace {

TEST(ThreadPool, RunsAllTasks)
{
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter] { counter.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitOnEmptyPoolReturns)
{
    ThreadPool pool(2);
    pool.wait(); // must not deadlock
    SUCCEED();
}

TEST(ThreadPool, ReusableAfterWait)
{
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    pool.submit([&] { counter.fetch_add(1); });
    pool.wait();
    pool.submit([&] { counter.fetch_add(10); });
    pool.wait();
    EXPECT_EQ(counter.load(), 11);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency)
{
    ThreadPool pool(0);
    EXPECT_GE(pool.numThreads(), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    parallelFor(n, [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, ZeroCountIsNoop)
{
    parallelFor(0, [](std::size_t) { FAIL(); }, 4);
    SUCCEED();
}

TEST(ParallelFor, SingleThreadMatchesSerial)
{
    std::vector<int> values(64, 0);
    parallelFor(values.size(),
                [&](std::size_t i) { values[i] = static_cast<int>(i); }, 1);
    int expected = 0;
    for (std::size_t i = 0; i < values.size(); ++i)
        expected += static_cast<int>(i);
    EXPECT_EQ(std::accumulate(values.begin(), values.end(), 0), expected);
}

TEST(ParallelFor, MoreThreadsThanWork)
{
    std::atomic<int> counter{0};
    parallelFor(3, [&](std::size_t) { counter.fetch_add(1); }, 16);
    EXPECT_EQ(counter.load(), 3);
}

TEST(ParallelFor, RethrowsABodyExceptionOnTheCaller)
{
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        std::atomic<int> ran{0};
        EXPECT_THROW(parallelFor(
                         100,
                         [&](std::size_t i) {
                             ran.fetch_add(1);
                             if (i == 37)
                                 throw std::invalid_argument("bad 37");
                         },
                         threads),
                     std::invalid_argument)
            << threads << " threads";
        EXPECT_LE(ran.load(), 100);
    }
}

} // namespace
} // namespace harp::common
