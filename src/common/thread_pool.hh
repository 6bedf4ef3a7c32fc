/**
 * @file
 * Fixed-size worker pool used to parallelize Monte-Carlo simulation across
 * (ECC code, ECC word) tasks. Tasks are independent by construction (each
 * derives its own RNG stream), so the pool needs no work stealing.
 */

#ifndef HARP_COMMON_THREAD_POOL_HH
#define HARP_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace harp::common {

/**
 * A simple fixed-size thread pool with a blocking wait-for-idle operation.
 */
class ThreadPool
{
  public:
    /**
     * @param num_threads Worker count; 0 selects hardware concurrency.
     */
    explicit ThreadPool(std::size_t num_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one task. */
    void submit(std::function<void()> task);

    /** Block until every submitted task has completed. */
    void wait();

    std::size_t numThreads() const { return workers_.size(); }

    /**
     * Tasks submitted but not yet completed (queued + running).
     * Instantaneous snapshot — advisory only (overload telemetry),
     * never a synchronization primitive.
     */
    std::size_t backlog() const;

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> tasks_;
    mutable std::mutex mutex_;
    std::condition_variable taskAvailable_;
    std::condition_variable allDone_;
    std::size_t inFlight_ = 0;
    bool stopping_ = false;
};

/**
 * Completion counter for task batches submitted to a *shared* pool.
 *
 * ThreadPool::wait() waits for every task from every submitter, which
 * is wrong when several campaign sessions multiplex one pool (harpd):
 * each session tracks only its own tasks with a WaitGroup — add()
 * before submitting, done() at the end of the task, wait() for the
 * batch.
 */
class WaitGroup
{
  public:
    /** Register @p n not-yet-done tasks. */
    void add(std::size_t n = 1)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        pending_ += n;
    }

    /** Mark one task done; wakes wait() when the count reaches zero. */
    void done()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (pending_ > 0 && --pending_ == 0)
            idle_.notify_all();
    }

    /** Block until every add()ed task has called done(). */
    void wait()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        idle_.wait(lock, [this] { return pending_ == 0; });
    }

  private:
    std::mutex mutex_;
    std::condition_variable idle_;
    std::size_t pending_ = 0;
};

/**
 * Run @p body(i) for every i in [0, count) across a transient pool.
 *
 * Each invocation must be independent; @p body is shared across threads so
 * it must be safe to call concurrently. If a body throws, no further
 * iterations start and the first exception is rethrown once the running
 * ones finish.
 *
 * @param count       Number of iterations.
 * @param body        Callable invoked with the iteration index.
 * @param num_threads Worker count; 0 selects hardware concurrency.
 */
void parallelFor(std::size_t count,
                 const std::function<void(std::size_t)> &body,
                 std::size_t num_threads = 0);

} // namespace harp::common

#endif // HARP_COMMON_THREAD_POOL_HH
