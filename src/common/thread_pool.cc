#include "common/thread_pool.hh"

#include <atomic>
#include <exception>

namespace harp::common {

ThreadPool::ThreadPool(std::size_t num_threads)
{
    if (num_threads == 0) {
        num_threads = std::thread::hardware_concurrency();
        if (num_threads == 0)
            num_threads = 1;
    }
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    taskAvailable_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push(std::move(task));
        ++inFlight_;
    }
    taskAvailable_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allDone_.wait(lock, [this] { return inFlight_ == 0; });
}

std::size_t
ThreadPool::backlog() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return inFlight_;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            taskAvailable_.wait(lock, [this] {
                return stopping_ || !tasks_.empty();
            });
            if (stopping_ && tasks_.empty())
                return;
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        task();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --inFlight_;
            if (inFlight_ == 0)
                allDone_.notify_all();
        }
    }
}

void
parallelFor(std::size_t count,
            const std::function<void(std::size_t)> &body,
            std::size_t num_threads)
{
    if (count == 0)
        return;
    if (count == 1 || num_threads == 1) {
        // A single lane gains nothing from a transient pool; this is
        // the common case under brownout (inner_threads narrowed to 1).
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }
    ThreadPool pool(num_threads);
    // Chunk iterations so tiny bodies do not drown in queue overhead.
    const std::size_t chunks = std::min(count, pool.numThreads() * 8);
    std::atomic<std::size_t> next{0};
    const std::size_t chunk_size = (count + chunks - 1) / chunks;
    std::mutex failure_mutex;
    std::exception_ptr failure;
    for (std::size_t c = 0; c < chunks; ++c) {
        pool.submit([&, chunk_size] {
            for (;;) {
                const std::size_t start =
                    next.fetch_add(chunk_size, std::memory_order_relaxed);
                if (start >= count)
                    return;
                const std::size_t end = std::min(start + chunk_size, count);
                try {
                    for (std::size_t i = start; i < end; ++i)
                        body(i);
                } catch (...) {
                    // Keep the first failure; hand out no further chunks.
                    const std::lock_guard<std::mutex> lock(failure_mutex);
                    if (!failure)
                        failure = std::current_exception();
                    next.store(count, std::memory_order_relaxed);
                    return;
                }
            }
        });
    }
    pool.wait();
    if (failure)
        std::rethrow_exception(failure);
}

} // namespace harp::common
