#include "base/thread_pool.hh"

#include <algorithm>
#include <cstdlib>
#include <exception>

#include "base/env.hh"
#include "base/log.hh"

namespace rix
{

ThreadPool::ThreadPool(unsigned num_threads)
{
    if (num_threads == 0)
        num_threads = 1;
    workers.reserve(num_threads);
    for (unsigned i = 0; i < num_threads; ++i)
        workers.emplace_back([this]() { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mu);
        stopping = true;
    }
    cv.notify_all();
    for (std::thread &t : workers)
        t.join();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lk(mu);
            cv.wait(lk, [this]() { return stopping || !queue.empty(); });
            if (queue.empty())
                return; // stopping and drained
            task = std::move(queue.front());
            queue.pop();
        }
        // packaged_task catches the task's exceptions and stores them
        // in the future; nothing escapes into the worker loop.
        task();
    }
}

void
parallelFor(unsigned threads, size_t n,
            const std::function<void(size_t)> &fn)
{
    const size_t workers = std::min<size_t>(threads, n);
    if (workers <= 1) {
        std::exception_ptr first;
        for (size_t i = 0; i < n; ++i) {
            try {
                fn(i);
            } catch (...) {
                if (!first)
                    first = std::current_exception();
            }
        }
        if (first)
            std::rethrow_exception(first);
        return;
    }
    std::vector<std::future<void>> pendings;
    pendings.reserve(n);
    {
        ThreadPool pool(static_cast<unsigned>(workers));
        for (size_t i = 0; i < n; ++i)
            pendings.push_back(pool.submit([&fn, i]() { fn(i); }));
    } // the destructor drains: every index has run
    for (std::future<void> &f : pendings)
        f.get();
}

unsigned
jobsFromEnv()
{
    // Strictly validated: the historical strtoul parsing mapped "0"
    // and garbage ("abc", "4x") to a silent serial fallback.
    const unsigned hw = std::thread::hardware_concurrency();
    const u64 n = envPositiveCount("RIX_JOBS", hw == 0 ? 1 : hw);
    if (n > 1024)
        rix_fatal("RIX_JOBS: %llu workers is not a sane thread count "
                  "(max 1024)", (unsigned long long)n);
    return unsigned(n);
}

} // namespace rix
