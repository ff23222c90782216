/**
 * @file
 * Fixed-size thread pool for independent simulation jobs.
 *
 * Deliberately minimal (no work stealing, no priorities): the sweep
 * engine's jobs are coarse (one full simulation each), so a single
 * mutex-protected FIFO queue is nowhere near contention. Tasks are
 * submitted as packaged jobs and hand back a std::future, so callers
 * collect results in *submission* order and exceptions thrown inside a
 * task propagate to the collector instead of killing a worker.
 *
 * The destructor drains the queue: every task submitted before
 * destruction runs to completion, then the workers join — a pool going
 * out of scope never abandons queued work. parallelFor, the fan-out
 * every sweep, checkpoint preparation and fuzz campaign goes through,
 * relies on exactly that; `rix serve` keeps one pool for its lifetime.
 */

#ifndef RIX_BASE_THREAD_POOL_HH
#define RIX_BASE_THREAD_POOL_HH

#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace rix
{

class ThreadPool
{
  public:
    /** Spawn @p num_threads workers (at least one). */
    explicit ThreadPool(unsigned num_threads);

    /** Runs every already-submitted task, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue @p fn for execution on some worker. The returned future
     * delivers fn's result, or rethrows whatever it threw.
     */
    template <typename Fn>
    auto
    submit(Fn &&fn) -> std::future<decltype(fn())>
    {
        using Result = decltype(fn());
        auto task = std::make_shared<std::packaged_task<Result()>>(
            std::forward<Fn>(fn));
        std::future<Result> fut = task->get_future();
        {
            std::lock_guard<std::mutex> lk(mu);
            queue.push([task]() { (*task)(); });
        }
        cv.notify_one();
        return fut;
    }

    unsigned size() const { return unsigned(workers.size()); }

  private:
    void workerLoop();

    std::vector<std::thread> workers;
    std::queue<std::function<void()>> queue;
    std::mutex mu;
    std::condition_variable cv;
    bool stopping = false;
};

/**
 * The one fan-out rule: call @p fn(i) once for every i < @p n on
 * min(@p threads, @p n) workers and wait for all of them. With one
 * worker (or none) every call runs inline on the calling thread, in
 * index order — so RIX_JOBS=1 is the serial path everywhere. Every
 * index runs even if some throw; the first exception in index order
 * is then rethrown to the caller.
 */
void parallelFor(unsigned threads, size_t n,
                 const std::function<void(size_t)> &fn);

/**
 * Worker count from the environment: RIX_JOBS when set (minimum 1),
 * else std::thread::hardware_concurrency(). Fan-outs pass it to
 * parallelFor, which runs inline on the calling thread at 1.
 */
unsigned jobsFromEnv();

} // namespace rix

#endif // RIX_BASE_THREAD_POOL_HH
