/**
 * @file
 * `rix serve` — a resilient simulation daemon on a Unix-domain socket.
 *
 * Accepts newline-delimited JSON requests (serve/proto.hh), runs each
 * admitted job on its ThreadPool through the sweep engine's job body
 * (runJobOnThread: same context reuse, retries and watchdog), and
 * writes id-matched responses as jobs complete (out of order,
 * pipelined).
 * The daemon survives anything a job does: divergence, stuck
 * pipelines, timeouts, crashes and injected faults come back as
 * structured statuses on one connection while every other request
 * proceeds untouched.
 *
 * Resource discipline:
 *
 *  - bounded admission: at most queueDepth jobs outstanding; further
 *    run requests get an immediate "overloaded" response instead of
 *    queueing without limit (explicit backpressure — the client
 *    resubmits);
 *  - bounded memory: programs and checkpoints (built by the sweep's
 *    fastForward) come from ref-counted LRU caches under a byte
 *    budget (half each), so a long-running
 *    daemon's footprint stays flat under workload churn while
 *    in-flight jobs pin their inputs against eviction;
 *  - per-job watchdog and retry policy from FaultPolicy (RIX_TIMEOUT_MS
 *    / RIX_RETRIES), overridable per request;
 *  - graceful drain on shutdown (SIGTERM/SIGINT or the "shutdown" op):
 *    stop accepting, answer in-flight connections, run every admitted
 *    job to completion, then exit 0.
 *
 * Observability: the "stats" op renders the daemon's counters (request
 * and per-status job counts, retries, queue depth/peak, overload
 * rejections, cache hit/miss/eviction/bytes) as one StatRegistry row,
 * plus per-op latency distributions (lat_<op>_{p50,p95,p99,mean}_us
 * and sample counts — inline ops measure parse-to-response, run jobs
 * admission-to-completion) and the host-phase profile (host_<phase>_s;
 * the profiler is always armed under `rix serve`).
 */

#ifndef RIX_SERVE_SERVER_HH
#define RIX_SERVE_SERVER_HH

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/fault.hh"
#include "base/histogram.hh"
#include "base/lru_cache.hh"
#include "base/thread_pool.hh"
#include "emu/checkpoint.hh"
#include "serve/proto.hh"
#include "store/result_store.hh"

namespace rix
{

struct ServeOptions
{
    std::string socketPath;

    /** Simulation worker threads; 0 means jobsFromEnv() (RIX_JOBS). */
    unsigned workers = 0;

    /** Max outstanding (admitted, not yet completed) run jobs; further
     *  submissions are answered "overloaded". */
    size_t queueDepth = 64;

    /** Byte budget for the program + checkpoint LRU caches (half
     *  each). */
    size_t cacheBytes = size_t(256) << 20;

    /** Default per-job fault policy (RIX_TIMEOUT_MS / RIX_RETRIES);
     *  requests may override timeout_ms / retries individually. */
    FaultPolicy policy;

    /** Honor the "inject" request field (tests/CI fault drills only;
     *  otherwise injection requests are rejected as invalid). */
    bool allowInject = false;

    /** Journal every ok run result into the crash-recoverable result
     *  store at this path (created on first start, resumed — torn
     *  tail truncated — on later ones). Empty: no journal. Set from
     *  RIX_STORE_DIR (strictly validated) as
     *  "$RIX_STORE_DIR/serve.rixstore". */
    std::string storePath;

    /** Defaults with the environment knobs applied — the fault policy
     *  and RIX_STORE_DIR (fatal on invalid values, never silently
     *  defaulted). The queue depth and cache budget have flags only. */
    static ServeOptions fromEnv();
};

/** Monotonic daemon counters (all relaxed atomics; exact only in
 *  quiescence, which is when tests read them). */
struct ServeStats
{
    std::atomic<u64> requests{0};   // parsed request lines
    std::atomic<u64> malformed{0};  // lines rejected by the parser
    std::atomic<u64> admitted{0};   // run jobs accepted into the pool
    std::atomic<u64> overloaded{0}; // run jobs rejected by backpressure
    std::atomic<u64> completed{0};  // run jobs finished (any status)
    std::atomic<u64> retries{0};    // extra attempts beyond the first
    std::atomic<u64> byStatus[8]{}; // indexed by JobStatus
    std::atomic<u64> queuePeak{0};  // max outstanding observed
    std::atomic<u64> journaled{0};  // ok results appended to the store
};

/**
 * The daemon proper, embeddable for tests: construct, start(), talk to
 * socketPath(), requestShutdown(), waitShutdown(). The CLI wrapper
 * (runServe) adds signal handling around exactly this object.
 */
class Server
{
  public:
    explicit Server(const ServeOptions &opts);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind the socket (an existing file at the path is removed — the
     * daemon owns it), start the accept loop and the worker pool.
     * @return "" on success, else a one-line diagnostic (bad path,
     *         bind failure); the server is then dead.
     */
    std::string start();

    /**
     * Begin graceful shutdown: stop accepting, reject new run
     * requests with "shutting-down", drain admitted jobs. Safe from
     * any thread and from a signal handler (one write() on a pipe);
     * idempotent.
     */
    void requestShutdown();

    /** Block until the drain finished and every thread joined. */
    void waitShutdown();

    const ServeStats &stats() const { return stats_; }
    const ServeOptions &options() const { return opts; }

    /** Current outstanding run jobs (admission gauge). */
    size_t queueDepth() const { return outstanding.load(); }

    LruCache<std::string, Program> &programCache() { return progLru; }

  private:
    struct Conn;

    void acceptLoop();
    void handleConn(std::shared_ptr<Conn> conn);
    void handleLine(const std::shared_ptr<Conn> &conn,
                    const std::string &line);
    void submitRun(const std::shared_ptr<Conn> &conn,
                   const ServeRequest &req);
    PinnedJobInputs acquireInputs(const SimJob &job);
    std::string renderStats();
    void recordOpLatency(Histogram &h, u64 micros);
    static void writeToConn(const std::shared_ptr<Conn> &conn,
                            const std::string &data);

    ServeOptions opts;
    ServeStats stats_;

    int listenFd = -1;
    int wakePipe[2] = {-1, -1}; // self-pipe: requestShutdown -> acceptLoop
    std::atomic<bool> shuttingDown{false};
    std::atomic<size_t> outstanding{0};

    std::unique_ptr<ThreadPool> pool;
    std::thread acceptor;
    std::vector<std::thread> handlers;
    std::vector<std::shared_ptr<Conn>> conns;
    std::mutex connMu; // guards handlers + conns

    LruCache<std::string, Program> progLru;
    LruCache<std::string, Checkpoint> ckptLru;

    // Per-op latency distributions (microseconds, log-spaced bounds).
    // Inline ops (ping/stats) measure parse-to-response; run measures
    // admission-to-completion. renderStats derives p50/p95/p99.
    std::mutex latMu;
    Histogram latRun, latPing, latStats;

    // RIX_STORE_DIR journal: ok run results appended (fsync commit
    // point) as they complete, indices monotonic across daemon
    // restarts.
    std::unique_ptr<ResultStore> store_;
    std::atomic<u64> journalIdx_{0};
};

/**
 * CLI entry: run a Server with SIGINT/SIGTERM wired to graceful
 * shutdown; blocks until drained.
 * @return process exit code (0 after a clean drain).
 */
int runServe(const ServeOptions &opts);

} // namespace rix

#endif // RIX_SERVE_SERVER_HH
