/**
 * @file
 * Integration tests for the `rix serve` daemon, driven in-process
 * through a real Unix socket: protocol behavior, fault containment
 * (poisoned jobs never take the daemon down), backpressure under a
 * tiny admission bound, bounded cache memory across a large mixed
 * request storm, and the graceful drain contract.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "assembler/builder.hh"
#include "base/json.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "sim/sweep.hh"
#include "store/result_store.hh"
#include "trace/profiler.hh"

using namespace rix;

namespace
{

std::string
socketPath(const char *tag)
{
    return "/tmp/rix_test_" + std::string(tag) + "_" +
           std::to_string(getpid()) + ".sock";
}

ServeOptions
testOptions(const char *tag)
{
    ServeOptions o;
    o.socketPath = socketPath(tag);
    o.workers = 2;
    o.allowInject = true;
    // Generous: only a safety net. Tests that exercise the watchdog
    // use a per-request timeout_ms (or their own policy) — a healthy
    // job on an oversubscribed CI runner must never be reaped.
    o.policy.timeoutMs = 10'000;
    o.policy.retries = 1;
    o.policy.backoffBaseMs = 1;
    o.policy.backoffCapMs = 2;
    return o;
}

/** Parse a response line and return its "status" (or the parse error). */
std::string
statusOf(const std::string &line)
{
    std::string err;
    const JsonValue doc = JsonValue::parse(line, &err);
    if (!err.empty() || !doc.isObject())
        return "unparseable: " + line;
    const JsonValue *s = doc.find("status");
    return s && s->isString() ? s->asString() : "missing-status";
}

double
numberField(const std::string &line, const char *name)
{
    std::string err;
    const JsonValue doc = JsonValue::parse(line, &err);
    const JsonValue *v =
        err.empty() && doc.isObject() ? doc.find(name) : nullptr;
    return v && v->isNumber() ? v->asNumber() : -1.0;
}

} // namespace

TEST(Serve, PingStatsShutdownRoundTrip)
{
    Server server(testOptions("basic"));
    ASSERT_EQ(server.start(), "");

    ServeClient client;
    ASSERT_EQ(client.connect(server.options().socketPath), "");
    std::string resp;

    ASSERT_TRUE(client.sendLine("{\"op\": \"ping\"}"));
    ASSERT_TRUE(client.recvLine(&resp));
    EXPECT_EQ(statusOf(resp), "ok");

    ASSERT_TRUE(client.sendLine("{\"op\": \"stats\"}"));
    ASSERT_TRUE(client.recvLine(&resp));
    EXPECT_EQ(statusOf(resp), "ok");
    EXPECT_EQ(numberField(resp, "requests"), 2.0);

    ASSERT_TRUE(client.sendLine("{\"op\": \"shutdown\"}"));
    ASSERT_TRUE(client.recvLine(&resp));
    EXPECT_EQ(statusOf(resp), "ok");
    server.waitShutdown();
}

TEST(Serve, MalformedLinesNeverKillTheConnection)
{
    Server server(testOptions("malformed"));
    ASSERT_EQ(server.start(), "");
    ServeClient client;
    ASSERT_EQ(client.connect(server.options().socketPath), "");

    const char *garbage[] = {
        "not json at all",
        "[1, 2, 3]",
        "{\"op\": 42}",
        "{\"op\": \"run\"}",
        "{\"op\": \"run\", \"workload\": \"gzip\", \"scale\": 0}",
        "{\"op\": \"run\", \"workload\": \"gzip\", \"wat\": 1}",
        "{\"op\": \"conquer\"}",
    };
    std::string resp;
    for (const char *line : garbage) {
        ASSERT_TRUE(client.sendLine(line)) << line;
        ASSERT_TRUE(client.recvLine(&resp)) << line;
        EXPECT_EQ(statusOf(resp), "invalid") << line;
    }
    // The connection — and the daemon — are still fully serviceable.
    ASSERT_TRUE(client.sendLine("{\"op\": \"ping\"}"));
    ASSERT_TRUE(client.recvLine(&resp));
    EXPECT_EQ(statusOf(resp), "ok");
    EXPECT_EQ(server.stats().malformed.load(), 7u);

    server.requestShutdown();
    server.waitShutdown();
}

TEST(Serve, PoisonedJobsNeverKillTheDaemon)
{
    Server server(testOptions("poison"));
    ASSERT_EQ(server.start(), "");
    ServeClient client;
    ASSERT_EQ(client.connect(server.options().socketPath), "");

    // Pipeline crashes, hangs, transients and healthy work shuffled
    // together; every request must come back with its own id and the
    // right status, healthy results unperturbed.
    ASSERT_TRUE(client.sendLine(
        "{\"op\": \"run\", \"id\": \"h1\", \"workload\": \"gzip\", "
        "\"max_retired\": 50000}"));
    ASSERT_TRUE(client.sendLine(
        "{\"op\": \"run\", \"id\": \"c1\", \"workload\": \"mcf\", "
        "\"inject\": \"crash\"}"));
    ASSERT_TRUE(client.sendLine(
        "{\"op\": \"run\", \"id\": \"t1\", \"workload\": \"mcf\", "
        "\"inject\": \"transient\", \"max_retired\": 50000}"));
    ASSERT_TRUE(client.sendLine(
        "{\"op\": \"run\", \"id\": \"g1\", \"workload\": \"gzip\", "
        "\"inject\": \"hang\", \"timeout_ms\": 100}"));
    ASSERT_TRUE(client.sendLine(
        "{\"op\": \"run\", \"id\": \"h2\", \"workload\": \"gzip\", "
        "\"max_retired\": 50000}"));

    std::map<std::string, std::string> statusById;
    std::map<std::string, double> retiredById;
    for (int i = 0; i < 5; ++i) {
        std::string resp;
        ASSERT_TRUE(client.recvLine(&resp));
        std::string err;
        const JsonValue doc = JsonValue::parse(resp, &err);
        ASSERT_EQ(err, "") << resp;
        const JsonValue *id = doc.find("id");
        ASSERT_TRUE(id && id->isString()) << resp;
        statusById[id->asString()] = statusOf(resp);
        retiredById[id->asString()] = numberField(resp, "retired");
    }
    EXPECT_EQ(statusById["h1"], "ok");
    EXPECT_EQ(statusById["h2"], "ok");
    EXPECT_EQ(statusById["c1"], "crash");
    EXPECT_EQ(statusById["t1"], "ok"); // recovered by retry
    EXPECT_EQ(statusById["g1"], "timeout");
    // Identical healthy requests, identical simulated numbers.
    EXPECT_GT(retiredById["h1"], 0.0);
    EXPECT_EQ(retiredById["h1"], retiredById["h2"]);
    EXPECT_GE(server.stats().retries.load(), 1u);

    server.requestShutdown();
    server.waitShutdown();
}

TEST(Serve, BackpressureRejectsBeyondQueueDepth)
{
    ServeOptions opts = testOptions("backpressure");
    opts.queueDepth = 2;
    opts.workers = 1;
    opts.policy.timeoutMs = 300;
    opts.policy.retries = 0;
    Server server(opts);
    ASSERT_EQ(server.start(), "");
    ServeClient client;
    ASSERT_EQ(client.connect(opts.socketPath), "");

    // One hang occupies the only worker for its whole timeout; the
    // next job waits in the queue; everything past queueDepth=2 must
    // bounce immediately with "overloaded".
    for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE(client.sendLine(
            "{\"op\": \"run\", \"id\": " + std::to_string(i) +
            ", \"workload\": \"gzip\", \"inject\": \"hang\"}"));
    }
    int overloaded = 0, timedOut = 0;
    for (int i = 0; i < 6; ++i) {
        std::string resp;
        ASSERT_TRUE(client.recvLine(&resp));
        const std::string s = statusOf(resp);
        overloaded += s == "overloaded";
        timedOut += s == "timeout";
    }
    EXPECT_EQ(overloaded, 4);
    EXPECT_EQ(timedOut, 2);
    EXPECT_EQ(server.stats().overloaded.load(), 4u);
    EXPECT_EQ(server.stats().admitted.load(), 2u);

    server.requestShutdown();
    server.waitShutdown();
}

TEST(Serve, HundredMixedRequestsFlatMemory)
{
    // The acceptance bar: >= 100 mixed requests (healthy, malformed,
    // poisoned) on one daemon; every one answered, memory bounded by
    // the cache budget throughout.
    ServeOptions opts = testOptions("storm");
    opts.cacheBytes = 1 << 20; // tight: force eviction under churn
    opts.workers = 4;
    opts.queueDepth = 256;
    Server server(opts);
    ASSERT_EQ(server.start(), "");
    ServeClient client;
    ASSERT_EQ(client.connect(opts.socketPath), "");

    const char *workloads[] = {"gzip", "mcf", "crafty", "bzip2", "gcc"};
    int sent = 0;
    for (int i = 0; i < 120; ++i) {
        std::string line;
        switch (i % 6) {
          case 0:
          case 1:
          case 2:
            line = "{\"op\": \"run\", \"id\": " + std::to_string(i) +
                   ", \"workload\": \"" +
                   workloads[(i / 6) % 5] +
                   "\", \"max_retired\": 20000}";
            break;
          case 3:
            line = "{\"op\": \"run\", \"id\": " + std::to_string(i) +
                   ", \"workload\": \"" + workloads[i % 5] +
                   "\", \"inject\": \"crash\"}";
            break;
          case 4:
            line = "this is not a request";
            break;
          case 5:
            line = "{\"op\": \"stats\"}";
            break;
        }
        ASSERT_TRUE(client.sendLine(line));
        ++sent;
    }
    int ok = 0, crash = 0, invalid = 0;
    for (int i = 0; i < sent; ++i) {
        std::string resp;
        ASSERT_TRUE(client.recvLine(&resp)) << "response " << i;
        const std::string s = statusOf(resp);
        ok += s == "ok";
        crash += s == "crash";
        invalid += s == "invalid";
    }
    EXPECT_EQ(ok + crash + invalid, sent);
    EXPECT_EQ(crash, 20);
    EXPECT_EQ(invalid, 20);
    EXPECT_EQ(ok, 80); // 60 runs + 20 stats

    // Flat memory. The cache evicts only on a miss, so an entry still
    // pinned by the storm's last miss may sit over budget until the
    // next one (the LruCache contract). Nothing is pinned once the
    // jobs finished: one more miss, on a key the storm never used,
    // must clamp the cache to its half of the budget.
    server.programCache().get("flat_memory_probe", [] {
        Builder b("flat_memory_probe");
        b.halt();
        return b.finish();
    });
    EXPECT_LE(server.programCache().bytes(), opts.cacheBytes / 2);
    EXPECT_GT(server.programCache().hits(), 0u);
    EXPECT_EQ(server.stats().completed.load(), 80u);
    EXPECT_EQ(server.queueDepth(), 0u);

    server.requestShutdown();
    server.waitShutdown();
}

TEST(Serve, SampledRunsShareCheckpointsAcrossRequests)
{
    const bool wasProfiling = hostProfiler().enabled();
    hostProfiler().setEnabled(true);
    Server server(testOptions("sampled"));
    ASSERT_EQ(server.start(), "");
    ServeClient client;
    ASSERT_EQ(client.connect(server.options().socketPath), "");

    const std::string req =
        "{\"op\": \"run\", \"workload\": \"gzip\", \"max_retired\": "
        "5000, \"checkpoint_at\": 10000, \"warmup\": 500}";
    const u64 ffBefore = hostProfiler().calls(HostPhase::FastForward);
    std::string first, second;
    ASSERT_TRUE(client.sendLine(req));
    ASSERT_TRUE(client.recvLine(&first));
    ASSERT_TRUE(client.sendLine(req));
    ASSERT_TRUE(client.recvLine(&second));
    // One timed checkpoint build, then one LRU hit.
    EXPECT_EQ(hostProfiler().calls(HostPhase::FastForward) - ffBefore, 1u);
    hostProfiler().setEnabled(wasProfiling);
    EXPECT_EQ(statusOf(first), "ok");
    // Bit-identical repeat: the checkpoint came from the LRU cache
    // the second time, and the simulated numbers must not notice.
    EXPECT_EQ(numberField(first, "retired"), 5000.0);
    EXPECT_EQ(numberField(first, "retired"),
              numberField(second, "retired"));
    EXPECT_EQ(numberField(first, "cycles"),
              numberField(second, "cycles"));

    // Serve and sweeps build the same checkpoint: the served answer
    // equals the sweep engine's for the same job.
    SimJob job;
    job.workload = "gzip";
    job.maxRetired = 5000;
    job.checkpointAt = 10000;
    job.warmup = 500;
    const std::vector<SimJobResult> swept = SweepRunner(1).run({job});
    EXPECT_EQ(numberField(first, "cycles"),
              double(swept[0].report.core.cycles));

    server.requestShutdown();
    server.waitShutdown();
}

TEST(Serve, ShutdownDrainsAdmittedJobs)
{
    ServeOptions opts = testOptions("drain");
    opts.workers = 2;
    Server server(opts);
    ASSERT_EQ(server.start(), "");
    ServeClient client;
    ASSERT_EQ(client.connect(opts.socketPath), "");

    // Admit real work, then immediately ask for shutdown: every
    // admitted job must still complete and deliver its response
    // before the socket closes.
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(client.sendLine(
            "{\"op\": \"run\", \"id\": " + std::to_string(i) +
            ", \"workload\": \"mcf\", \"max_retired\": 50000}"));
    ASSERT_TRUE(client.sendLine("{\"op\": \"shutdown\"}"));

    int okRuns = 0, acks = 0;
    for (int i = 0; i < 5; ++i) {
        std::string resp;
        ASSERT_TRUE(client.recvLine(&resp)) << "response " << i;
        const std::string s = statusOf(resp);
        if (numberField(resp, "retired") > 0)
            ++okRuns;
        else if (s == "ok")
            ++acks;
    }
    EXPECT_EQ(okRuns, 4);
    EXPECT_EQ(acks, 1);
    server.waitShutdown();
    EXPECT_EQ(server.stats().completed.load(), 4u);

    // After the drain the socket is gone: new connections fail.
    ServeClient late;
    EXPECT_NE(late.connect(opts.socketPath), "");
}

TEST(Serve, RunsAfterShutdownAreRefused)
{
    ServeOptions opts = testOptions("late");
    Server server(opts);
    ASSERT_EQ(server.start(), "");
    ServeClient client;
    ASSERT_EQ(client.connect(opts.socketPath), "");

    server.requestShutdown();
    // The reader may or may not still accept the line depending on
    // drain progress; when it does, the answer is "shutting-down",
    // never silent job loss.
    if (client.sendLine("{\"op\": \"run\", \"workload\": \"gzip\"}")) {
        std::string resp;
        if (client.recvLine(&resp)) {
            EXPECT_EQ(statusOf(resp), "shutting-down");
        }
    }
    server.waitShutdown();
    EXPECT_EQ(server.stats().admitted.load(), 0u);
}

TEST(Serve, InjectRequiresOptIn)
{
    ServeOptions opts = testOptions("noinject");
    opts.allowInject = false;
    Server server(opts);
    ASSERT_EQ(server.start(), "");
    ServeClient client;
    ASSERT_EQ(client.connect(opts.socketPath), "");

    ASSERT_TRUE(client.sendLine(
        "{\"op\": \"run\", \"workload\": \"gzip\", \"inject\": "
        "\"crash\"}"));
    std::string resp;
    ASSERT_TRUE(client.recvLine(&resp));
    EXPECT_EQ(statusOf(resp), "invalid");
    EXPECT_EQ(server.stats().admitted.load(), 0u);

    server.requestShutdown();
    server.waitShutdown();
}

TEST(Serve, BadSocketPathFailsWithOneDiagnostic)
{
    ServeOptions opts = testOptions("bad");
    opts.socketPath = "/nonexistent-dir/rix.sock";
    Server server(opts);
    const std::string err = server.start();
    ASSERT_NE(err, "");
    EXPECT_NE(err.find("cannot bind"), std::string::npos);
    EXPECT_EQ(err.find('\n'), std::string::npos); // single line

    ServeOptions longOpts = testOptions("long");
    longOpts.socketPath = "/tmp/" + std::string(200, 'x') + ".sock";
    Server longServer(longOpts);
    EXPECT_NE(longServer.start().find("too long"), std::string::npos);
}

// ---- RIX_STORE_DIR journaling ---------------------------------------

TEST(Serve, JournalsOkResultsAcrossRestarts)
{
    const std::string journal = "/tmp/rix_test_journal_" +
                                std::to_string(getpid()) + ".rixstore";
    ::remove(journal.c_str());

    ServeOptions opts = testOptions("journal");
    opts.storePath = journal;
    {
        Server server(opts);
        ASSERT_EQ(server.start(), "");
        ServeClient client;
        ASSERT_EQ(client.connect(opts.socketPath), "");

        // Two clean runs and one injected crash: only ok results are
        // journaled — failures are worth a resubmit, not a tombstone.
        ASSERT_TRUE(client.sendLine(
            "{\"op\": \"run\", \"id\": 1, \"workload\": \"gzip\", "
            "\"max_retired\": 20000}"));
        ASSERT_TRUE(client.sendLine(
            "{\"op\": \"run\", \"id\": 2, \"workload\": \"mcf\", "
            "\"max_retired\": 20000}"));
        ASSERT_TRUE(client.sendLine(
            "{\"op\": \"run\", \"id\": 3, \"workload\": \"gzip\", "
            "\"inject\": \"crash\"}"));
        std::string resp;
        for (int i = 0; i < 3; ++i)
            ASSERT_TRUE(client.recvLine(&resp));
        server.requestShutdown();
        server.waitShutdown();
        EXPECT_EQ(server.stats().journaled.load(), 2u);
    }

    std::string err;
    auto store = ResultStore::openReadOnly(journal, &err);
    ASSERT_NE(store, nullptr) << err;
    EXPECT_EQ(store->meta().kind, StoreKind::Serve);
    ASSERT_EQ(store->records().size(), 2u);
    for (const StoreRecord &r : store->records()) {
        EXPECT_TRUE(r.result.ok());
        EXPECT_GT(r.result.report.core.retired, 0u);
    }

    // A restarted daemon resumes the same journal; indices stay
    // monotonic across the generations.
    const u64 maxBefore = std::max(store->records()[0].jobIndex,
                                   store->records()[1].jobIndex);
    store.reset();
    {
        Server server(opts);
        ASSERT_EQ(server.start(), "");
        ServeClient client;
        ASSERT_EQ(client.connect(opts.socketPath), "");
        ASSERT_TRUE(client.sendLine(
            "{\"op\": \"run\", \"id\": 4, \"workload\": \"mcf\", "
            "\"max_retired\": 20000}"));
        std::string resp;
        ASSERT_TRUE(client.recvLine(&resp));
        EXPECT_EQ(statusOf(resp), "ok");
        server.requestShutdown();
        server.waitShutdown();
    }
    store = ResultStore::openReadOnly(journal, &err);
    ASSERT_NE(store, nullptr) << err;
    ASSERT_EQ(store->records().size(), 3u);
    EXPECT_GT(store->records().back().jobIndex, maxBefore);
    ::remove(journal.c_str());
}

// ---- submitBatch transient-failure retries --------------------------

namespace
{

/**
 * A deliberately flaky daemon facsimile: a raw AF_UNIX server whose
 * first connection answers exactly one request and then slams the
 * connection shut (the client sees ECONNRESET / EOF mid-batch); every
 * later connection answers everything. Runs until the listener is
 * closed.
 */
class FlakyServer
{
  public:
    explicit FlakyServer(const std::string &path) : path_(path)
    {
        ::unlink(path_.c_str());
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);
        EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)), 0);
        EXPECT_EQ(::listen(fd_, 8), 0);
        thread_ = std::thread([this]() { loop(); });
    }

    ~FlakyServer()
    {
        ::shutdown(fd_, SHUT_RDWR);
        ::close(fd_);
        thread_.join();
        ::unlink(path_.c_str());
    }

    int connections() const { return conns_.load(); }

  private:
    void
    loop()
    {
        for (;;) {
            const int c = ::accept(fd_, nullptr, nullptr);
            if (c < 0)
                return;
            const int n = conns_.fetch_add(1) + 1;
            serveConn(c, /*dropAfterOne=*/n == 1);
            ::close(c);
        }
    }

    void
    serveConn(int c, bool dropAfterOne)
    {
        std::string pending;
        int answered = 0;
        char buf[4096];
        for (;;) {
            const size_t nl = pending.find('\n');
            if (nl == std::string::npos) {
                const ssize_t n = ::recv(c, buf, sizeof(buf), 0);
                if (n <= 0)
                    return;
                pending.append(buf, size_t(n));
                continue;
            }
            const std::string line = pending.substr(0, nl);
            pending.erase(0, nl + 1);
            std::string err;
            const JsonValue doc = JsonValue::parse(line, &err);
            const JsonValue *id =
                err.empty() && doc.isObject() ? doc.find("id") : nullptr;
            const std::string resp = "{\"id\": " +
                                     (id ? id->dump() : "null") +
                                     ", \"status\": \"ok\"}\n";
            if (::send(c, resp.data(), resp.size(), MSG_NOSIGNAL) < 0)
                return;
            if (dropAfterOne && ++answered >= 1)
                return; // abrupt close mid-batch
        }
    }

    std::string path_;
    int fd_ = -1;
    std::atomic<int> conns_{0};
    std::thread thread_;
};

} // namespace

TEST(SubmitBatch, ReconnectsAndResendsUnansweredRequests)
{
    const std::string path = socketPath("flaky");
    FlakyServer flaky(path);

    std::vector<std::string> lines = {
        "{\"op\": \"ping\", \"id\": 1}",
        "{\"op\": \"ping\", \"id\": 2}",
        "{\"op\": \"ping\", \"id\": 3}",
    };
    SubmitOptions opts;
    opts.maxAttempts = 5;
    opts.backoffStartMs = 1;
    opts.backoffCapMs = 4;

    std::vector<std::string> responses;
    const SubmitOutcome out = submitBatch(
        path, lines,
        [&responses](const std::string &r) { responses.push_back(r); },
        opts);

    EXPECT_TRUE(out.complete) << out.error;
    EXPECT_EQ(out.answered, 3u);
    EXPECT_GE(out.reconnects, 1u);
    EXPECT_GE(flaky.connections(), 2);
    ASSERT_EQ(responses.size(), 3u);
    // Every id answered exactly once, whatever the arrival order.
    std::map<std::string, int> seen;
    for (const std::string &r : responses)
        ++seen[r.substr(0, r.find(','))];
    EXPECT_EQ(seen.size(), 3u);
}

TEST(SubmitBatch, GivesUpAfterBoundedAttempts)
{
    SubmitOptions opts;
    opts.maxAttempts = 3;
    opts.backoffStartMs = 1;
    opts.backoffCapMs = 2;

    size_t delivered = 0;
    const SubmitOutcome out = submitBatch(
        "/tmp/rix_test_never_listening.sock",
        {"{\"op\": \"ping\", \"id\": 1}"},
        [&delivered](const std::string &) { ++delivered; }, opts);

    EXPECT_FALSE(out.complete);
    EXPECT_EQ(delivered, 0u);
    EXPECT_EQ(out.answered, 0u);
    EXPECT_NE(out.error.find("connect"), std::string::npos)
        << out.error;
}

TEST(SubmitBatch, EmptyBatchIsTriviallyComplete)
{
    const SubmitOutcome out = submitBatch(
        "/tmp/rix_test_never_listening.sock", {},
        [](const std::string &) {});
    EXPECT_TRUE(out.complete);
    EXPECT_EQ(out.answered, 0u);
}
