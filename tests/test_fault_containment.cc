/**
 * @file
 * Fault-containment tests: injected hangs, crashes and transients stay
 * inside their job — the sweep completes every healthy job with
 * structured statuses, the watchdog reaps hangs, the retry policy
 * recovers transients, --strict restores fail-fast, and the fault
 * knobs (RIX_TIMEOUT_MS / RIX_RETRIES) are validated fatally.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <thread>

#include "base/fault.hh"
#include "sim/presets.hh"
#include "sim/sweep.hh"
#include "workload/program_cache.hh"

using namespace rix;

namespace
{

SimJob
job(const char *workload, JobInject inject = JobInject::None)
{
    SimJob j;
    j.workload = workload;
    j.scale = 1;
    j.maxRetired = 100'000;
    j.params = baselineParams();
    j.inject = inject;
    return j;
}

FaultPolicy
quickPolicy()
{
    FaultPolicy p;
    p.timeoutMs = 1000;
    p.retries = 2;
    p.backoffBaseMs = 1; // keep tests fast
    p.backoffCapMs = 2;
    return p;
}

} // namespace

TEST(FaultContainment, HealthyJobsCompleteAroundFailingOnes)
{
    std::vector<SimJob> jobs = {
        job("gzip"),
        job("mcf", JobInject::Crash),
        job("crafty"),
        job("gzip", JobInject::Hang),
        job("mcf"),
    };
    SweepRunner runner(4);
    FaultPolicy policy = quickPolicy();
    // Long enough that a healthy job on an oversubscribed CI runner is
    // never reaped; the hang still times out well inside the test.
    policy.timeoutMs = 2000;
    policy.retries = 0;
    const auto res = runner.run(jobs, policy);

    ASSERT_EQ(res.size(), jobs.size());
    EXPECT_EQ(res[0].status, JobStatus::Ok);
    EXPECT_EQ(res[1].status, JobStatus::Crash);
    EXPECT_EQ(res[2].status, JobStatus::Ok);
    EXPECT_EQ(res[3].status, JobStatus::Timeout);
    EXPECT_EQ(res[4].status, JobStatus::Ok);
    // The healthy results are real simulations, not placeholders.
    EXPECT_GT(res[0].report.core.retired, 0u);
    EXPECT_GT(res[4].report.core.retired, 0u);
    // The failed ones carry diagnostics.
    EXPECT_NE(res[1].error.find("injected crash"), std::string::npos);
    EXPECT_NE(res[3].error.find("watchdog"), std::string::npos);
}

TEST(FaultContainment, FailuresDontPerturbNeighboringResults)
{
    // The acceptance bar: a sweep with K poisoned jobs must produce
    // bit-identical simulated numbers for the other N-K.
    std::vector<SimJob> clean = {job("gzip"), job("mcf")};
    std::vector<SimJob> dirty = {job("gzip"), job("crafty", JobInject::Crash),
                                 job("mcf")};
    SweepRunner runner(2);
    const FaultPolicy policy = quickPolicy();
    const auto a = runner.run(clean, policy);
    const auto b = runner.run(dirty, policy);
    ASSERT_EQ(a.size(), 2u);
    ASSERT_EQ(b.size(), 3u);
    EXPECT_EQ(a[0].report.core.cycles, b[0].report.core.cycles);
    EXPECT_EQ(a[0].report.core.retired, b[0].report.core.retired);
    EXPECT_EQ(a[1].report.core.cycles, b[2].report.core.cycles);
    EXPECT_EQ(a[1].report.core.retired, b[2].report.core.retired);
}

TEST(FaultContainment, TransientFailureRecoversByRetry)
{
    SimContext ctx;
    const SimJobResult r =
        runJobContained(ctx, job("gzip", JobInject::Transient),
                        quickPolicy());
    EXPECT_EQ(r.status, JobStatus::Ok);
    EXPECT_EQ(r.attempts, 2u); // failed once, recovered once
    EXPECT_GT(r.report.core.retired, 0u);
}

TEST(FaultContainment, TransientExhaustsRetryBudget)
{
    SimContext ctx;
    FaultPolicy policy = quickPolicy();
    policy.retries = 0; // transient fires on attempt 1: no recovery
    const SimJobResult r =
        runJobContained(ctx, job("gzip", JobInject::Transient), policy);
    EXPECT_EQ(r.status, JobStatus::Transient);
    EXPECT_EQ(r.attempts, 1u);
}

TEST(FaultContainment, WatchdogReapsHangWithinTimeout)
{
    SimContext ctx;
    FaultPolicy policy = quickPolicy();
    policy.timeoutMs = 100;
    policy.retries = 1;
    const auto t0 = std::chrono::steady_clock::now();
    const SimJobResult r =
        runJobContained(ctx, job("gzip", JobInject::Hang), policy);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    EXPECT_EQ(r.status, JobStatus::Timeout);
    EXPECT_EQ(r.attempts, 2u); // timeouts are transient: one retry
    // Two 100 ms watchdog windows plus backoff; nowhere near a hang.
    EXPECT_LT(elapsed, 5.0);
}

TEST(FaultContainment, UnknownWorkloadIsInvalidNotFatal)
{
    SimContext ctx;
    const SimJobResult r =
        runJobContained(ctx, job("nonexistent"), quickPolicy());
    EXPECT_EQ(r.status, JobStatus::Invalid);
    EXPECT_NE(r.error.find("unknown workload"), std::string::npos);
    EXPECT_EQ(r.attempts, 1u); // permanent: never retried
}

TEST(FaultContainment, InvalidConfigIsInvalidNotFatal)
{
    SimContext ctx;
    SimJob j = job("gzip");
    j.params.fetchWidth = 0;
    const SimJobResult r = runJobContained(ctx, j, quickPolicy());
    EXPECT_EQ(r.status, JobStatus::Invalid);
    EXPECT_FALSE(r.error.empty());
}

TEST(FaultContainment, HangWithWatchdogDisabledIsAnError)
{
    // timeoutMs == 0 disables the watchdog; an injected hang would
    // then block forever, so the injector refuses to start it.
    SimContext ctx;
    FaultPolicy policy = quickPolicy();
    policy.timeoutMs = 0;
    const SimJobResult r =
        runJobContained(ctx, job("gzip", JobInject::Hang), policy);
    EXPECT_EQ(r.status, JobStatus::Crash);
}

TEST(FaultContainment, StrictModeDiesOnFirstFailure)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    std::vector<SimJob> jobs = {job("gzip"),
                                job("mcf", JobInject::Crash)};
    FaultPolicy policy = quickPolicy();
    policy.strict = true;
    EXPECT_DEATH(
        {
            SweepRunner runner(1);
            runner.run(jobs, policy);
        },
        "strict");
}

TEST(FaultContainment, BackoffGrowsExponentiallyAndCaps)
{
    FaultPolicy p;
    p.backoffBaseMs = 10;
    p.backoffCapMs = 2000;
    EXPECT_EQ(p.backoffMs(1), 10u);
    EXPECT_EQ(p.backoffMs(2), 20u);
    EXPECT_EQ(p.backoffMs(3), 40u);
    EXPECT_EQ(p.backoffMs(12), 2000u); // capped
    EXPECT_EQ(p.backoffMs(60), 2000u); // no overflow wraparound
}

TEST(FaultContainment, StatusNamesRoundTrip)
{
    for (int i = 0; i < 8; ++i) {
        const JobStatus s = JobStatus(i);
        JobStatus back = JobStatus::Ok;
        EXPECT_TRUE(jobStatusFromName(jobStatusName(s), &back));
        EXPECT_EQ(back, s);
    }
    JobStatus ignored;
    EXPECT_FALSE(jobStatusFromName("bogus", &ignored));
}

TEST(FaultContainment, EnvKnobsAreStrictlyValidated)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    setenv("RIX_TIMEOUT_MS", "soon", 1);
    EXPECT_DEATH(FaultPolicy::fromEnv(), "RIX_TIMEOUT_MS");
    setenv("RIX_TIMEOUT_MS", "-5", 1);
    EXPECT_DEATH(FaultPolicy::fromEnv(), "RIX_TIMEOUT_MS");
    unsetenv("RIX_TIMEOUT_MS");

    setenv("RIX_RETRIES", "many", 1);
    EXPECT_DEATH(FaultPolicy::fromEnv(), "RIX_RETRIES");
    setenv("RIX_RETRIES", "101", 1);
    EXPECT_DEATH(FaultPolicy::fromEnv(), "RIX_RETRIES");
    unsetenv("RIX_RETRIES");

    setenv("RIX_TIMEOUT_MS", "250", 1);
    setenv("RIX_RETRIES", "7", 1);
    const FaultPolicy p = FaultPolicy::fromEnv();
    EXPECT_EQ(p.timeoutMs, 250u);
    EXPECT_EQ(p.retries, 7u);
    unsetenv("RIX_TIMEOUT_MS");
    unsetenv("RIX_RETRIES");
}

TEST(FaultContainment, CancelTokenDeadlineFires)
{
    CancelToken token;
    token.arm(30);
    EXPECT_EQ(token.poll(), CancelReason::None);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    EXPECT_EQ(token.poll(), CancelReason::Deadline);
    EXPECT_EQ(token.firedReason(), CancelReason::Deadline);
}

TEST(FaultContainment, CancelTokenExternalWinsRace)
{
    CancelToken token;
    token.arm(10'000);
    token.cancel(CancelReason::External);
    EXPECT_EQ(token.poll(), CancelReason::External);
    // First cause sticks even if the deadline later passes.
    token.cancel(CancelReason::Deadline);
    EXPECT_EQ(token.firedReason(), CancelReason::External);

    // A run handed the already-cancelled token stops at its first
    // poll, before any cycle: skipped, not timed out.
    JobFault fault;
    RunControl ctl;
    ctl.cancel = &token;
    ctl.fault = &fault;
    const SimReport rep =
        SimContext().run(globalProgramCache().get("gzip", 1),
                         baselineParams(), 100'000, 1'000'000, ctl);
    EXPECT_EQ(fault.status, JobStatus::Skipped);
    EXPECT_EQ(rep.core.cycles, 0u);
}
