#include "sim/sweep.hh"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "base/log.hh"
#include "base/thread_pool.hh"
#include "sim/sampling/checkpoint_cache.hh"
#include "sim/validate.hh"
#include "trace/metrics.hh"
#include "trace/profiler.hh"
#include "trace/trace.hh"
#include "workload/program_cache.hh"

namespace rix
{

const char *
jobInjectName(JobInject inject)
{
    switch (inject) {
      case JobInject::None: return "none";
      case JobInject::Hang: return "hang";
      case JobInject::Crash: return "crash";
      case JobInject::Transient: return "transient";
    }
    return "?";
}

bool
jobInjectFromName(const std::string &name, JobInject *out)
{
    for (JobInject i : {JobInject::None, JobInject::Hang, JobInject::Crash,
                        JobInject::Transient}) {
        if (name == jobInjectName(i)) {
            *out = i;
            return true;
        }
    }
    return false;
}

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * One execution attempt. @p cancel is the armed watchdog token.
 * Simulation failures and exceptions land in the result's status.
 */
SimJobResult
executeOnce(SimContext &ctx, const SimJob &job, const CancelToken *cancel,
            unsigned attempt, const JobInputSource &inputs)
{
    SimJobResult res;
    const auto t0 = Clock::now();
    try {
        if (job.inject == JobInject::Crash)
            throw std::runtime_error("injected crash");
        if (job.inject == JobInject::Transient && attempt == 1)
            throw TransientError("injected transient failure");
        if (job.inject == JobInject::Hang) {
            // A hung job: no forward progress, only the watchdog can
            // reap it. Cooperative (polls the token) so the test
            // proves the timeout path without leaking a real thread.
            while (cancel->poll() == CancelReason::None)
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            res.status = cancel->firedReason() == CancelReason::Deadline
                             ? JobStatus::Timeout
                             : JobStatus::Skipped;
            res.error = job.workload + ": injected hang reaped by watchdog";
        } else {
            // The program — and for sampled jobs the checkpoint — is
            // shared read-only across all jobs and threads; build
            // (once) outside the timed region, like the program image.
            // Default source: the process-wide unbounded caches,
            // wrapped non-owning (their entries outlive every job).
            PinnedJobInputs in;
            if (inputs) {
                in = inputs(job);
            } else {
                in.prog = std::shared_ptr<const Program>(
                    &globalProgramCache().get(job.workload, job.scale),
                    [](const Program *) {});
                if (job.sampled())
                    in.from = std::shared_ptr<const Checkpoint>(
                        &globalCheckpointCache().get(job.workload,
                                                     job.scale,
                                                     job.checkpointAt),
                        [](const Checkpoint *) {});
            }
            JobFault fault;
            RunControl ctl;
            ctl.cancel = cancel;
            ctl.fault = &fault;
            ctl.trace = job.trace.get();
            ctl.traceStart = job.traceStart;
            ctl.traceCount = job.traceCount;
            ctl.metrics = job.metrics.get();
            res.report =
                in.from ? ctx.runInterval(*in.prog, *in.from, job.params,
                                          job.warmup, job.maxRetired,
                                          job.maxCycles, ctl)
                        : ctx.run(*in.prog, job.params, job.maxRetired,
                                  job.maxCycles, ctl);
            res.status = fault.status;
            res.error = fault.message;
            res.divergence = fault.divergence;
        }
    } catch (const TransientError &e) {
        res.status = JobStatus::Transient;
        res.error = e.what();
    } catch (const std::exception &e) {
        res.status = JobStatus::Crash;
        res.error = e.what();
    }
    res.wallSeconds = std::chrono::duration<double>(Clock::now() - t0).count();
    return res;
}

} // namespace

/** Fault-contained execution under @p policy: pre-validate without
 *  dying, arm the watchdog per attempt, retry transient failures with
 *  exponential backoff. */
SimJobResult
runJobContained(SimContext &ctx, const SimJob &job,
                const FaultPolicy &policy, const JobInputSource &inputs)
{
    // Reject un-runnable jobs up front with the non-fatal validators;
    // SimContext's fatal checks then never fire on this path.
    SimJobResult invalid;
    invalid.status = JobStatus::Invalid;
    if (!workloadExists(job.workload)) {
        invalid.error = "unknown workload '" + job.workload + "'";
        return invalid;
    }
    if (std::string verr = validateCoreParams(job.params); !verr.empty()) {
        for (char &c : verr)
            if (c == '\n')
                c = ';';
        invalid.error = job.workload + ": " + verr;
        return invalid;
    }
    if (job.inject == JobInject::Hang && policy.timeoutMs == 0) {
        invalid.status = JobStatus::Crash;
        invalid.error = "injected hang with no watchdog armed";
        return invalid;
    }

    // One token per worker thread, re-armed per attempt.
    thread_local CancelToken token;
    for (unsigned attempt = 1;; ++attempt) {
        token.arm(policy.timeoutMs);
        SimJobResult res = executeOnce(ctx, job, &token, attempt, inputs);
        res.attempts = attempt;
        if (!jobStatusIsTransient(res.status) || attempt > policy.retries)
            return res;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(policy.backoffMs(attempt)));
    }
}

SimJobResult
runJobOnThread(const SimJob &job, const FaultPolicy &policy,
               const JobInputSource &inputs)
{
    // Worker-owned without the pool knowing about simulation types;
    // each context dies with its thread.
    thread_local SimContext ctx;
    try {
        return runJobContained(ctx, job, policy, inputs);
    } catch (const std::exception &e) {
        SimJobResult r;
        r.status = JobStatus::Crash;
        r.error = e.what();
        return r;
    }
}

SimContext::SimContext() = default;
SimContext::~SimContext() = default;

namespace
{

/**
 * Translate how the core stopped — or why @p cancelled stopped it —
 * into either a JobFault (contained path) or the historical fatal
 * (ctl.fault null). Divergence keeps its full DIVA report; stuck keeps
 * the watchdog's diagnosis; a fired deadline is a timeout; an external
 * cancel means the job was asked to stop (shutdown) and is reported
 * skipped.
 */
void
noteOutcome(const Core &core, const std::string &what, const RunControl &ctl,
            CancelReason cancelled)
{
    if (!ctl.fault) {
        if (core.stuck())
            rix_fatal("%s: %s", what.c_str(), core.stuckReason().c_str());
        requireNoDivergence(core, what);
        return;
    }
    JobFault &f = *ctl.fault;
    if (const DivergenceReport *d = core.divergence()) {
        f.status = JobStatus::Divergence;
        f.message = what + ": divergence (" + d->kind + ") at icount " +
                    std::to_string(d->icount);
        f.divergence = *d;
    } else if (core.stuck()) {
        f.status = JobStatus::Stuck;
        f.message = what + ": " + core.stuckReason();
    } else if (cancelled == CancelReason::Deadline) {
        f.status = JobStatus::Timeout;
        f.message = what + ": wall-clock timeout after " +
                    std::to_string(core.stats().cycles) + " cycles";
    } else if (cancelled == CancelReason::External) {
        f.status = JobStatus::Skipped;
        f.message = what + ": cancelled";
    }
}

} // namespace

CancelReason
SimContext::advance(u64 max_retired, Cycle max_cycles,
                    const CancelToken *cancel, MetricsRecorder *metrics)
{
    Core &core = *core_;
    const CoreStats &s = core.stats();
    Cycle nextSample = ~Cycle(0);
    if (metrics) {
        metrics->begin(collectReport(core, {}));
        nextSample = s.cycles + metrics->every();
    }
    CancelReason why = CancelReason::None;
    while (!core.stopped() && s.retired < max_retired &&
           s.cycles < max_cycles) {
        // A chunk edge: poll (the clock read) on 1024-cycle multiples,
        // then close a metrics interval if one is due. Both only read
        // the core, which stops between cycles with consistent state.
        const Cycle now = s.cycles;
        if (cancel && (now & 1023) == 0) {
            why = cancel->poll();
            if (why != CancelReason::None)
                break;
        }
        if (metrics && now >= nextSample) {
            metrics->sample(collectReport(core, {}));
            nextSample = now + metrics->every();
        }
        Cycle edge = max_cycles;
        if (cancel)
            edge = std::min(edge, (now | 1023) + 1);
        edge = std::min(edge, nextSample);
        core.run(max_retired, edge);
    }
    // Close the final (possibly partial) interval so the series always
    // sums to the run's aggregate counters.
    if (metrics)
        metrics->sample(collectReport(core, {}));
    return why;
}

SimReport
SimContext::run(const Program &prog, const CoreParams &params,
                u64 max_retired, Cycle max_cycles, const RunControl &ctl)
{
    requireValidCoreParams(params, "SimContext(" + prog.name + ")");
    if (!core_)
        core_ = std::make_unique<Core>(prog, params);
    else
        core_->reset(prog, params);
    if (ctl.trace)
        core_->setTraceSink(ctl.trace, ctl.traceStart, ctl.traceCount);
    CancelReason why;
    {
        ScopedPhase timer(HostPhase::DetailedSim);
        why = advance(max_retired, max_cycles, ctl.cancel, ctl.metrics);
    }
    if (ctl.trace)
        ctl.trace->flush();
    noteOutcome(*core_, prog.name, ctl, why);
    return collectReport(*core_, prog.name);
}

SimReport
SimContext::runInterval(const Program &prog, const Checkpoint &from,
                        const CoreParams &params, u64 warmup, u64 measure,
                        Cycle max_cycles, const RunControl &ctl)
{
    requireValidCoreParams(params, "SimContext(" + prog.name + ")");
    if (!core_)
        core_ = std::make_unique<Core>(prog, params);
    {
        ScopedPhase timer(HostPhase::CheckpointRestore);
        core_->reset(prog, params, from);
    }

    // Detailed warmup: simulate but snapshot-and-subtract the
    // statistics. Both phases end on an *exact* retired-instruction
    // boundary (setRetireStop), so the interval covers precisely
    // [checkpoint, checkpoint+warmup+measure) of the architectural
    // stream and adjacent intervals never double-count instructions
    // through multi-wide retirement overshoot.
    CancelReason why = CancelReason::None;
    if (warmup) {
        ScopedPhase timer(HostPhase::DetailedSim);
        core_->setRetireStop(warmup);
        why = advance(warmup, max_cycles, ctl.cancel, nullptr);
    }
    const SimReport warm = collectReport(*core_, prog.name);

    if (why == CancelReason::None) {
        // Observability starts after warmup: the trace window indexes
        // into the measured retire stream and the metrics series
        // covers exactly the measured (reported) interval.
        const u64 warmed = core_->stats().retired;
        if (ctl.trace) {
            const u64 start = ctl.traceStart > ~u64(0) - warmed
                                  ? ~u64(0)
                                  : warmed + ctl.traceStart;
            core_->setTraceSink(ctl.trace, start, ctl.traceCount);
        }
        const u64 target =
            measure > ~u64(0) - warmed ? ~u64(0) : warmed + measure;
        core_->setRetireStop(target);
        ScopedPhase timer(HostPhase::DetailedSim);
        why = advance(target, max_cycles, ctl.cancel, ctl.metrics);
    } else if (ctl.metrics) {
        ctl.metrics->begin(warm); // cancelled in warmup: no intervals
    }
    if (ctl.trace)
        ctl.trace->flush();
    noteOutcome(*core_, strfmt("%s (interval from %llu)", prog.name.c_str(),
                               (unsigned long long)from.icount),
                ctl, why);
    return deltaReport(collectReport(*core_, prog.name), warm);
}

SweepRunner::SweepRunner(unsigned num_threads)
    : nThreads(num_threads ? num_threads : jobsFromEnv())
{
}

std::vector<SimJobResult>
SweepRunner::run(const std::vector<SimJob> &jobs)
{
    return run(jobs, FaultPolicy{/*strict=*/true});
}

std::vector<SimJobResult>
SweepRunner::run(const std::vector<SimJob> &jobs, const FaultPolicy &policy,
                 const SweepRetireHook &on_retire)
{
    std::vector<SimJobResult> results(jobs.size());
    parallelFor(nThreads, jobs.size(), [&](size_t i) {
        results[i] = runJobOnThread(jobs[i], policy);
        // Durability before completion: the job is not "done" until
        // its result is journaled.
        if (on_retire)
            on_retire(i, results[i]);
    });

    if (policy.strict)
        requireJobsOk(results, [&jobs](size_t i) {
            return strfmt("job %zu (%s)", i, jobs[i].workload.c_str());
        });
    return results;
}

void
requireJobsOk(const std::vector<SimJobResult> &results,
              const std::function<std::string(size_t)> &describe)
{
    for (size_t i = 0; i < results.size(); ++i) {
        const SimJobResult &r = results[i];
        if (r.ok())
            continue;
        // A divergence dies with the full DIVA report, like a direct
        // run (requireNoDivergence); everything else with its one line.
        const std::string detail =
            r.status == JobStatus::Divergence
                ? r.divergence.format()
                : std::string(jobStatusName(r.status)) + ": " + r.error;
        rix_fatal("strict: %s failed: %s", describe(i).c_str(),
                  detail.c_str());
    }
}

} // namespace rix
