/**
 * @file
 * Host-phase profiler: where does `rix` itself spend wall time?
 *
 * The simulated machine has the stats registry; the *host* process had
 * nothing — a slow sweep could be decode-bound, checkpoint-bound or
 * journal-bound and look identical from the outside. This profiler
 * aggregates wall time into a handful of coarse phases (program decode,
 * checkpoint build/restore, functional fast-forward, detailed
 * simulation, store journaling, serve request handling) behind scoped
 * RAII timers.
 *
 * Discipline matches the other observability taps: disabled by default,
 * and a disarmed ScopedPhase costs one relaxed atomic load — no clock
 * reads, no stores. Phases are attributed where the work happens, so
 * they can nest (a serve request contains decode + sim time); the
 * columns answer "how much wall time did phase X consume", not "do the
 * phases sum to the run time".
 *
 * Enabled by the scenario spec's `"profile": true`, by `rix serve`
 * (always — the daemon is long-lived, the cost is a clock read per
 * phase entry), or programmatically. Exported as `host_<phase>_s` /
 * `host_<phase>_calls` through exportReport (when enabled) and the
 * serve `stats` op.
 */

#ifndef RIX_TRACE_PROFILER_HH
#define RIX_TRACE_PROFILER_HH

#include <atomic>
#include <chrono>

#include "base/types.hh"

namespace rix
{

class StatSet;

enum class HostPhase : unsigned
{
    Decode,            // Program -> DecodedProgram build
    CheckpointBuild,   // Emulator::snapshot
    CheckpointRestore, // Emulator::restore (golden, ff seed)
    FastForward,       // functional emulation up to a checkpoint icount
    DetailedSim,       // Core::run (warmup + measure)
    StoreJournal,      // result-store append + commit
    ServeRequest,      // serve request handling, admission to response
};

constexpr unsigned numHostPhases = 7;

const char *hostPhaseName(HostPhase phase);

/** Process-wide aggregation: per-phase total nanoseconds and entries. */
class HostProfiler
{
  public:
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    void
    setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    void
    add(HostPhase phase, u64 nanos)
    {
        const auto i = unsigned(phase);
        ns_[i].fetch_add(nanos, std::memory_order_relaxed);
        calls_[i].fetch_add(1, std::memory_order_relaxed);
    }

    u64
    nanos(HostPhase phase) const
    {
        return ns_[unsigned(phase)].load(std::memory_order_relaxed);
    }

    u64
    calls(HostPhase phase) const
    {
        return calls_[unsigned(phase)].load(std::memory_order_relaxed);
    }

    void reset();

    /** "host_<phase>_s" (seconds) and "host_<phase>_calls" per phase. */
    void exportTo(StatSet &out) const;

  private:
    std::atomic<bool> enabled_{false};
    std::atomic<u64> ns_[numHostPhases]{};
    std::atomic<u64> calls_[numHostPhases]{};
};

/** The process-wide profiler every ScopedPhase reports into. */
HostProfiler &hostProfiler();

/** RAII timer attributing its scope's wall time to one phase. */
class ScopedPhase
{
  public:
    explicit ScopedPhase(HostPhase phase)
    {
        if (hostProfiler().enabled()) {
            active_ = true;
            phase_ = phase;
            t0_ = std::chrono::steady_clock::now();
        }
    }

    ~ScopedPhase()
    {
        if (active_) {
            const auto dt = std::chrono::steady_clock::now() - t0_;
            hostProfiler().add(
                phase_,
                u64(std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                        .count()));
        }
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    bool active_ = false;
    HostPhase phase_ = HostPhase::Decode;
    std::chrono::steady_clock::time_point t0_;
};

} // namespace rix

#endif // RIX_TRACE_PROFILER_HH
