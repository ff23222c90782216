/**
 * @file
 * Simulation driver: runs a program on the cycle-level core, collects
 * the report, and provides the architectural cross-check against the
 * pure functional emulator (the repository's end-to-end invariant).
 */

#ifndef RIX_SIM_SIMULATOR_HH
#define RIX_SIM_SIMULATOR_HH

#include <string>

#include "cpu/core.hh"
#include "sim/presets.hh"

namespace rix
{

struct SimReport
{
    std::string workload;
    CoreStats core;
    bool halted = false;
    // Substrate statistics.
    u64 l1dMisses = 0, l1iMisses = 0, l2Misses = 0;
    u64 dtlbMisses = 0, itlbMisses = 0;
    double ipc() const { return core.ipc(); }
};

/** Collect the report of a finished (or stopped) core. */
SimReport collectReport(Core &core, const std::string &workload);

/**
 * Fatal — printing the full divergence report, prefixed with @p what —
 * when @p core stopped on a DIVA divergence. A divergence never
 * panics, so every driver that calls Core::run directly and reports
 * its statistics must call this (or inspect Core::divergence() itself)
 * before trusting the report: a diverged core stopped mid-program.
 * SimContext does it for every run.
 */
void requireNoDivergence(const Core &core, const std::string &what);

/**
 * Counter-wise @p fin - @p base: the statistics accrued *after* the
 * @p base snapshot was taken (the sampled-interval path uses this to
 * discard detailed-warmup statistics). Non-counter fields (workload,
 * halted) come from @p fin.
 */
SimReport deltaReport(const SimReport &fin, const SimReport &base);

/** Counter-wise accumulation of @p part into @p into (interval
 *  merging); halted is OR-ed, workload must match or be empty. */
void accumulateReport(SimReport &into, const SimReport &part);

/**
 * Export everything a report carries — the pipeline stats, the Figure-5
 * breakdown arrays, and the substrate (cache/TLB) statistics — into the
 * uniform named-stat namespace used by the scenario emitters.
 */
void exportReport(const SimReport &rep, StatSet &out);

/**
 * Run @p prog on a core configured by @p params: SimContext::run with
 * no RunControl, so invalid params, a stuck core (watchdog or
 * text-segment stop) and a DIVA divergence are all fatal.
 * @param max_retired stop after this many retired instructions
 * @param max_cycles  hard cycle limit
 */
SimReport runSimulation(const Program &prog, const CoreParams &params,
                        u64 max_retired = ~u64(0),
                        Cycle max_cycles = ~Cycle(0));

/**
 * End-to-end verification: run @p prog both on the cycle-level core
 * and on the functional emulator, and compare final architectural
 * registers, memory, emitted output and retired instruction count.
 * The program must halt within the limits.
 *
 * @return empty string on success, else a human-readable diagnosis.
 */
std::string verifyAgainstEmulator(const Program &prog,
                                  const CoreParams &params,
                                  u64 max_insts = 10'000'000,
                                  Cycle max_cycles = 50'000'000);

} // namespace rix

#endif // RIX_SIM_SIMULATOR_HH
