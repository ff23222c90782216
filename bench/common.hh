/**
 * @file
 * Shared infrastructure for the hand-written benchmark binaries
 * (throughput, functional, sampled, ablations, micro): the environment
 * knobs, single-run and sweep front ends, and the table printing
 * utilities. The paper's figures are scenario specs under
 * examples/scenarios/, run with `rix run` (see src/sim/scenario.hh);
 * specs read no environment.
 *
 * Environment knobs (validated; 0 or garbage is fatal, not silent):
 *   RIX_SCALE  workload scale factor (default 1; paper-like curves
 *              stabilize around 4)
 *   RIX_BENCH  comma-separated subset of benchmark names to run
 *   RIX_JOBS   simulation worker threads (default: hardware
 *              concurrency; 1 = serial on the calling thread)
 */

#ifndef RIX_BENCH_COMMON_HH
#define RIX_BENCH_COMMON_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "base/env.hh"
#include "sim/figures.hh"
#include "sim/sweep.hh"
#include "workload/program_cache.hh"
#include "workload/workload.hh"

namespace rixbench
{

using namespace rix;

/**
 * The RIX_SCALE knob. Strictly validated: historically this accepted
 * "0" and non-numeric garbage as zero, and a scale-0 workload silently
 * ran 20M instructions to the retired cap instead of failing.
 */
inline u64
scaleFromEnv()
{
    return envPositiveCount("RIX_SCALE", 1);
}

/**
 * The RIX_BENCH selection, validated against the registry (an unknown
 * name, or a value selecting nothing, is fatal); default: every
 * workload.
 */
inline std::vector<std::string>
benchList()
{
    const std::vector<std::string> all = workloadNames();
    const char *sel = getenv("RIX_BENCH");
    if (!sel)
        return all;
    std::vector<std::string> out;
    std::string cur;
    for (const char *p = sel;; ++p) {
        if (*p == ',' || *p == '\0') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
            if (*p == '\0')
                break;
        } else {
            cur += *p;
        }
    }
    // A selection that names no valid workload would silently run an
    // empty (or full) set; reject unknown names loudly instead.
    for (const std::string &name : out) {
        if (std::find(all.begin(), all.end(), name) == all.end()) {
            fprintf(stderr,
                    "RIX_BENCH: unknown workload '%s'; valid names:",
                    name.c_str());
            for (const auto &n : all)
                fprintf(stderr, " %s", n.c_str());
            fprintf(stderr, "\n");
            exit(1);
        }
    }
    if (out.empty()) {
        fprintf(stderr,
                "RIX_BENCH is set but selects no workloads ('%s')\n", sel);
        exit(1);
    }
    return out;
}

/** The shared read-only program for @p name at the RIX_SCALE scale. */
inline const Program &
program(const std::string &name)
{
    return globalProgramCache().get(name, scaleFromEnv());
}

/** One serial simulation (ablation/micro benches; not a sweep). */
inline SimReport
run(const std::string &bench, const CoreParams &params)
{
    return runSimulation(program(bench), params, 20'000'000,
                         200'000'000);
}

/**
 * Figure-sweep front end: phase one registers every (workload, config)
 * point and remembers its slot; then runAll() executes the whole plan
 * across the RIX_JOBS pool; phase two reads reports by slot.
 */
class Sweep
{
  public:
    /** Register a point; returns its slot for at()/wallSeconds(). */
    size_t
    add(const std::string &bench, const CoreParams &params)
    {
        SimJob job;
        job.workload = bench;
        job.scale = scaleFromEnv();
        job.params = params;
        jobs.push_back(std::move(job));
        return jobs.size() - 1;
    }

    /** Execute every registered point (parallel per RIX_JOBS). */
    void
    runAll()
    {
        results = SweepRunner().run(jobs);
    }

    const SimReport &at(size_t slot) const { return results[slot].report; }
    double wallSeconds(size_t slot) const
    {
        return results[slot].wallSeconds;
    }
    size_t size() const { return jobs.size(); }

  private:
    std::vector<SimJob> jobs;
    std::vector<SimJobResult> results;
};

// speedupPct / gmeanSpeedupPct come from base/stats via `using
// namespace rix` — the same single copy the figure renderers use.

inline void
printHeader(const char *title)
{
    printTableHeader(stdout, title);
}

inline void
printRowLabel(const std::string &name)
{
    printTableRowLabel(stdout, name);
}

} // namespace rixbench

#endif // RIX_BENCH_COMMON_HH
