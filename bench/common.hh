/**
 * @file
 * Shared infrastructure for the hand-written benchmark binaries
 * (throughput, functional, sampled): the environment knobs and the
 * shared program lookup. Every paper experiment, figures and
 * ablations alike, is a scenario spec under examples/scenarios/, run
 * with `rix run` (see src/sim/scenario.hh); specs read no environment.
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

} // namespace rixbench

#endif // RIX_BENCH_COMMON_HH
