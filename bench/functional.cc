/**
 * @file
 * Functional-mode throughput harness: how fast does the architectural
 * emulator itself run, in kilo-instructions executed per wall-clock
 * second (KIPS)?
 *
 * The interpreter `Emulator` sits under two load-bearing paths —
 * checkpoint builds / functional fast-forward and whole-run functional
 * counts — so its raw stepping speed multiplies directly into
 * sampled-simulation wall-time. This binary gives that speed a regression trajectory of
 * its own, exactly like bench/throughput.cc does for the detailed
 * pipeline.
 *
 * Each workload is run to HALT on a bare Emulator (no core, no caches,
 * no checking); programs are built and decoded outside the timed
 * region. Output: one single-line JSON object per workload, then one
 * aggregate line, each of the form
 *
 *   {"bench": "gzip", "kips": 123456.7, "insts": 1234567,
 *    "wall_s": 0.010}
 *
 * The aggregate line uses "bench": "aggregate"; its kips is total
 * instructions over total wall time. Redirect to BENCH_functional.json
 * to archive a trajectory point.
 *
 * Knobs: RIX_SCALE / RIX_BENCH as in every bench binary, plus
 * RIX_FUNC_REPS (default 3): each workload is run REPS times and the
 * fastest wall time is reported, de-noising the short runs.
 */

#include <chrono>

#include "base/log.hh"
#include "bench/common.hh"
#include "emu/emulator.hh"

using namespace rixbench;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

void
printLine(const std::string &name, double kips, u64 insts, double wall)
{
    printf("{\"bench\": \"%s\", \"kips\": %.1f, \"insts\": %llu, "
           "\"wall_s\": %.4f}\n",
           name.c_str(), kips, (unsigned long long)insts, wall);
}

} // namespace

int
main()
{
    const std::vector<std::string> benches = benchList();
    const u64 reps = envPositiveCount("RIX_FUNC_REPS", 3);

    // Build (and cache) every program outside the timed region: we are
    // measuring the emulator, not the workload generators or the
    // one-time pre-decode.
    for (const auto &bm : benches)
        program(bm).decoded();

    u64 total_insts = 0;
    double total_wall = 0.0;

    for (const auto &bm : benches) {
        const Program &prog = program(bm);
        Emulator emu(prog);
        u64 insts = 0;
        double best = 0.0;
        for (u64 r = 0; r < reps; ++r) {
            emu.reset();
            const auto t0 = Clock::now();
            insts = emu.run();
            const double wall = secondsSince(t0);
            if (!emu.halted())
                rix_fatal("bench functional: %s did not halt within the "
                          "step budget", bm.c_str());
            if (r == 0 || wall < best)
                best = wall;
        }
        const double kips = best > 0 ? insts / 1000.0 / best : 0.0;
        printLine(bm, kips, insts, best);
        total_insts += insts;
        total_wall += best;
    }

    const double agg_kips =
        total_wall > 0 ? total_insts / 1000.0 / total_wall : 0.0;
    printLine("aggregate", agg_kips, total_insts, total_wall);
    return 0;
}
