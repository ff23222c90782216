/**
 * @file
 * Sampled-simulation tests: plan construction and parsing, the
 * checkpoint cache's build-once/incremental-seed discipline, the
 * exactness guarantee (a single interval covering the whole run is
 * bit-identical to the full detailed simulation), and the scenario
 * subsystem's sampling expansion/merging.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "base/log.hh"
#include "sim/presets.hh"
#include "sim/sampling/checkpoint_cache.hh"
#include "sim/sampling/sampling.hh"
#include "sim/scenario.hh"
#include "workload/program_cache.hh"

using namespace rix;

namespace
{

void
expectSameCheckpoint(const Checkpoint &a, const Checkpoint &b)
{
    EXPECT_EQ(a.icount, b.icount);
    EXPECT_EQ(a.pc, b.pc);
    EXPECT_EQ(a.halted, b.halted);
    EXPECT_EQ(a.regs, b.regs);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.diffVsImage, b.diffVsImage);
    ASSERT_EQ(a.pages.size(), b.pages.size());
    for (size_t i = 0; i < a.pages.size(); ++i) {
        EXPECT_EQ(a.pages[i].pageNumber, b.pages[i].pageNumber);
        EXPECT_EQ(memcmp(a.pages[i].bytes.data(), b.pages[i].bytes.data(),
                         Memory::pageBytes),
                  0)
            << "page " << a.pages[i].pageNumber;
    }
}

/** Bit-exact comparison of everything simulated in a report. */
void
expectIdenticalReport(const SimReport &a, const SimReport &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.halted, b.halted);
    EXPECT_EQ(memcmp(&a.core, &b.core, sizeof(CoreStats)), 0)
        << a.workload << ": some CoreStats field differs";
    EXPECT_EQ(a.l1dMisses, b.l1dMisses);
    EXPECT_EQ(a.l1iMisses, b.l1iMisses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.dtlbMisses, b.dtlbMisses);
    EXPECT_EQ(a.itlbMisses, b.itlbMisses);
}

} // namespace

TEST(SamplingPlan, PeriodicExpansion)
{
    const SamplingPlan plan = makePeriodicPlan(900, 50, 100, 3);
    ASSERT_EQ(plan.intervals.size(), 3u);
    // Interval k starts after k periods plus its own fast-forward.
    EXPECT_EQ(plan.intervals[0].checkpointAt, 900u);
    EXPECT_EQ(plan.intervals[1].checkpointAt, 900u + 1050u);
    EXPECT_EQ(plan.intervals[2].checkpointAt, 900u + 2100u);
    for (const SamplingInterval &iv : plan.intervals) {
        EXPECT_EQ(iv.warmup, 50u);
        EXPECT_EQ(iv.measure, 100u);
    }
    EXPECT_EQ(plan.plannedWarmup(), 150u);
    EXPECT_EQ(plan.plannedMeasure(), 300u);
}

TEST(SamplingPlan, DegenerateInputsAreFatal)
{
    EXPECT_EXIT(makePeriodicPlan(0, 0, 0, 1),
                ::testing::ExitedWithCode(1), "'measure' must be >= 1");
    EXPECT_EXIT(makePeriodicPlan(0, 0, 100, 0),
                ::testing::ExitedWithCode(1), "'repeat' must be >= 1");
    EXPECT_EXIT(makePeriodicPlan(~u64(0), 1, 1, 2),
                ::testing::ExitedWithCode(1), "overflows");
}

TEST(SamplingPlan, ParseBlockForms)
{
    std::string err;
    const JsonValue periodic = JsonValue::parse(
        R"({"fast_forward": 1000, "warmup": 10, "measure": 90,
            "repeat": 2})",
        &err);
    ASSERT_EQ(err, "");
    SamplingPlan plan = parseSamplingBlock(periodic);
    ASSERT_EQ(plan.intervals.size(), 2u);
    EXPECT_EQ(plan.intervals[0].checkpointAt, 1000u);
    EXPECT_EQ(plan.intervals[1].checkpointAt, 2100u);

    // measure alone is a whole-run-from-0 single interval.
    const JsonValue minimal = JsonValue::parse(R"({"measure": 500})", &err);
    ASSERT_EQ(err, "");
    plan = parseSamplingBlock(minimal);
    ASSERT_EQ(plan.intervals.size(), 1u);
    EXPECT_EQ(plan.intervals[0].checkpointAt, 0u);
    EXPECT_EQ(plan.intervals[0].warmup, 0u);
    EXPECT_EQ(plan.intervals[0].measure, 500u);

    const JsonValue explicitList = JsonValue::parse(
        R"({"intervals": [
              {"start": 0, "measure": 100},
              {"start": 5000, "warmup": 20, "measure": 100}]})",
        &err);
    ASSERT_EQ(err, "");
    plan = parseSamplingBlock(explicitList);
    ASSERT_EQ(plan.intervals.size(), 2u);
    EXPECT_EQ(plan.intervals[0].warmup, 0u);
    EXPECT_EQ(plan.intervals[1].checkpointAt, 5000u);
    EXPECT_EQ(plan.intervals[1].warmup, 20u);

    // Back-to-back intervals (next start == previous detailed end)
    // are legal: the windows touch but never overlap.
    const JsonValue adjacent = JsonValue::parse(
        R"({"intervals": [{"start": 0, "warmup": 10, "measure": 90},
                          {"start": 100, "measure": 50}]})",
        &err);
    ASSERT_EQ(err, "");
    plan = parseSamplingBlock(adjacent);
    ASSERT_EQ(plan.intervals.size(), 2u);
}

TEST(SamplingPlan, ParseBlockRejectsMisconfigurations)
{
    auto parse = [](const char *text) {
        std::string err;
        const JsonValue v = JsonValue::parse(text, &err);
        ASSERT_EQ(err, "") << text;
        parseSamplingBlock(v);
    };
    EXPECT_EXIT(parse(R"({"bogus": 1})"), ::testing::ExitedWithCode(1),
                "unknown 'sampling' field 'bogus'");
    EXPECT_EXIT(parse(R"({"fast_forward": 5})"),
                ::testing::ExitedWithCode(1), "needs 'measure'");
    EXPECT_EXIT(parse(R"({"measure": 0})"), ::testing::ExitedWithCode(1),
                "must be >= 1");
    EXPECT_EXIT(parse(R"({"measure": 10.5})"),
                ::testing::ExitedWithCode(1), "expected an integer");
    EXPECT_EXIT(parse(R"({"measure": 10, "intervals": []})"),
                ::testing::ExitedWithCode(1),
                "cannot be combined");
    EXPECT_EXIT(parse(R"({"intervals": []})"),
                ::testing::ExitedWithCode(1), "non-empty array");
    EXPECT_EXIT(parse(R"({"intervals": [{"start": 0}]})"),
                ::testing::ExitedWithCode(1), "needs a 'measure'");
    EXPECT_EXIT(parse(R"({"intervals": [{"measure": 5}]})"),
                ::testing::ExitedWithCode(1), "needs a 'start'");
    EXPECT_EXIT(
        parse(R"({"intervals": [{"start": 100, "measure": 5},
                                {"start": 100, "measure": 5}]})"),
        ::testing::ExitedWithCode(1), "must not overlap");
    // An interval starting inside the previous detailed window would
    // double-count that stretch of the stream.
    EXPECT_EXIT(
        parse(R"({"intervals": [{"start": 0, "measure": 100000},
                                {"start": 10, "measure": 100000}]})"),
        ::testing::ExitedWithCode(1), "must not overlap");
    EXPECT_EXIT(
        parse(R"({"intervals": [
                    {"start": 0, "warmup": 50, "measure": 100},
                    {"start": 149, "measure": 100}]})"),
        ::testing::ExitedWithCode(1), "must not overlap");
    EXPECT_EXIT(parse(R"({"intervals": [{"start": 0, "measure": 5,
                                         "extra": 1}]})"),
                ::testing::ExitedWithCode(1),
                "unknown sampling interval field 'extra'");
}

TEST(CheckpointCache, BuildsOnceAndReturnsStableReferences)
{
    CheckpointCache cache;
    const Checkpoint &a = cache.get("gzip", 1, 5'000);
    const Checkpoint &b = cache.get("gzip", 1, 5'000);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(cache.builds(), 1u);
    EXPECT_EQ(a.icount, 5'000u);

    cache.get("gzip", 1, 9'000);
    cache.get("gzip", 2, 5'000); // different scale: its own slot
    EXPECT_EQ(cache.builds(), 3u);
    EXPECT_EQ(cache.size(), 3u);
}

TEST(CheckpointCache, IncrementalSeedingIsBitIdenticalToScratch)
{
    // Warm cache: ascending gets seed each build from the previous
    // checkpoint. Cold cache: one direct fast-forward. Same snapshot.
    CheckpointCache warm;
    warm.get("mcf", 1, 2'000);
    warm.get("mcf", 1, 10'000);
    const Checkpoint &incremental = warm.get("mcf", 1, 25'000);

    CheckpointCache cold;
    const Checkpoint &scratch = cold.get("mcf", 1, 25'000);

    expectSameCheckpoint(incremental, scratch);
}

TEST(CheckpointCache, TotalInstsCountsToHaltAndHonorsCap)
{
    CheckpointCache cache;
    const Program &prog = globalProgramCache().get("gzip", 1);
    Emulator emu(prog);
    emu.run(100'000'000);
    ASSERT_TRUE(emu.halted());

    EXPECT_EQ(cache.totalInsts("gzip", 1, 100'000'000),
              emu.instsExecuted());
    EXPECT_EQ(cache.totalInsts("gzip", 1, 1'000), 1'000u);
}

TEST(CheckpointCache, PastEndOfRunCheckpointsAtHalt)
{
    CheckpointCache cache;
    const u64 total = cache.totalInsts("gzip", 1, 100'000'000);
    const Checkpoint &past = cache.get("gzip", 1, total + 1'000'000);
    EXPECT_TRUE(past.halted);
    EXPECT_EQ(past.icount, total);
}

// Acceptance criterion: a sampling plan whose single interval covers
// the entire run produces a report bit-identical to the full detailed
// run, for at least two workloads.
TEST(SampledExactness, WholeRunSingleIntervalIsBitIdentical)
{
    const CoreParams params = integrationParams(IntegrationMode::Reverse);
    for (const char *workload : {"mcf", "gzip"}) {
        const Program &prog = globalProgramCache().get(workload, 1);
        const SimReport full =
            runSimulation(prog, params, 20'000'000, 200'000'000);
        ASSERT_TRUE(full.halted) << workload;

        Emulator emu(prog);
        const Checkpoint start = emu.snapshot();

        SimContext ctx;
        const SimReport sampled = ctx.runInterval(
            prog, start, params, /*warmup=*/0,
            /*measure=*/20'000'000, /*max_cycles=*/200'000'000);
        expectIdenticalReport(full, sampled);
    }
}

TEST(SampledExactness, AdjacentIntervalsNeverDoubleCount)
{
    // Back-to-back windows partition the stream: the exact retirement
    // boundary means the first interval's final cycle cannot retire
    // instructions that belong to the second.
    const CoreParams params = integrationParams(IntegrationMode::Reverse);
    const Program &prog = globalProgramCache().get("gzip", 1);
    CheckpointCache cache;
    SimContext ctx;
    const SimReport a = ctx.runInterval(prog, cache.get("gzip", 1, 0),
                                        params, 0, 100, 1'000'000);
    const SimReport b = ctx.runInterval(prog, cache.get("gzip", 1, 100),
                                        params, 0, 100, 1'000'000);
    EXPECT_EQ(a.core.retired, 100u);
    EXPECT_EQ(b.core.retired, 100u);
}

TEST(SampledScenario, FigRendersRejectSampling)
{
    // A figure table built from sampled estimates would be
    // indistinguishable from a measured one; only the generic row
    // renders (which carry the sampled_* columns) may be sampled.
    EXPECT_EXIT(parseScenario(R"({"render": "fig5",
                                  "sampling": {"measure": 100}})"),
                ::testing::ExitedWithCode(1), "full detailed");
}

TEST(SampledScenario, PlanPastMaxRetiredIsFatal)
{
    // A detailed window beyond max_retired would measure instructions
    // the capped whole-run count never sees (coverage > 1).
    EXPECT_EXIT(parseScenario(R"({"max_retired": 1000,
                                  "sampling": {"measure": 5000}})"),
                ::testing::ExitedWithCode(1), "past max_retired");
    EXPECT_EXIT(
        parseScenario(R"({"max_retired": 100000, "sampling": {
            "fast_forward": 40000, "measure": 20000, "repeat": 2}})"),
        ::testing::ExitedWithCode(1), "past max_retired");
}

TEST(SampledScenario, PlanPastActualRunEndIsFatal)
{
    // Valid against max_retired, but gzip at scale 1 halts long
    // before the first interval: extrapolating from zero measured
    // instructions must fail loudly, not emit an all-zero row.
    const ScenarioSpec spec = parseScenario(R"({
        "name": "past_end",
        "workloads": ["gzip"],
        "scale": 1,
        "configs": [{"label": "base", "set": {}}],
        "sampling": {"fast_forward": 19000000, "measure": 1000}})");
    EXPECT_EXIT(runScenario(spec), ::testing::ExitedWithCode(1),
                "measured nothing");
    // The strict check applies to the merged point, not its intervals
    // (which all ran cleanly, measuring zero instructions).
    FaultPolicy strict;
    strict.strict = true;
    EXPECT_EXIT(runScenario(spec, strict), ::testing::ExitedWithCode(1),
                "measured nothing");
}

TEST(SampledScenario, ExpandsMergesAndMatchesFullRun)
{
    // The same spec with and without a whole-run sampling block: rows
    // must be bit-identical (and the sampled one flagged exact).
    const char *base = R"({
        "name": "sampled_eq",
        "workloads": ["mcf", "gzip"],
        "scale": 1,
        "base": {"integ.mode": "reverse"},
        "configs": [{"label": "reverse", "set": {}}],
        "render": "jsonl"%s})";
    const ScenarioSpec specFull = parseScenario(strfmt(base, ""));
    const ScenarioSpec specSampled = parseScenario(
        strfmt(base, ", \"sampling\": {\"measure\": 20000000}"));
    ASSERT_EQ(specSampled.sampling.intervals.size(), 1u);

    const ScenarioResults full = runScenario(specFull);
    const ScenarioResults sampled = runScenario(specSampled);
    ASSERT_FALSE(full.isSampled());
    ASSERT_TRUE(sampled.isSampled());
    ASSERT_EQ(full.jobs.size(), sampled.jobs.size());
    for (size_t i = 0; i < full.jobs.size(); ++i) {
        expectIdenticalReport(full.jobs[i].report,
                              sampled.jobs[i].report);
        EXPECT_TRUE(sampled.sampled[i].exact);
        EXPECT_EQ(sampled.sampled[i].measuredInsts,
                  sampled.sampled[i].totalInsts);
        EXPECT_EQ(sampled.sampled[i].coverage(), 1.0);
    }
}

TEST(SampledScenario, PartialPlanMergesIntervalsAndExtrapolates)
{
    const ScenarioSpec spec = parseScenario(R"({
        "name": "sampled_partial",
        "workloads": ["gzip"],
        "scale": 1,
        "base": {"integ.mode": "reverse"},
        "configs": [{"label": "a", "set": {}},
                    {"label": "b", "set": {"rs_size": 20}}],
        "render": "jsonl",
        "sampling": {"fast_forward": 4000, "warmup": 500,
                     "measure": 2000, "repeat": 3}})");
    ASSERT_EQ(spec.sampling.intervals.size(), 3u);

    const ScenarioResults res = runScenario(spec);
    ASSERT_EQ(res.jobs.size(), 2u);          // 1 workload x 2 configs
    ASSERT_EQ(res.intervalJobs.size(), 6u);  // x 3 intervals
    ASSERT_EQ(res.sampled.size(), 2u);

    for (size_t c = 0; c < 2; ++c) {
        const SampledSummary &s = res.sampled[c];
        EXPECT_EQ(s.intervals, 3u);
        EXPECT_FALSE(s.exact);
        // Exact retirement boundaries: measured is the planned budget
        // to the instruction (no retire-width overshoot).
        EXPECT_EQ(s.measuredInsts, 3u * 2000u);
        EXPECT_GT(s.totalInsts, s.measuredInsts);
        EXPECT_GT(s.ipc(), 0.0);
        EXPECT_GT(s.cyclesExtrapolated(), double(s.measuredCycles));

        // The merged row is the sum of its intervals.
        u64 retired = 0, cycles = 0;
        for (size_t k = 0; k < 3; ++k) {
            const SimReport &iv = res.intervalJobs[c * 3 + k].report;
            retired += iv.core.retired;
            cycles += iv.core.cycles;
        }
        EXPECT_EQ(res.jobs[c].report.core.retired, retired);
        EXPECT_EQ(res.jobs[c].report.core.cycles, cycles);
        EXPECT_EQ(s.measuredInsts, retired);
        EXPECT_EQ(s.measuredCycles, cycles);
    }

    // Estimation sanity on this loop-heavy workload: the sampled IPC
    // lands within 50% of the full detailed run's.
    const Program &prog = globalProgramCache().get("gzip", 1);
    const SimReport full = runSimulation(
        prog, spec.configs[0].params, 20'000'000, 200'000'000);
    EXPECT_NEAR(res.sampled[0].ipc(), full.ipc(), full.ipc() * 0.5);
}

TEST(SampledScenario, RenderEmitsSampledColumns)
{
    const ScenarioSpec spec = parseScenario(R"({
        "name": "sampled_render",
        "workloads": ["gzip"],
        "scale": 1,
        "configs": [{"label": "base", "set": {}}],
        "render": "jsonl",
        "sampling": {"fast_forward": 8000, "measure": 1000,
                     "repeat": 2}})");
    const ScenarioResults res = runScenario(spec);

    char *buf = nullptr;
    size_t len = 0;
    FILE *mem = open_memstream(&buf, &len);
    renderScenario(spec, res, mem);
    fclose(mem);
    const std::string out(buf, len);
    free(buf);

    EXPECT_NE(out.find("\"sampled\": 1"), std::string::npos) << out;
    EXPECT_NE(out.find("sampled_intervals"), std::string::npos);
    EXPECT_NE(out.find("sampled_coverage"), std::string::npos);
    EXPECT_NE(out.find("sampled_cycles_extrapolated"), std::string::npos);
    // One merged row, not one per interval.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 1);
}
