/**
 * @file
 * Observability tests (PR 9): pipeline-trace invariants (monotone
 * stage cycles, exact retire window, squash causes), the Konata golden
 * format and file round-trip, the zero-overhead contract (simulated
 * state bit-identical with tracing on or off), interval metrics
 * summing to the end-of-run aggregates, strict parsing of the spec's
 * trace/metrics blocks, write failures reported on close, the
 * host-phase profiler, and Histogram::quantile.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>

#include "base/histogram.hh"
#include "base/stats.hh"
#include "cpu/core.hh"
#include "sim/scenario.hh"
#include "sim/sweep.hh"
#include "trace/metrics.hh"
#include "trace/profiler.hh"
#include "trace/trace.hh"
#include "workload/workload.hh"

using namespace rix;

namespace
{

const Program &
cachedProgram(const std::string &name)
{
    static std::map<std::string, Program> cache;
    auto it = cache.find(name);
    if (it == cache.end())
        it = cache.emplace(name, buildWorkload(name, 1)).first;
    return it->second;
}

/** In-memory sink: keeps every event for invariant checks. */
struct CollectingSink : TraceSink
{
    std::vector<TraceEvent> events;

  protected:
    void write(const TraceEvent &ev) override { events.push_back(ev); }
};

void
expectMonotone(const TraceEvent &ev)
{
    EXPECT_LE(ev.fetch, ev.decode);
    EXPECT_LE(ev.decode, ev.rename);
    EXPECT_LE(ev.rename, ev.issue);
    EXPECT_LE(ev.issue, ev.complete);
    EXPECT_LE(ev.complete, ev.retire);
}

} // namespace

// ---- Histogram::quantile -------------------------------------------

TEST(HistogramQuantile, EmptyAndBasics)
{
    Histogram h({10, 20, 50});
    EXPECT_EQ(h.quantile(0.5), 0u); // empty histogram

    h.sample(5, 50);   // <= 10
    h.sample(15, 30);  // <= 20
    h.sample(100, 20); // overflow
    EXPECT_EQ(h.quantile(0.5), 10u);
    EXPECT_EQ(h.quantile(0.8), 20u);
    // Overflow samples saturate to the last bound.
    EXPECT_EQ(h.quantile(0.95), 50u);
    EXPECT_EQ(h.quantile(1.0), 50u);
}

// ---- host-phase profiler -------------------------------------------

TEST(Profiler, ScopedPhaseCountsOnlyWhenEnabled)
{
    HostProfiler &p = hostProfiler();
    p.reset();
    p.setEnabled(false);
    {
        ScopedPhase t(HostPhase::Decode);
    }
    EXPECT_EQ(p.calls(HostPhase::Decode), 0u);

    p.setEnabled(true);
    {
        ScopedPhase t(HostPhase::Decode);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(p.calls(HostPhase::Decode), 1u);
    EXPECT_GT(p.nanos(HostPhase::Decode), 0u);

    StatSet s;
    p.exportTo(s);
    EXPECT_TRUE(s.has("host_decode_s"));
    EXPECT_TRUE(s.has("host_decode_calls"));
    EXPECT_TRUE(s.has("host_detailed_sim_s"));
    EXPECT_EQ(s.get("host_decode_calls"), 1.0);
    EXPECT_GT(s.get("host_decode_s"), 0.0);

    p.setEnabled(false);
    p.reset();
}

// ---- TraceEvent clamping -------------------------------------------

TEST(TraceEvent, StampsClampedMonotone)
{
    DynInst di;
    di.seq = 9;
    di.pc = 0x10;
    di.inst = makeRR(Opcode::ADDQ, 3, 1, 2);
    di.fetchCycle = 100;
    di.renameReadyCycle = 99; // stamped "before" fetch: must clamp up
    di.renameCycle = 105;
    di.issueCycle = 0;   // never issued (integrated)
    di.completeCycle = 104;

    const TraceEvent ev =
        makeTraceEvent(di, /*now=*/103, /*retired=*/true,
                       SquashCause::None, /*retire_index=*/7);
    expectMonotone(ev);
    EXPECT_EQ(ev.fetch, 100u);
    EXPECT_EQ(ev.decode, 100u);
    EXPECT_EQ(ev.rename, 105u);
    EXPECT_EQ(ev.issue, 105u);
    EXPECT_EQ(ev.complete, 105u);
    EXPECT_EQ(ev.retire, 105u);
    EXPECT_TRUE(ev.retired);
    EXPECT_EQ(ev.retireIndex, 7u);
    EXPECT_EQ(ev.cause, SquashCause::None);

    const TraceEvent sq = makeTraceEvent(di, 103, /*retired=*/false,
                                         SquashCause::Branch, 99);
    EXPECT_FALSE(sq.retired);
    EXPECT_EQ(sq.retireIndex, 0u);
    EXPECT_EQ(sq.cause, SquashCause::Branch);
}

// ---- Konata golden format ------------------------------------------

TEST(Konata, GoldenFormat)
{
    TraceEvent ev;
    ev.seq = 7;
    ev.pc = 0x40;
    ev.inst = makeRR(Opcode::ADDQ, 3, 1, 2);
    ev.fetch = 10;
    ev.decode = 11;
    ev.rename = 12;
    ev.issue = 13;
    ev.complete = 15;
    ev.retire = 20;
    ev.retired = true;

    TraceEvent sq = ev;
    sq.seq = 8;
    sq.retired = false;
    sq.cause = SquashCause::Branch;

    char *buf = nullptr;
    size_t len = 0;
    FILE *mem = open_memstream(&buf, &len);
    ASSERT_NE(mem, nullptr);
    {
        // The dtor fcloses, finalizing buf/len.
        KonataTraceSink sink(mem, "memstream");
        sink.emit(ev);
        sink.emit(sq);
        EXPECT_EQ(sink.numEvents(), 2u);
        EXPECT_EQ(sink.numRetired(), 1u);
        EXPECT_EQ(sink.numSquashed(), 1u);
    }
    const std::string text(buf, len);
    free(buf);

    EXPECT_EQ(text,
              "O3PipeView:fetch:10:0x00000040:0:7:addq r3, r1, r2\n"
              "O3PipeView:decode:11\n"
              "O3PipeView:rename:12\n"
              "O3PipeView:dispatch:12\n"
              "O3PipeView:issue:13\n"
              "O3PipeView:complete:15\n"
              "O3PipeView:retire:20:store:0\n"
              "O3PipeView:fetch:10:0x00000040:0:8:addq r3, r1, r2\n"
              "O3PipeView:decode:11\n"
              "O3PipeView:rename:12\n"
              "O3PipeView:dispatch:12\n"
              "O3PipeView:issue:13\n"
              "O3PipeView:complete:15\n"
              "O3PipeView:retire:0:store:0\n");
}

// ---- core-attached tracing -----------------------------------------

TEST(Trace, WindowIsExactAndStagesMonotone)
{
    const Program &prog = cachedProgram("mcf");
    CoreParams params;
    Core core(prog, params);
    CollectingSink sink;
    core.setTraceSink(&sink, /*start=*/100, /*count=*/500);
    core.run(5'000'000, 50'000'000);
    ASSERT_GE(core.stats().retired, 600u);

    u64 retired = 0;
    u64 lastIndex = 0;
    for (const TraceEvent &ev : sink.events) {
        expectMonotone(ev);
        if (!ev.retired)
            continue;
        if (retired)
            EXPECT_EQ(ev.retireIndex, lastIndex + 1);
        else
            EXPECT_EQ(ev.retireIndex, 100u);
        lastIndex = ev.retireIndex;
        ++retired;
    }
    // Exactly the [100, 600) slice of the retire stream.
    EXPECT_EQ(retired, 500u);
    EXPECT_EQ(sink.numRetired(), 500u);
    EXPECT_EQ(lastIndex, 599u);
}

TEST(Trace, SquashedEventsCarryACause)
{
    const Program &prog = cachedProgram("mcf");
    CoreParams params;
    Core core(prog, params);
    CollectingSink sink;
    core.setTraceSink(&sink, 0, ~u64(0));
    core.run(200'000, 2'000'000);

    u64 squashed = 0;
    for (const TraceEvent &ev : sink.events) {
        if (ev.retired) {
            EXPECT_EQ(ev.cause, SquashCause::None);
            continue;
        }
        ++squashed;
        EXPECT_NE(ev.cause, SquashCause::None)
            << "squashed seq " << ev.seq << " has no cause";
        EXPECT_EQ(ev.retireIndex, 0u);
    }
    // mcf under the default predictor mispredicts: wrong-path work
    // must show up as squash events.
    EXPECT_GT(squashed, 0u);
    EXPECT_EQ(squashed, sink.numSquashed());
}

TEST(Trace, SimulatedStateBitIdenticalTracingOnOrOff)
{
    const Program &prog = cachedProgram("mcf");
    CoreParams params;

    Core off(prog, params);
    off.run(200'000, 2'000'000);

    Core on(prog, params);
    CollectingSink sink;
    on.setTraceSink(&sink, 0, 100'000);
    on.run(200'000, 2'000'000);
    EXPECT_GT(sink.numEvents(), 0u);

    const CoreStats &a = off.stats();
    const CoreStats &b = on.stats();
    EXPECT_EQ(memcmp(&a, &b, sizeof(CoreStats)), 0);
    EXPECT_EQ(off.halted(), on.halted());
    EXPECT_EQ(off.memHierarchy().l1d().misses(),
              on.memHierarchy().l1d().misses());
    EXPECT_EQ(off.memHierarchy().l2().misses(),
              on.memHierarchy().l2().misses());
}

TEST(Trace, KonataFileRoundTrip)
{
    const std::string path = ::testing::TempDir() + "rix_trace_rt.txt";
    TraceConfig cfg;
    cfg.enabled = true;
    std::string err;
    std::unique_ptr<TraceSink> sink = openTraceSink(cfg, path, &err);
    ASSERT_NE(sink, nullptr) << err;

    const Program &prog = cachedProgram("mcf");
    CoreParams params;
    Core core(prog, params);
    core.setTraceSink(sink.get(), 0, 2'000);
    core.run(100'000, 1'000'000);
    EXPECT_EQ(sink->close(), "");

    // Reparse: every event renders exactly one fetch and one retire
    // line; retired events carry a nonzero retire cycle, squashed a
    // zero one.
    FILE *f = fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    u64 fetchLines = 0, retireLines = 0, retiredNonzero = 0;
    char line[512];
    while (fgets(line, sizeof(line), f)) {
        if (strncmp(line, "O3PipeView:fetch:", 17) == 0)
            ++fetchLines;
        else if (strncmp(line, "O3PipeView:retire:", 18) == 0) {
            ++retireLines;
            if (strncmp(line, "O3PipeView:retire:0:", 20) != 0)
                ++retiredNonzero;
        }
    }
    fclose(f);
    remove(path.c_str());

    EXPECT_EQ(fetchLines, sink->numEvents());
    EXPECT_EQ(retireLines, sink->numEvents());
    EXPECT_EQ(retiredNonzero, sink->numRetired());
    EXPECT_EQ(sink->numRetired(), 2'000u);
}

TEST(Trace, FailedWriteIsReportedOnClose)
{
    TraceConfig cfg;
    std::string err;
    std::unique_ptr<TraceSink> sink = openTraceSink(cfg, "/dev/full", &err);
    ASSERT_NE(sink, nullptr) << err;
    // Enough events to overflow the stdio buffer.
    for (int i = 0; i < 1'000; ++i)
        sink->emit(TraceEvent{});
    EXPECT_EQ(sink->close(), "write failed on trace output '/dev/full'");
    EXPECT_EQ(sink->close(), "");
}

// ---- interval metrics ----------------------------------------------

TEST(Metrics, IntervalsSumToEndOfRunAggregates)
{
    const Program &prog = cachedProgram("mcf");
    MetricsRecorder rec(1'000);
    RunControl ctl;
    ctl.metrics = &rec;
    SimContext ctx;
    const SimReport fin =
        ctx.run(prog, CoreParams{}, 100'000, 1'000'000, ctl);

    ASSERT_GT(rec.intervals().size(), 1u);
    SimReport sum;
    u64 prevEnd = 0;
    for (const MetricsRecorder::Interval &iv : rec.intervals()) {
        EXPECT_LT(iv.cycleStart, iv.cycleEnd);
        EXPECT_EQ(iv.cycleStart, prevEnd); // contiguous partition
        prevEnd = iv.cycleEnd;
        accumulateReport(sum, iv.delta);
    }

    EXPECT_EQ(memcmp(&sum.core, &fin.core, sizeof(CoreStats)), 0);
    EXPECT_EQ(prevEnd, fin.core.cycles);
    EXPECT_EQ(sum.l1dMisses, fin.l1dMisses);
    EXPECT_EQ(sum.l1iMisses, fin.l1iMisses);
    EXPECT_EQ(sum.l2Misses, fin.l2Misses);
    EXPECT_EQ(sum.dtlbMisses, fin.dtlbMisses);
    EXPECT_EQ(sum.itlbMisses, fin.itlbMisses);
}

TEST(Metrics, MetricsDoNotPerturbSimulatedState)
{
    const Program &prog = cachedProgram("mcf");
    CoreParams params;

    SimContext off;
    const SimReport a = off.run(prog, params, 100'000, 1'000'000);

    // An unaligned interval plus an armed token that never fires:
    // metrics edges and 1024-cycle poll edges interleave.
    MetricsRecorder rec(777);
    CancelToken token;
    token.arm(3'600'000);
    RunControl ctl;
    ctl.metrics = &rec;
    ctl.cancel = &token;
    SimContext on;
    const SimReport b = on.run(prog, params, 100'000, 1'000'000, ctl);

    EXPECT_GT(rec.intervals().size(), 1u);
    EXPECT_EQ(memcmp(&a.core, &b.core, sizeof(CoreStats)), 0);
}

TEST(Metrics, WriteJsonlRendersOneRowPerInterval)
{
    const Program &prog = cachedProgram("mcf");
    MetricsRecorder rec(10'000);
    RunControl ctl;
    ctl.metrics = &rec;
    SimContext().run(prog, CoreParams{}, 50'000, 500'000, ctl);
    ASSERT_GT(rec.intervals().size(), 0u);

    const std::string path =
        ::testing::TempDir() + "rix_metrics_rt.jsonl";
    std::string err;
    ASSERT_TRUE(rec.writeJsonl(path, {{"workload", "mcf"}}, &err))
        << err;

    FILE *f = fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    u64 lines = 0;
    char line[8192];
    while (fgets(line, sizeof(line), f)) {
        ++lines;
        EXPECT_NE(strstr(line, "\"workload\": \"mcf\""), nullptr);
        EXPECT_NE(strstr(line, "\"interval\""), nullptr);
        EXPECT_NE(strstr(line, "\"cycle_start\""), nullptr);
        EXPECT_NE(strstr(line, "\"retired\""), nullptr);
    }
    fclose(f);
    remove(path.c_str());
    EXPECT_EQ(lines, rec.intervals().size());
}

TEST(MetricsDeathTest, ZeroIntervalIsFatal)
{
    EXPECT_DEATH(MetricsRecorder rec(0), "positive");
}

// ---- strict spec-block parsing ---------------------------------------

namespace
{

/** A one-job spec with the given trace and metrics block members. */
std::string
tracedSpec(const std::string &trace, const std::string &metrics)
{
    return R"({"workloads": ["mcf"], "configs": [{"label": "base"}],)"
           R"( "trace": {)" + trace + R"(}, "metrics": {)" + metrics +
           "}}";
}

} // namespace

TEST(TraceSpec, BlocksSetEveryField)
{
    const ScenarioSpec spec = parseScenario(tracedSpec(
        R"("start": 5, "count": 7, "format": "jsonl", "out": "t.jsonl")",
        R"("every": 2500, "out": "m.jsonl")"));
    EXPECT_TRUE(spec.trace.enabled);
    EXPECT_EQ(spec.trace.start, 5u);
    EXPECT_EQ(spec.trace.count, 7u);
    EXPECT_EQ(spec.trace.end(), 12u);
    EXPECT_EQ(spec.trace.format, "jsonl");
    EXPECT_EQ(spec.trace.out, "t.jsonl");
    EXPECT_TRUE(spec.metrics.enabled);
    EXPECT_EQ(spec.metrics.every, 2'500u);
    EXPECT_EQ(spec.metrics.out, "m.jsonl");
}

TEST(TraceSpecDeathTest, BlocksAreStrictlyParsed)
{
    // {trace members, metrics members, the field the death names}.
    const char *const bad[][3] = {
        {R"("count": 0)", "", "'trace.count'"},
        {"", R"("every": 0)", "'metrics.every'"},
        {R"("format": "vcd")", "", "'trace.format'"},
        {R"("out": "")", "", "'trace.out'"},
        {"", R"("out": "")", "'metrics.out'"},
    };
    for (const auto &b : bad)
        EXPECT_DEATH(parseScenario(tracedSpec(b[0], b[1])), b[2]) << b[2];
}
