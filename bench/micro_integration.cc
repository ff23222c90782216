/**
 * @file
 * Microbenchmarks (experiment E13) of the integration primitives using
 * google-benchmark: IT lookup/insert throughput at the paper's
 * geometry, reference-count operations, LISP probes, and end-to-end
 * simulated-rename throughput of the cycle-level core.
 */

#include <benchmark/benchmark.h>

#include "assembler/builder.hh"
#include "core/integration.hh"
#include "cpu/core.hh"
#include "sim/presets.hh"
#include "sim/simulator.hh"
#include "workload/workload.hh"

using namespace rix;

namespace
{

IntegrationParams
paperIt()
{
    IntegrationParams p;
    p.mode = IntegrationMode::Reverse;
    p.itEntries = 1024;
    p.itAssoc = 4;
    return p;
}

ITEntry
regEntry(PhysReg out, u8 out_gen, u64 create_seq)
{
    ITEntry e;
    e.hasOut = true;
    e.out = out;
    e.outGen = out_gen;
    e.createSeq = create_seq;
    return e;
}

void
BM_ItLookupHit(benchmark::State &state)
{
    IntegrationTable it(paperIt());
    std::vector<ITProbe> probes;
    for (u32 i = 0; i < 256; ++i) {
        ITKey k;
        k.op = Opcode::ADDQI;
        k.imm = s32(i * 8);
        k.callDepth = i % 7;
        k.hasIn1 = true;
        k.in1 = PhysReg(i % 512);
        k.gen1 = u8(i % 16);
        probes.push_back(it.probe(k));
        it.insert(probes.back(), regEntry(PhysReg(i), 0, i));
    }
    u32 i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(it.lookup(probes[i++ & 255]));
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_ItLookupMiss(benchmark::State &state)
{
    IntegrationTable it(paperIt());
    ITKey k;
    k.op = Opcode::MULQ;
    k.hasIn1 = true;
    k.in1 = 3;
    u32 i = 0;
    ITProbe pr;
    for (auto _ : state) {
        k.imm = s32(i++);
        it.probe(k, pr);
        benchmark::DoNotOptimize(it.lookup(pr));
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_ItInsert(benchmark::State &state)
{
    IntegrationTable it(paperIt());
    ITKey k;
    k.op = Opcode::LDQ;
    k.hasIn1 = true;
    u32 i = 0;
    for (auto _ : state) {
        k.imm = s32(i & 0xffff);
        k.in1 = PhysReg(i % 1024);
        benchmark::DoNotOptimize(it.insert(
            it.probe(k), regEntry(PhysReg(i % 1024), u8(i % 16), i)));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_RefcountCycle(benchmark::State &state)
{
    RegStateVector rs(paperIt());
    for (auto _ : state) {
        PhysReg r = rs.allocate();
        rs.markReady(r);
        rs.addRef(r);
        rs.releaseOverwrite(r);
        rs.releaseSquash(r);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_LispProbe(benchmark::State &state)
{
    Lisp lisp(1024, 2);
    for (u32 i = 0; i < 128; ++i)
        lisp.trainMisintegration(i * 37);
    u32 i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(lisp.suppress((i++ * 37) & 8191));
    }
    state.SetItemsProcessed(state.iterations());
}

/** End-to-end simulation throughput (retired instructions/second). */
void
BM_SimulatedCore(benchmark::State &state)
{
    const Program prog = buildWorkload("gzip", 1);
    const bool integ = state.range(0) != 0;
    for (auto _ : state) {
        CoreParams cp = integ
                            ? integrationParams(IntegrationMode::Reverse)
                            : baselineParams();
        Core core(prog, cp);
        core.run(20000, 1'000'000);
        requireNoDivergence(core, prog.name);
        benchmark::DoNotOptimize(core.stats().retired);
        state.SetItemsProcessed(state.items_processed() +
                                s64(core.stats().retired));
    }
}

} // namespace

BENCHMARK(BM_ItLookupHit);
BENCHMARK(BM_ItLookupMiss);
BENCHMARK(BM_ItInsert);
BENCHMARK(BM_RefcountCycle);
BENCHMARK(BM_LispProbe);
BENCHMARK(BM_SimulatedCore)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
