#include "cpu/core.hh"

#include <cstdio>

#include "base/log.hh"
#include "trace/trace.hh"

namespace rix
{

Core::Core(const Program &program, const CoreParams &params)
    : prog(&program), deco_(program.decodedShared()), p(params),
      golden_(program), mem(p.mem),
      bpred(p.bpred), regState(p.integ), integ(p.integ, regState),
      writeBuffer(p.writeBufferEntries),
      cht(p.chtEntries, SatCounter(2, 0)),
      pregValue(p.integ.numPhysRegs, 0),
      pool(size_t(p.robSize) + p.fetchQueueSize + 1),
      fetchQueue(p.fetchQueueSize), rob(p.robSize),
      waiters(p.integ.numPhysRegs), issuePrio(p.rsSize),
      issueRest(p.rsSize), issueMask((rob.slots() + 63) / 64, 0)
{
    checkRobSlots();
    initArchState();
}

void
Core::reset(const Program &program, const CoreParams &params)
{
    golden_.reset(program);
    resetMicroarch(program, params);
}

void
Core::reset(const Program &program, const CoreParams &params,
            const Checkpoint &from)
{
    golden_.restore(program, from);
    resetMicroarch(program, params);
}

void
Core::resetMicroarch(const Program &program, const CoreParams &params)
{
    prog = &program;
    deco_ = program.decodedShared();
    p = params;

    // Substrates: reconfigure in place, reusing their arrays.
    mem.reset(p.mem);
    bpred.reset(p.bpred);
    regState.reset(p.integ);
    integ.reset(p.integ);
    writeBuffer.reset(p.writeBufferEntries);
    cht.assign(p.chtEntries, SatCounter(2, 0));

    // Register state and windows.
    pregValue.assign(p.integ.numPhysRegs, 0);
    pool.reset(size_t(p.robSize) + p.fetchQueueSize + 1);
    fetchQueue.reset(p.fetchQueueSize);
    rob.reset(p.robSize);
    checkRobSlots();
    sq.clear();
    lq.clear();
    rsBusy = 0;

    // Event plumbing and issue scratch.
    completions.clear();
    waiters.resize(p.integ.numPhysRegs);
    for (auto &w : waiters)
        w.clear();
    issuePrio.resize(p.rsSize);
    issueRest.resize(p.rsSize);
    issueMask.assign((rob.slots() + 63) / 64, 0);

    // Scalar bookkeeping back to the constructed defaults.
    fetchPc = 0;
    fetchStallUntil = 0;
    oldestUnresolvedStore = ~InstSeqNum(0);
    retireStopAt = ~u64(0);
    nextSeq = 1;
    renameStreamPos = 0;
    cycle = 0;
    done = false;
    divergence_ = DivergenceReport{};
    stuck_ = false;
    stuckReason_.clear();
    lastProgressCycle = 0;
    stats_ = CoreStats{};
    trace_ = nullptr;
    traceStart_ = 0;
    traceEnd_ = 0;
    uncountedEvents_ = 0;

    initArchState();
}

void
Core::checkRobSlots() const
{
    // DynInst::robSlot is 16 bits wide.
    if (rob.slots() > (u32(1) << 16))
        rix_fatal("rob_size %u exceeds the 65536-slot ROB ring", p.robSize);
}

void
Core::initArchState()
{
    // Pin the zero register's physical register.
    zeroPreg = regState.allocate();
    regState.pin(zeroPreg);
    pregValue[zeroPreg] = 0;
    map[regZero] = {zeroPreg, regState.gen(zeroPreg)};

    // Map every other architectural register to a fresh, ready
    // physical register holding its initial value.
    for (unsigned r = 0; r < numLogRegs; ++r) {
        if (r == regZero)
            continue;
        PhysReg preg = regState.allocate();
        regState.markReady(preg);
        pregValue[preg] = golden_.reg(LogReg(r));
        map[r] = {preg, regState.gen(preg)};
    }

    // Fetch starts wherever the golden (architectural) state stands:
    // the program entry for a fresh run, the checkpoint PC for a
    // sampled resume. A checkpoint taken at/after HALT leaves nothing
    // to simulate.
    fetchPc = golden_.pc();
    done = golden_.halted();
}

const DynInst *
Core::findInst(InstSeqNum seq) const
{
    // The ROB holds strictly increasing sequence numbers (with gaps
    // from squashes), so a handle-ring binary search replaces the old
    // per-inst hash-map maintenance.
    size_t lo = 0, hi = rob.size();
    while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        const DynInst &di = pool.get(rob[mid]);
        if (di.seq == seq)
            return &di;
        if (di.seq < seq)
            lo = mid + 1;
        else
            hi = mid;
    }
    return nullptr;
}

u64
Core::memReadOverlay(Addr addr, unsigned size, InstSeqNum before) const
{
    u64 value = golden_.memory().read(addr, size);
    // Overlay bytes from older resolved stores, oldest to youngest, so
    // the youngest writer of each byte wins.
    for (const SqEntry &e : sq) {
        if (e.seq >= before)
            break;
        if (!e.resolved)
            continue;
        const Addr lo = e.addr > addr ? e.addr : addr;
        const Addr hi_a = addr + size;
        const Addr hi_b = e.addr + e.size;
        const Addr hi = hi_a < hi_b ? hi_a : hi_b;
        for (Addr b = lo; b < hi; ++b) {
            const u64 byte = (e.data >> (8 * (b - e.addr))) & 0xff;
            const unsigned shift = unsigned(8 * (b - addr));
            value = (value & ~(u64(0xff) << shift)) | (byte << shift);
        }
    }
    return value;
}

void
Core::tick()
{
    retireStage();
    if (done)
        return;
    writebackStage();
    issueStage();
    renameStage();
    fetchStage();

    // Write-buffer drain: one committed store per cycle into the cache
    // (timing only).
    writeBuffer.tick(cycle, [this](Addr a) { mem.write(a, cycle); });

    stats_.rsOccupancySum += rsBusy;
    stats_.robOccupancySum += rob.size();
    ++cycle;
    ++stats_.cycles;

    if (cycle - lastProgressCycle > p.watchdogCycles) {
        // Contained failure, not process death: record why and stop.
        // The job layer reports this core as "stuck"; other jobs in
        // the same sweep (or daemon) are unaffected.
        char buf[160];
        snprintf(buf, sizeof(buf),
                 "watchdog: no retirement progress for %llu cycles "
                 "(pc=%llu rob=%zu)",
                 (unsigned long long)p.watchdogCycles,
                 (unsigned long long)(rob.empty()
                                          ? fetchPc
                                          : pool.get(rob.front()).pc),
                 rob.size());
        stuckReason_ = buf;
        stuck_ = true;
        done = true;
    }
}

Core::RunResult
Core::run(u64 max_retired, Cycle max_cycles)
{
    while (!done && stats_.retired < max_retired &&
           stats_.cycles < max_cycles)
        tick();
    return {stats_.retired, stats_.cycles, done};
}

void
Core::setTraceSink(TraceSink *sink, u64 start, u64 count)
{
    trace_ = sink;
    if (!sink) {
        traceStart_ = traceEnd_ = 0;
        return;
    }
    traceStart_ = start;
    traceEnd_ = count > ~u64(0) - start ? ~u64(0) : start + count;
}

void
Core::traceRetired(const DynInst &di)
{
    // recordRetireStats already counted this instruction; its
    // retire-stream index is retired-1.
    const u64 idx = stats_.retired - 1;
    if (idx < traceStart_ || idx >= traceEnd_)
        return;
    trace_->emit(
        makeTraceEvent(di, cycle, /*retired=*/true, SquashCause::None, idx));
}

void
Core::traceSquashed(const DynInst &di, SquashCause cause)
{
    trace_->emit(makeTraceEvent(di, cycle, /*retired=*/false, cause, 0));
}

void
CoreStats::exportTo(StatSet &out) const
{
    out.set("cycles", double(cycles));
    out.set("fetched", double(fetched));
    out.set("renamed", double(renamed));
    out.set("issued", double(issued));
    out.set("issued_loads", double(issuedLoads));
    out.set("retired", double(retired));
    out.set("retired_loads", double(retiredLoads));
    out.set("retired_stores", double(retiredStores));
    out.set("retired_branches", double(retiredBranches));
    out.set("ipc", ipc());
    out.set("integrated_direct", double(integratedDirect));
    out.set("integrated_reverse", double(integratedReverse));
    out.set("integration_rate", integrationRate());
    out.set("misintegrations", double(misintegrations));
    out.set("misint_loads", double(misintLoads));
    out.set("misint_registers", double(misintRegisters));
    out.set("misint_branches", double(misintBranches));
    out.set("misint_per_million", misintPerMillion());
    out.set("branch_mispredicts", double(branchMispredicts));
    out.set("mispred_resolve_lat", avgMispredResolveLat());
    out.set("mem_order_violations", double(memOrderViolations));
    out.set("squashed_insts", double(squashedInsts));
    out.set("rs_occupancy", avgRsOccupancy());
    out.set("rob_occupancy",
            cycles ? double(robOccupancySum) / double(cycles) : 0.0);
}

} // namespace rix
