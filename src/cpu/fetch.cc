/**
 * @file
 * Fetch stage: up to fetchWidth instructions per cycle from the
 * instruction cache, within one 32-byte line (four 8-byte slots),
 * stopping at a predicted-taken control instruction. Fetched
 * instructions become rename-eligible frontLatency() cycles later
 * (the 3 fetch + 1 decode stages).
 */

#include "base/log.hh"
#include "cpu/core.hh"

namespace rix
{

namespace
{

constexpr unsigned instBytes = instructionBytes;

} // namespace

void
Core::fetchStage()
{
    if (cycle < fetchStallUntil)
        return;

    const unsigned line_insts = p.mem.l1i.lineBytes / instBytes;

    // Instruction cache access for the current line.
    const Addr byte_addr = fetchPc * instBytes;
    const Cycle ready = mem.ifetch(byte_addr, cycle);
    if (ready > cycle + p.mem.l1i.hitLatency) {
        // Miss: fetch resumes when the line arrives.
        fetchStallUntil = ready;
        changed_ = true;
        return;
    }

    unsigned fetched = 0;
    while (fetched < p.fetchWidth && !fetchQueue.full()) {
        const InstHandle h = pool.alloc();
        DynInst &di = pool.get(h);
        di.seq = nextSeq++;
        di.pc = fetchPc;
        di.inst = prog->fetch(fetchPc);
        di.dec = &deco_->fetch(fetchPc); // NOP sentinel when wrong-path
        di.fetchCycle = cycle;
        di.renameReadyCycle = cycle + p.frontLatency();
        di.isCtrl = di.dec->isCtrl();

        const InstAddr next = bpred.predict(di.inst, fetchPc, &di.pred);

        ++fetched;
        ++stats_.fetched;
        const bool taken_ctrl = di.pred.isControl && di.pred.predTaken;
        fetchQueue.push_back(h);
        fetchPc = next;

        if (taken_ctrl)
            break; // redirect: next group starts next cycle
        if (fetchPc % line_insts == 0)
            break; // crossed into the next cache line
    }
    if (fetched != 0) {
        changed_ = true;
    } else {
        // A full queue: the same hit probe repeats every cycle.
        fetchRepeats_ = true;
        fetchRepeatAddr_ = byte_addr;
    }
}

} // namespace rix
