/**
 * @file
 * Scheduling, execution and writeback.
 *
 * Issue selects up to issueWidth ready reservation-station instructions
 * per cycle under the port mix (2 simple-int, 2 FP/complex, 1 load, 1
 * store), with loads/branches/FP prioritized and age as tie-break
 * (section 3.1). Loads issue speculatively past unresolved older store
 * addresses unless the collision history table predicts a conflict;
 * store-address resolution checks younger executed loads and triggers a
 * full squash on a memory-order violation.
 */

#include <algorithm>
#include <utility>

#include "base/bitutil.hh"
#include "base/log.hh"
#include "cpu/core.hh"

namespace rix
{

namespace
{

bool
rangesOverlap(Addr a, unsigned asize, Addr b, unsigned bsize)
{
    return a < b + bsize && b < a + asize;
}

} // namespace

void
Core::waitOn(PhysReg r, DynInst &di)
{
    WaitList &list = waiters[r];
    di.waitNext = invalidInstHandle;
    if (list.head == invalidInstHandle)
        list.head = di.selfHandle;
    else
        pool.get(list.tail).waitNext = di.selfHandle;
    list.tail = di.selfHandle;
}

void
Core::unwait(const DynInst &di)
{
    // An integrated instruction waits on its own (shared) destination;
    // a parked one on the first source checkReadyOrPark found unready,
    // which stays unready until writeback empties its list.
    PhysReg r;
    if (di.waitingOperand)
        r = di.hasSrc1 && !regState.ready(di.psrc1) ? di.psrc1 : di.psrc2;
    else if (di.integrated && !di.completed)
        r = di.pdest;
    else
        return;
    WaitList &list = waiters[r];
    InstHandle prev = invalidInstHandle;
    InstHandle h = list.head;
    while (h != di.selfHandle) {
        if (h == invalidInstHandle)
            rix_panic("seq %llu is not on p%u's waiter list",
                      (unsigned long long)di.seq, unsigned(r));
        prev = h;
        h = pool.get(h).waitNext;
    }
    if (prev == invalidInstHandle)
        list.head = di.waitNext;
    else
        pool.get(prev).waitNext = di.waitNext;
    if (list.tail == di.selfHandle)
        list.tail = prev;
}

bool
Core::checkReadyOrPark(DynInst &di)
{
    // A park leaves quiescence (changed_) alone: it only takes the
    // candidate out of later scans, which then repeat without it.
    if (di.hasSrc1 && !regState.ready(di.psrc1)) {
        di.waitingOperand = true;
        clearIssueBit(di.robSlot);
        waitOn(di.psrc1, di);
        return false;
    }
    if (di.hasSrc2 && !regState.ready(di.psrc2)) {
        di.waitingOperand = true;
        clearIssueBit(di.robSlot);
        waitOn(di.psrc2, di);
        return false;
    }
    if (di.dec->isLoad()) { // dec is on the scanned line; inst is not
        const SatCounter &c = cht[di.pc & (cht.size() - 1)];
        if (c.predictTaken() && oldestUnresolvedStore < di.seq)
            return false;
    }
    return true;
}

void
Core::scheduleCompletion(DynInst &di, Cycle when)
{
    completions.push(when > cycle ? when : cycle + 1, di.seq, di.selfHandle,
                     cycle);
}

void
Core::completeNow(DynInst &di, Cycle when)
{
    di.completed = true;
    di.completeCycle = when;
}

void
Core::executeAlu(DynInst &di)
{
    const Instruction &inst = di.inst;
    const u64 a = di.hasSrc1 ? pregValue[di.psrc1] : 0;
    const u64 b = di.hasSrc2 ? pregValue[di.psrc2] : 0;

    switch (inst.cls()) {
      case InstClass::Branch:
        di.actualTaken = branchTaken(inst, a);
        di.actualTarget = InstAddr(u32(inst.imm));
        di.resolved = true;
        break;
      case InstClass::IndirectJump:
      case InstClass::Return:
        di.actualTaken = true;
        di.actualTarget = InstAddr(a);
        di.resolved = true;
        break;
      default:
        if (di.hasDest) {
            u64 v = aluCompute(inst, a, b);
#ifdef RIX_FAULT_INJECT_ADDQ
            // Deliberate, build-time-gated execute-stage bug (cmake
            // -DRIX_FAULT_INJECT=ON): flip one bit of every ADDQ
            // result. Exists solely so the differential-verification
            // subsystem can prove it actually detects and minimizes a
            // real pipeline fault; never enabled in normal builds.
            if (inst.op == Opcode::ADDQ)
                v ^= u64(1) << 17;
#endif
            pregValue[di.pdest] = v;
        }
        break;
    }
    scheduleCompletion(di, cycle + di.dec->latency);
}

bool
Core::executeLoad(DynInst &di)
{
    const Instruction &inst = di.inst;
    const Addr addr = pregValue[di.psrc1] + u64(s64(inst.imm));
    const unsigned size = di.dec->size;

    // Scan older stores, youngest first.
    bool unresolved_older = false;
    bool forwarded = false;
    bool partial_conflict = false;
    InstSeqNum forwarded_from = 0;
    bool overlap_found = false;
    for (auto it = sq.rbegin(); it != sq.rend(); ++it) {
        const SqEntry &e = *it;
        if (e.seq >= di.seq)
            continue;
        if (!e.resolved) {
            unresolved_older = true;
            continue;
        }
        if (!overlap_found && rangesOverlap(addr, size, e.addr, e.size)) {
            overlap_found = true;
            if (e.addr == addr && e.size == size) {
                forwarded = true;
                forwarded_from = e.seq;
            } else {
                partial_conflict = true;
            }
        }
    }

    if (partial_conflict) {
        // Conservative: a partially overlapping resolved store cannot
        // forward; retry each cycle until the store drains at
        // retirement.
        return false;
    }

    di.effAddr = addr;
    di.addrValid = true;
    di.speculativePastStore = unresolved_older;

    const u64 value = loadValue(inst.op, memReadOverlay(addr, size, di.seq));
    if (di.hasDest)
        pregValue[di.pdest] = value;

    LqEntry &own = lq[di.lsqPos - lqHeadPos];
    own.addr = addr;
    own.size = size;
    own.resolved = true;
    own.forwardedFrom = forwarded_from;

    const Cycle agen_done = cycle + p.agenLatency;
    const Cycle done = forwarded
                           ? agen_done + p.storeForwardLatency
                           : mem.read(addr, agen_done);
    scheduleCompletion(di, done);
    return true;
}

void
Core::checkStoreViolation(DynInst &store_inst)
{
    // Oldest violating load wins; everything from it onward re-executes.
    for (const LqEntry &e : lq) {
        if (e.seq <= store_inst.seq || !e.resolved)
            continue;
        if (!rangesOverlap(store_inst.effAddr, store_inst.dec->size,
                           e.addr, e.size))
            continue;
        if (e.forwardedFrom >= store_inst.seq)
            continue; // load already saw this store (or a younger one)

        DynInst *ld = &pool.get(e.owner);
        if (ld->seq != e.seq)
            rix_panic("LQ entry without ROB entry (seq %llu)",
                      (unsigned long long)e.seq);
        ++stats_.memOrderViolations;
        ++stats_.squashesMemOrder;
        // Train the collision predictor strongly.
        SatCounter &c = cht[ld->pc & (cht.size() - 1)];
        c.increment();
        c.increment();
        squashFrom(*ld, /*include_boundary=*/true, ld->pc,
                   p.squashPenalty, SquashCause::MemOrder);
        return;
    }
}

void
Core::executeStore(DynInst &di)
{
    const Instruction &inst = di.inst;
    const Addr addr = pregValue[di.psrc1] + u64(s64(inst.imm));
    di.effAddr = addr;
    di.addrValid = true;
    di.storeData = pregValue[di.psrc2];

    SqEntry &own = sq[di.lsqPos - sqHeadPos];
    own.addr = addr;
    own.size = di.dec->size;
    own.data = di.storeData;
    own.resolved = true;

    scheduleCompletion(di, cycle + p.agenLatency);
    checkStoreViolation(di);
}

void
Core::issueStage()
{
    unsigned slots_simple = p.simpleIntSlots;
    unsigned slots_complex = p.complexSlots;
    unsigned slots_load = p.loadSlots;
    unsigned slots_store = p.storeSlots;
    unsigned total = p.issueWidth;

    auto try_issue = [&](DynInst &di) -> bool {
        if (total == 0)
            return false;
        unsigned *slot = nullptr;
        switch (di.dec->issuePort()) {
          case IssuePort::Simple: slot = &slots_simple; break;
          case IssuePort::Complex: slot = &slots_complex; break;
          case IssuePort::LoadP: slot = &slots_load; break;
          case IssuePort::StoreP:
            slot = p.sharedLoadStorePort ? &slots_load : &slots_store;
            break;
        }
        if (*slot == 0)
            return true; // port busy; keep scanning other classes

        bool issued = true;
        if (di.isLoad())
            issued = executeLoad(di);
        else if (di.isStore())
            executeStore(di);
        else
            executeAlu(di);

        if (issued) {
            di.issued = true;
            di.issueCycle = cycle;
            if (di.inRs) {
                di.inRs = false;
                --rsBusy;
                clearIssueBit(di.robSlot);
            }
            --*slot;
            --total;
            ++stats_.issued;
            if (di.isLoad())
                ++stats_.issuedLoads;
        }
        return true;
    };

    // A store-set squash during issue invalidates ROB positions;
    // collect candidates first, re-validate by sequence number. The
    // candidate buffers are members sized to the RS at reset: every
    // candidate is a distinct RS occupant, so each bucket holds at
    // most rsSize entries.
    InstRef *const prio = issuePrio.data();
    InstRef *const rest = issueRest.data();
    size_t nprio = 0, nrest = 0;
    oldestUnresolvedStore = ~InstSeqNum(0);
    for (const SqEntry &e : sq) {
        if (!e.resolved) {
            oldestUnresolvedStore = e.seq; // sq is age-ordered
            break;
        }
    }

    // Candidates in age order: the issue mask's set bits, walked from
    // the ROB head's slot around the ring.
    //
    // Invariant: earliestIssue never decreases in age order.
    // earliestIssue is renameCycle + issueDelay(), issueDelay() is
    // fixed per configuration, and instructions rename in sequence
    // order. So the first candidate that may not issue yet ends the
    // scan: every younger candidate is ineligible too.
    const u32 nslots = rob.slots();
    u32 pos = rob.slotOf(0);
    u32 left = u32(rob.size());
    bool more = true;
    while (more && left != 0) {
        // The slots from pos to the end of its mask word, the end of
        // the ring or the ROB tail, whichever comes first.
        const u32 span = std::min({64 - (pos & 63), nslots - pos, left});
        u64 bits = (issueMask[pos >> 6] >> (pos & 63)) & mask(span);
        while (bits != 0) {
            const u32 slot = pos + ctz64(bits);
            bits &= bits - 1;
            const InstHandle h = rob.atSlot(slot);
            DynInst &di = pool.get(h);
            if (di.earliestIssue > cycle) {
                issueWake_ = di.earliestIssue;
                more = false;
                break;
            }
            if (checkReadyOrPark(di)) {
                if (di.dec->priority())
                    prio[nprio++] = {h, di.seq};
                else
                    rest[nrest++] = {h, di.seq};
            }
        }
        pos += span;
        left -= span;
        if (pos == nslots)
            pos = 0;
    }
    if (nprio + nrest != 0)
        changed_ = true;

    for (const auto &[bucket, count] :
         {std::pair{prio, nprio}, std::pair{rest, nrest}}) {
        for (size_t k = 0; k < count; ++k) {
            if (total == 0)
                return;
            const InstRef r = bucket[k];
            DynInst &di = pool.get(r.h);
            if (di.seq != r.seq || di.issued || !di.inRs)
                continue; // squashed meanwhile
            if (!try_issue(di))
                return;
        }
    }
}

void
Core::resolveControl(DynInst &di)
{
    if (di.inst.isCondBranch())
        integ.fillBranchOutcome(di.createdEntry, di.actualTaken);

    if (di.actualNextPc() != di.predictedNextPc()) {
        di.mispredicted = true;
        ++stats_.branchMispredicts;
        ++stats_.squashesBranch;
        squashFrom(di, /*include_boundary=*/false, di.actualNextPc(),
                   p.squashPenalty, SquashCause::Branch);
    }
}

void
Core::writebackStage()
{
    const std::vector<CompletionQueue::Event> &due = completions.take(cycle);
    if (!due.empty())
        changed_ = true;
    for (const CompletionQueue::Event &ev : due) {
        DynInst *di = &pool.get(ev.h);
        if (di->seq != ev.seq)
            continue; // squashed in flight (slot recycled)

        completeNow(*di, cycle);

        if (di->hasDest && !di->integrated) {
            regState.markReady(di->pdest);
            WaitList &list = waiters[di->pdest];
            for (InstHandle h = list.head; h != invalidInstHandle;) {
                DynInst &w = pool.get(h);
                h = w.waitNext;
                if (w.integrated) {
                    completeNow(w, cycle);
                } else {
                    w.waitingOperand = false;
                    setIssueBit(w.robSlot); // a candidate from this cycle
                }
            }
            list = WaitList{};
        }

        if (di->isCtrl && di->resolved)
            resolveControl(*di);
    }
}

} // namespace rix
