/**
 * @file
 * Rename stage with register integration (the paper's section 2).
 *
 * Per instruction: translate sources through the map table, attempt
 * integration against the IT, then either share the matched physical
 * register (reference-count increment, no reservation station) or
 * allocate a fresh register and create IT entries (direct, and reverse
 * entries for stack stores / stack-pointer decrements).
 *
 * Integrated conditional branches resolve immediately: a disagreement
 * with the front-end prediction redirects fetch from rename.
 */

#include "base/log.hh"
#include "cpu/core.hh"
#include "trace/coverage.hh"

namespace rix
{

bool
Core::oracleWouldMisintegrate(const DynInst &di,
                              const IntegrationResult &res) const
{
    // Oracle mis-integration suppression: veto an integration whose
    // value can be proven wrong right now. Approximation of the paper's
    // oracle: when the candidate register's value or the instruction's
    // inputs are not available yet, the integration is allowed.
    if (res.isBranch || !res.integrated)
        return false;

    const Instruction &inst = di.inst;
    if (inst.isLoad()) {
        // An older store with an unresolved address but the same base
        // register and displacement is about to write the load's
        // location (the spill-slot update idiom): the reuse would be
        // stale. Suppress regardless of value readiness.
        for (const SqEntry &e : sq) {
            if (e.seq >= di.seq)
                break;
            if (e.resolved)
                continue;
            const DynInst &st = pool.get(e.owner);
            if (st.seq == e.seq && st.psrc1 == di.psrc1 &&
                st.inst.imm == inst.imm)
                return true;
        }
        if (!regState.ready(res.preg) || !regState.ready(di.psrc1))
            return false;
        const Addr addr = pregValue[di.psrc1] + u64(s64(inst.imm));
        const u64 correct = loadValue(
            inst.op, memReadOverlay(addr, di.dec->size, di.seq));
        return correct != pregValue[res.preg];
    }

    if (!regState.ready(res.preg))
        return false;
    const u64 current = pregValue[res.preg];
    if (di.hasSrc1 && !regState.ready(di.psrc1))
        return false;
    if (di.hasSrc2 && !regState.ready(di.psrc2))
        return false;
    const u64 a = di.hasSrc1 ? pregValue[di.psrc1] : 0;
    const u64 b = di.hasSrc2 ? pregValue[di.psrc2] : 0;
    return aluCompute(inst, a, b) != current;
}

void
Core::applyIntegration(DynInst &di, const IntegrationResult &res)
{
    di.integrated = true;
    di.reverseIntegrated = res.reverse;
    di.producerSeq = res.producerSeq;
    di.sourceEntry = res.entryHandle;

    if (res.isBranch) {
        uncountedEvents_ |= u64(1) << kCovIntegBranch;
        // Outcome reuse: resolve the branch right now.
        di.actualTaken = res.taken;
        di.actualTarget = InstAddr(u32(di.inst.imm));
        di.resolved = true;
        di.integStatus = IntegStatus::Retire; // producer outcome known
        completeNow(di, cycle);
        return;
    }

    // Figure-5 status/refcount accounting, observed pre-increment.
    const u8 count_before = regState.count(res.preg);
    if (count_before == 0) {
        di.integStatus = IntegStatus::ShadowSquash;
    } else if (DynInst *prod = findInst(res.producerSeq)) {
        di.integStatus = prod->issued ? IntegStatus::Issue
                                      : IntegStatus::Rename;
    } else {
        di.integStatus = IntegStatus::Retire;
    }

    regState.addRef(res.preg);
    di.refcountAfter = regState.count(res.preg);

    const LogReg dst = di.inst.rc;
    di.hasDest = true;
    di.pdest = res.preg;
    di.gdest = res.gen;
    di.oldDest = map[dst].preg;
    di.oldDestGen = map[dst].gen;
    di.oldDestValid = true;
    map[dst] = {res.preg, res.gen};

    if (regState.ready(res.preg)) {
        completeNow(di, cycle);
    } else {
        waitOn(res.preg, di);
    }
}


void
Core::finishRenameCommon(DynInst &di)
{
    di.renamed = true;
    di.renameCycle = cycle;
    di.renameStreamPos = ++renameStreamPos;
    di.earliestIssue = cycle + p.issueDelay();
    ++stats_.renamed;
}

bool
Core::renameOne(InstHandle h)
{
    DynInst &di = pool.get(h);
    const Instruction &inst = di.inst;
    const DecodedInst &dec = *di.dec;

    // ---- structural resource checks (stall = leave in fetch queue) ----
    if (rob.size() >= p.robSize)
        return false;
    if (dec.isMem() && lq.size() + sq.size() >= p.maxMemOps)
        return false;

    // ---- source mapping (operands pre-resolved at decode) ----
    di.hasSrc1 = dec.readsRa();
    di.hasSrc2 = dec.readsRb();
    if (di.hasSrc1) {
        di.psrc1 = map[dec.src1].preg;
        di.gsrc1 = map[dec.src1].gen;
    }
    if (di.hasSrc2) {
        di.psrc2 = map[dec.src2].preg;
        di.gsrc2 = map[dec.src2].gen;
    }

    // ---- integration attempt ----
    RenameCandidate cand;
    cand.inst = inst;
    cand.pc = di.pc;
    cand.callDepth = di.pred.callDepth;
    cand.seq = renameStreamPos + 1; // position this inst will take
    cand.hasSrc1 = di.hasSrc1;
    cand.hasSrc2 = di.hasSrc2;
    cand.src1 = di.psrc1;
    cand.src2 = di.psrc2;
    cand.src1Gen = di.gsrc1;
    cand.src2Gen = di.gsrc2;

    ITProbe probe;
    IntegrationResult res = integ.tryIntegrate(cand, &probe);
    if (res.suppressed)
        ++stats_.lispFalseCandidates;
    const bool oracle_veto = res.integrated &&
                             p.integ.lisp == LispMode::Oracle &&
                             oracleWouldMisintegrate(di, res);
    if (oracle_veto) {
        ++stats_.oracleSuppressions;
        res = IntegrationResult{};
    }
    // A structural stall from here on repeats this attempt, with the
    // same effects, every cycle until a resource frees: record them
    // for run()'s closed form.
    auto stall = [&] {
        renameRepeats_ = true;
        renameRepeatProbe_ = probe;
        renameRepeatPc_ = di.pc;
        renameRepeatSuppressed_ = res.suppressed;
        renameRepeatOracle_ = oracle_veto;
        return false;
    };

    if (res.integrated) {
        finishRenameCommon(di);
        applyIntegration(di, res);
        // Reverse entries for stack-pointer decrements are created even
        // when the decrement itself integrated.
        integ.recordEntries(cand, di.hasDest, di.pdest, di.gdest,
                            /*integrated=*/true);

        const bool redirect =
            di.resolved && di.actualNextPc() != di.predictedNextPc();
        di.robSlot = u16(rob.push_back(h));
        if (redirect) {
            // Early (rename-time) branch resolution: the front end is
            // on the wrong path.
            uncountedEvents_ |= u64(1) << kCovRenameRedirect;
            di.mispredicted = true;
            ++stats_.branchMispredicts;
            squashFrom(di, /*include_boundary=*/false, di.actualNextPc(),
                       p.squashPenalty, SquashCause::Branch);
        }
        return true;
    }

    // ---- normal rename path ----
    const bool needs_rs = dec.needsRs();
    if (needs_rs && rsBusy >= p.rsSize)
        return stall();
    if (dec.writesReg()) {
        const PhysReg pdest = regState.tryAllocate();
        if (pdest == invalidPhysReg)
            return stall();
        const LogReg dst = inst.rc;
        di.hasDest = true;
        di.pdest = pdest;
        di.gdest = regState.gen(di.pdest);
        di.oldDest = map[dst].preg;
        di.oldDestGen = map[dst].gen;
        di.oldDestValid = true;
        map[dst] = {di.pdest, di.gdest};
    }

    finishRenameCommon(di);
    cand.seq = di.renameStreamPos;
    di.createdEntry =
        integ.recordEntries(cand, di.hasDest, di.pdest, di.gdest,
                            /*integrated=*/false, &probe);

    if (needs_rs) {
        ++rsBusy;
        di.inRs = true;
    }

    // Queue allocation for memory operations.
    if (dec.isLoad()) {
        di.lsqPos = lqHeadPos + u32(lq.size());
        lq.push_back(
            LqEntry{di.seq, di.selfHandle, 0, dec.size, false, 0});
    } else if (dec.isStore()) {
        di.lsqPos = sqHeadPos + u32(sq.size());
        sq.push_back(
            SqEntry{di.seq, di.selfHandle, 0, dec.size, 0, false});
    }

    // Instructions that never enter the execution engine.
    switch (dec.instClass()) {
      case InstClass::Jump:
        di.resolved = true;
        di.actualTaken = true;
        di.actualTarget = InstAddr(u32(inst.imm));
        completeNow(di, cycle);
        break;
      case InstClass::Call:
        di.resolved = true;
        di.actualTaken = true;
        di.actualTarget = InstAddr(u32(inst.imm));
        pregValue[di.pdest] = di.pc + 1;
        regState.markReady(di.pdest);
        completeNow(di, cycle);
        break;
      case InstClass::Syscall:
        // Architecturally executed at retirement by the golden model;
        // the register result (always zero) is available immediately.
        if (di.hasDest) {
            pregValue[di.pdest] = 0;
            regState.markReady(di.pdest);
        }
        completeNow(di, cycle);
        break;
      case InstClass::Nop:
      case InstClass::Halt:
        completeNow(di, cycle);
        break;
      default:
        break;
    }

    di.robSlot = u16(rob.push_back(h));
    if (di.inRs)
        setIssueBit(di.robSlot);
    return true;
}

void
Core::renameStage()
{
    for (unsigned w = 0; w < p.renameWidth; ++w) {
        if (fetchQueue.empty())
            return;
        if (pool.get(fetchQueue.front()).renameReadyCycle > cycle)
            return;
        // Detach the head so a rename-time redirect (which clears the
        // fetch queue) cannot drop it: by the time a redirect squashes,
        // the handle is already parked in the ROB.
        const InstHandle h = fetchQueue.pop_front();
        if (!renameOne(h)) {
            // Structural stall: put it back and stop renaming.
            fetchQueue.push_front(h);
            return;
        }
        changed_ = true;
    }
}

} // namespace rix
