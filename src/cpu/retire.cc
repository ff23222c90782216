/**
 * @file
 * DIVA checking, retirement, and squash recovery.
 *
 * The DIVA checker is the in-order golden emulator stepping along with
 * retirement: every retiring instruction's pipeline-produced
 * result is compared against the architecturally correct one. A
 * mismatch on an integrated instruction is a mis-integration (full
 * pipeline flush including the offender, modeled as a monolithic
 * one-cycle recovery, plus LISP training and IT-entry invalidation); a
 * mismatch on anything else is a simulator bug, recorded as a
 * structured DivergenceReport that stops the core — the checker doubles
 * as the end-to-end correctness oracle for the whole model.
 *
 * Squash recovery walks the ROB youngest-first, restoring the map table
 * and undoing reference-count increments serially (the paper's
 * ROB-based serial undo), and repairs the front-end history/RAS from
 * the boundary instruction's checkpoints.
 */

#include "base/log.hh"
#include "cpu/core.hh"
#include "trace/coverage.hh"

namespace rix
{

void
Core::undoRename(DynInst &di)
{
    if (!di.renamed)
        return;
    if (di.hasDest) {
        map[di.inst.rc] = {di.oldDest, di.oldDestGen};
        regState.releaseSquash(di.pdest);
    }
    if (di.inRs) {
        di.inRs = false;
        --rsBusy;
    }
}

void
Core::squashFrom(DynInst &boundary, bool include_boundary, InstAddr new_pc,
                 unsigned penalty, SquashCause cause)
{
    const InstSeqNum bseq =
        include_boundary ? boundary.seq - 1 : boundary.seq;

    // Capture what we need from the boundary before it is destroyed
    // (include_boundary destroys it too).
    const BranchPrediction boundary_pred = boundary.pred;
    const Instruction boundary_inst = boundary.inst;
    const InstAddr boundary_pc = boundary.pc;
    const bool boundary_taken = boundary.actualTaken;

    // The trace drain fires while the retire stream is inside the
    // window; one flag test per squashed instruction when a sink is
    // attached, nothing otherwise.
    const bool tracing = trace_ && traceArmed();

    while (!rob.empty() && pool.get(rob.back()).seq > bseq) {
        DynInst &victim = pool.get(rob.back());
        clearIssueBit(victim.robSlot);
        unwait(victim);
        undoRename(victim);
        if (tracing) {
            victim.squashCause = cause;
            traceSquashed(victim, cause);
        }
        ++stats_.squashedInsts;
        pool.release(rob.pop_back());
    }

    stats_.squashedInsts += fetchQueue.size();
    while (!fetchQueue.empty()) {
        if (tracing) {
            DynInst &victim = pool.get(fetchQueue.front());
            victim.squashCause = cause;
            traceSquashed(victim, cause);
        }
        pool.release(fetchQueue.pop_front());
    }

    while (!sq.empty() && sq.back().seq > bseq)
        sq.pop_back();
    while (!lq.empty() && lq.back().seq > bseq)
        lq.pop_back();

    // Front-end repair: restore to before the boundary instruction,
    // then (when it survives) re-apply its own effect with the actual
    // outcome.
    bpred.repairBefore(boundary_pred);
    if (!include_boundary)
        bpred.applyOutcome(boundary_inst, boundary_pc, boundary_taken);

    fetchPc = new_pc;
    fetchStallUntil = cycle + penalty;
    changed_ = true;
}

bool
Core::divaCheck(const DynInst &di, const StepResult &expected) const
{
    const Instruction &inst = di.inst;
    if (inst.isNop() || inst.isHalt())
        return true;
    if (di.hasDest && pregValue[di.pdest] != expected.destValue)
        return false;
    if (di.isStore() &&
        (di.effAddr != expected.memAddr ||
         di.storeData != expected.destValue))
        return false;
    if (di.isLoad() && !di.integrated && di.effAddr != expected.memAddr)
        return false;
    if (di.isCtrl && di.actualNextPc() != expected.nextPc)
        return false;
    return true;
}

void
Core::handleMisintegration(DynInst &di)
{
    ++stats_.misintegrations;
    if (di.isLoad())
        ++stats_.misintLoads;
    else if (di.inst.isCondBranch())
        ++stats_.misintBranches;
    else
        ++stats_.misintRegisters;

    if (di.isLoad() && p.integ.lisp == LispMode::Realistic)
        integ.lisp().trainMisintegration(di.pc);

    // The matched entry produced a wrong result; kill it so the
    // re-fetched instruction cannot re-integrate it (guarantees
    // forward progress even with suppression disabled).
    integ.table().invalidate(di.sourceEntry);

    ++stats_.squashesMisint;
    // Complete flush including the offender; monolithic recovery.
    squashFrom(di, /*include_boundary=*/true, di.pc, p.misintPenalty + 1,
               SquashCause::Misintegration);
}

void
Core::recordRetireStats(const DynInst &di)
{
    ++stats_.retired;
    const Instruction &inst = di.inst;
    if (inst.isLoad()) {
        ++stats_.retiredLoads;
        if (inst.ra == regSp)
            ++stats_.retiredSpLoads;
    } else if (inst.isStore()) {
        ++stats_.retiredStores;
    } else if (inst.isCondBranch()) {
        ++stats_.retiredBranches;
    }

    if (!di.integrated)
        return;

    const unsigned r = di.reverseIntegrated ? 1 : 0;
    if (r)
        ++stats_.integratedReverse;
    else
        ++stats_.integratedDirect;

    // Type breakdown (Figure 5 "Type").
    unsigned type;
    if (inst.isLoad())
        type = inst.ra == regSp ? 0 : 1;
    else if (inst.isCondBranch())
        type = 3;
    else if (inst.cls() == InstClass::FloatOp)
        type = 4;
    else
        type = 2;
    ++stats_.integByType[type][r];

    // Distance breakdown (Figure 5 "Distance").
    const u64 dist = di.renameStreamPos > di.producerSeq
                         ? di.renameStreamPos - di.producerSeq
                         : 0;
    static const u64 bounds[5] = {4, 16, 64, 256, 1024};
    unsigned db = 5;
    for (unsigned i = 0; i < 5; ++i) {
        if (dist <= bounds[i]) {
            db = i;
            break;
        }
    }
    ++stats_.integByDistance[db][r];

    // Status breakdown (Figure 5 "Status").
    unsigned sb = 0;
    switch (di.integStatus) {
      case IntegStatus::Rename: sb = 0; break;
      case IntegStatus::Issue: sb = 1; break;
      case IntegStatus::Retire: sb = 2; break;
      case IntegStatus::ShadowSquash: sb = 3; break;
      case IntegStatus::None: sb = 2; break;
    }
    ++stats_.integByStatus[sb][r];

    // Reference-count breakdown (Figure 5 "Refcount"); branches carry
    // no register payload.
    if (di.refcountAfter > 0) {
        unsigned rb;
        if (di.refcountAfter == 1)
            rb = 0;
        else if (di.refcountAfter <= 3)
            rb = 1;
        else if (di.refcountAfter <= 7)
            rb = 2;
        else
            rb = 3;
        ++stats_.integByRefcount[rb][r];
    }
}

void
Core::retireStage()
{
    for (unsigned w = 0; w < p.retireWidth; ++w) {
        if (stats_.retired >= retireStopAt)
            return; // exact interval boundary (see setRetireStop)
        if (rob.empty())
            return;
        DynInst &di = pool.get(rob.front());
        // DIVA + retire occupy the two in-order stages after writeback.
        if (!di.completed || di.completeCycle >= cycle)
            return;
        if (di.isStore() && writeBuffer.full()) {
            uncountedEvents_ |= u64(1) << kCovRetireWbStall;
            return;
        }

        if (golden_.pc() != di.pc) {
            recordStreamMismatch(di);
            return;
        }

        const StepResult expected = golden_.preview();
        if (!divaCheck(di, expected)) {
            // A wrong result on a non-integrated instruction is a
            // genuine execution bug, reported as a structured
            // divergence (the fuzz driver's raw material).
            if (!di.integrated) {
                recordValueMismatch(di, expected);
                return;
            }
            handleMisintegration(di);
            return;
        }

        golden_.commit(expected);
        if (golden_.faulted()) {
            // The retiring store landed in the immutable text segment:
            // a structured, contained per-job failure (the program is
            // faulty, not the simulator), reported like a watchdog
            // stop rather than a panic.
            stuckReason_ = golden_.fault().describe();
            stuck_ = true;
            done = true;
            return;
        }
        lastProgressCycle = cycle;
        changed_ = true;

        if (di.hasDest && di.oldDestValid)
            regState.releaseOverwrite(di.oldDest);

        if (di.isStore()) {
            if (sq.empty() || sq.front().seq != di.seq)
                rix_panic("SQ head mismatch at retire");
            writeBuffer.push(di.effAddr, cycle);
            sq.pop_front();
            ++sqHeadPos;
        } else if (di.isLoad() && !di.integrated) { // owns an LQ entry
            if (lq.empty() || lq.front().seq != di.seq)
                rix_panic("LQ head mismatch at retire");
            if (di.speculativePastStore) {
                cht[di.pc & (cht.size() - 1)].decrement();
                uncountedEvents_ |= u64(1) << kCovRetireChtDecrement;
            }
            lq.pop_front();
            ++lqHeadPos;
        }

        if (di.isCtrl) {
            bpred.update(di.inst, di.pc, di.pred, di.actualTaken,
                         di.actualTarget);
            if (di.mispredicted) {
                ++stats_.retiredMispredicts;
                stats_.mispredResolveLatSum +=
                    di.completeCycle - di.fetchCycle;
            }
            if (di.inst.isCondBranch())
                uncountedEvents_ |=
                    u64(1) << (kCovBranchEdge + (di.pred.predTaken ? 2 : 0) +
                               (di.actualTaken ? 1 : 0));
        }

        recordRetireStats(di);
        if (trace_)
            traceRetired(di);

        const bool halt = di.inst.isHalt();
        pool.release(rob.pop_front());
        if (halt) {
            done = true;
            return;
        }
    }
}

} // namespace rix
