#include "core/integration.hh"

#include "base/log.hh"

namespace rix
{

IntegrationEngine::IntegrationEngine(const IntegrationParams &params,
                                     RegStateVector &reg_state)
    : p(params), regs(reg_state), it(params),
      lisp_(params.lispEntries, params.lispAssoc)
{
}

void
IntegrationEngine::reset(const IntegrationParams &params)
{
    p = params;
    it.reset(params);
    lisp_.reset(params.lispEntries, params.lispAssoc);
    pending.clear();
    nextPendingId = 1;
    nReverseEntries = nDirectEntries = 0;
}

ITKey
IntegrationEngine::keyFor(const RenameCandidate &cand) const
{
    ITKey key;
    key.op = cand.inst.op;
    key.imm = cand.inst.imm;
    key.pc = cand.pc;
    key.callDepth = cand.callDepth;
    key.hasIn1 = cand.hasSrc1;
    key.hasIn2 = cand.hasSrc2;
    key.in1 = cand.src1;
    key.in2 = cand.src2;
    key.gen1 = cand.src1Gen;
    key.gen2 = cand.src2Gen;
    return key;
}

IntegrationResult
IntegrationEngine::tryIntegrate(const RenameCandidate &cand, ITProbe *probe)
{
    IntegrationResult res;
    if (!p.enabled() || !classIntegrates(cand.inst))
        return res;
    drainPending(cand.seq);

    ITHandle handle;
    ITProbe local;
    ITProbe &pr = probe ? *probe : local;
    it.probe(keyFor(cand), pr);
    ITEntry *e = it.lookup(pr, &handle);
    if (!e)
        return res;
    res.entryHandle = handle;

    if (cand.inst.isCondBranch()) {
        if (!e->isBranch || !e->outcomeValid)
            return res;
        res.integrated = true;
        res.isBranch = true;
        res.taken = e->taken;
        res.reverse = e->reverse;
        res.producerSeq = e->createSeq;
        return res;
    }

    if (!e->hasOut)
        return res;
    if (!regs.eligible(e->out, e->outGen, p.mode, p.useGenCounters))
        return res;

    // Load mis-integration suppression (realistic LISP). The oracle
    // variant is applied by the caller, which can see values.
    if (cand.inst.isLoad() && p.lisp == LispMode::Realistic &&
        lisp_.suppress(cand.pc)) {
        res.suppressed = true;
        return res;
    }

    res.integrated = true;
    res.reverse = e->reverse;
    res.preg = e->out;
    res.gen = e->outGen;
    res.producerSeq = e->createSeq;
    return res;
}

void
IntegrationEngine::drainPendingUntil(u64 now_seq)
{
    while (!pending.empty() && pending.front().visibleAtSeq <= now_seq) {
        // The entry carries any outcome filled while it was pending.
        const PendingInsert &pi = pending.front();
        it.insert(pi.probe, pi.entry);
        pending.pop_front();
    }
}

ITHandle
IntegrationEngine::enqueueOrInsert(const ITProbe &probe, const ITEntry &entry)
{
    if (p.itWriteDelay == 0)
        return it.insert(probe, entry);
    pending.push_back({entry.createSeq + p.itWriteDelay, probe, entry});
    ITHandle h;
    h.valid = true;
    h.isPending = true;
    h.id = pending.back().entry.id = nextPendingId++;
    return h;
}

ITHandle
IntegrationEngine::recordEntries(const RenameCandidate &cand, bool has_dest,
                                 PhysReg dest, u8 dest_gen, bool integrated,
                                 const ITProbe *probe)
{
    ITHandle branch_handle;
    if (!p.enabled())
        return branch_handle;
    drainPending(cand.seq);

    const Instruction &inst = cand.inst;

    // Direct entry (only when integration failed: an integrating
    // instruction's result already is the matching entry).
    if (!integrated && classIntegrates(inst)) {
        ITProbe fresh;
        if (!probe || !probe->made()) {
            it.probe(keyFor(cand), fresh);
            probe = &fresh;
        }
        ITEntry e;
        e.hasOut = has_dest;
        e.out = dest;
        e.outGen = dest_gen;
        e.isBranch = inst.isCondBranch();
        e.createSeq = cand.seq;
        ITHandle h = enqueueOrInsert(*probe, e);
        ++nDirectEntries;
        if (e.isBranch)
            branch_handle = h;
    }

    if (!modeHasReverse(p.mode))
        return branch_handle;

    ITEntry rev;
    rev.hasOut = true;
    rev.reverse = true;
    rev.createSeq = cand.seq;

    // Reverse entry for stack-pointer-based stores: the complementary
    // load <ldq/imm, base, -> data-register>.
    if (inst.isStore() && inst.ra == regSp && cand.hasSrc1 &&
        cand.hasSrc2) {
        ITKey rkey;
        rkey.op = inverseOfStore(inst.op);
        rkey.imm = inst.imm;
        rkey.pc = cand.pc;
        rkey.callDepth = cand.callDepth;
        rkey.hasIn1 = true;
        rkey.in1 = cand.src1;        // base (stack pointer)
        rkey.gen1 = cand.src1Gen;
        rev.out = cand.src2;         // data register
        rev.outGen = cand.src2Gen;
        enqueueOrInsert(it.probe(rkey), rev);
        ++nReverseEntries;
    }

    // Reverse entry for stack-pointer decrements (frame opens): the
    // complementary increment, with the immediate negated and the input
    // and output registers swapped. Only lda/addqi sp, -k(sp) forms are
    // recognized (the canonical frame-open idiom).
    if ((inst.op == Opcode::LDA || inst.op == Opcode::ADDQI) &&
        inst.rc == regSp && inst.ra == regSp && inst.imm < 0 && has_dest &&
        cand.hasSrc1) {
        ITKey rkey;
        rkey.op = inst.op;
        rkey.imm = -inst.imm;
        rkey.pc = cand.pc;
        rkey.callDepth = cand.callDepth;
        rkey.hasIn1 = true;
        rkey.in1 = dest;          // the decremented stack pointer
        rkey.gen1 = dest_gen;
        rev.out = cand.src1;      // the stack pointer before it
        rev.outGen = cand.src1Gen;
        enqueueOrInsert(it.probe(rkey), rev);
        ++nReverseEntries;
    }

    return branch_handle;
}

void
IntegrationEngine::fillBranchOutcome(const ITHandle &h, bool taken)
{
    if (h.isPending) {
        for (auto &pi : pending) {
            if (pi.entry.id == h.id) {
                pi.entry.outcomeValid = true;
                pi.entry.taken = taken;
                return;
            }
        }
        return; // already drained; outcome fill races the write stage
    }
    it.fillBranchOutcome(h, taken);
}

const char *
integrationModeName(IntegrationMode m)
{
    switch (m) {
      case IntegrationMode::Off: return "off";
      case IntegrationMode::Squash: return "squash";
      case IntegrationMode::General: return "+general";
      case IntegrationMode::OpcodeIndexed: return "+opcode";
      case IntegrationMode::Reverse: return "+reverse";
    }
    return "?";
}

const char *
lispModeName(LispMode m)
{
    switch (m) {
      case LispMode::Off: return "off";
      case LispMode::Realistic: return "realistic";
      case LispMode::Oracle: return "oracle";
    }
    return "?";
}

} // namespace rix
