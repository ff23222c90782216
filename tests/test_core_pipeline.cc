/**
 * @file
 * Cycle-level core tests: basic execution correctness against the
 * emulator on directed programs, branch misprediction recovery, memory
 * disambiguation (forwarding, violations, collision prediction),
 * resource limits, and pipeline timing sanity.
 */

#include <gtest/gtest.h>

#include "assembler/parser.hh"
#include "base/log.hh"
#include "cpu/core.hh"
#include "sim/simulator.hh"

using namespace rix;

namespace
{

Program &
keep(Program p)
{
    static std::vector<std::unique_ptr<Program>> pool;
    pool.push_back(std::make_unique<Program>(std::move(p)));
    return *pool.back();
}

/** Run a text program on the core and check against the emulator. */
void
expectMatchesEmulator(const std::string &src, const CoreParams &cp)
{
    Program &p = keep(assembleTextOrDie(src, "t"));
    std::string err = verifyAgainstEmulator(p, cp, 2'000'000, 20'000'000);
    EXPECT_EQ(err, "");
}

} // namespace

TEST(CorePipeline, StraightLine)
{
    expectMatchesEmulator(R"(
        addqi t0, zero, 3
        addqi t1, zero, 4
        mulq t2, t0, t1
        subq t3, t2, t0
        halt
    )",
                          baselineParams());
}

TEST(CorePipeline, TightLoop)
{
    expectMatchesEmulator(R"(
        addqi t0, zero, 100
        addqi t1, zero, 0
loop:   addq t1, t1, t0
        subqi t0, t0, 1
        bne t0, loop
        syscall 1, t1
        halt
    )",
                          baselineParams());
}

TEST(CorePipeline, CallsAndStack)
{
    expectMatchesEmulator(R"(
f:      lda sp, -16(sp)
        stq ra, 0(sp)
        stq s0, 8(sp)
        addqi s0, a0, 7
        mulqi v0, s0, 3
        ldq s0, 8(sp)
        ldq ra, 0(sp)
        lda sp, 16(sp)
        ret
main:   addqi t3, zero, 20
        addqi s1, zero, 0
loop:   mv a0, t3
        jsr f
        addq s1, s1, v0
        subqi t3, t3, 1
        bne t3, loop
        syscall 1, s1
        halt
        .entry main
    )",
                          baselineParams());
}

TEST(CorePipeline, DataDependentBranches)
{
    // Alternating and data-driven branches exercise misprediction
    // recovery (map-table restore, RAS/history repair).
    expectMatchesEmulator(R"(
        addqi t0, zero, 0x55aa
        addqi t1, zero, 64
        addqi t2, zero, 0
loop:   andi t3, t0, 1
        beq t3, even
        addqi t2, t2, 3
        br join
even:   subqi t2, t2, 1
join:   srli t0, t0, 1
        bne t0, keepmask
        addqi t0, zero, 0x55aa
keepmask: subqi t1, t1, 1
        bne t1, loop
        syscall 1, t2
        halt
    )",
                          baselineParams());
}

TEST(CorePipeline, StoreLoadForwarding)
{
    expectMatchesEmulator(R"(
        .data
buf:    .space 128
        .text
        addqi t0, zero, 500
        addqi t1, zero, 0
loop:   stq t0, buf(zero)
        ldq t2, buf(zero)     # forwards from the store
        addq t1, t1, t2
        subqi t0, t0, 1
        bne t0, loop
        syscall 1, t1
        halt
    )",
                          baselineParams());
}

TEST(CorePipeline, MemoryOrderViolationRecovers)
{
    // A store whose address resolves late (behind a multiply chain)
    // conflicting with a younger speculative load: the violation squash
    // and the collision-history-table training must preserve
    // architectural correctness.
    expectMatchesEmulator(R"(
        .data
cell:   .quad 1
        .text
        addqi t5, zero, 40
        addqi s1, zero, 0
        addqi t4, zero, cell
loop:   mulqi t0, t5, 3       # slow address computation
        andi t0, t0, 0
        addq t0, t0, t4       # = &cell, but late
        stq t5, 0(t0)
        ldq t1, cell(zero)    # same address, issues speculatively
        addq s1, s1, t1
        subqi t5, t5, 1
        bne t5, loop
        syscall 1, s1
        halt
    )",
                          baselineParams());
}

TEST(CorePipeline, PartialOverlapHandledConservatively)
{
    expectMatchesEmulator(R"(
        .data
cell:   .quad 0x1122334455667788
        .text
        addqi t0, zero, 0x99
        stl t0, cell(zero)     # 4-byte store
        ldq t1, cell(zero)     # 8-byte load overlaps partially
        syscall 1, t1
        halt
    )",
                          baselineParams());
}

TEST(CorePipeline, IndirectJumpTable)
{
    expectMatchesEmulator(R"(
main:   addqi t9, zero, 3
        addqi s1, zero, 0
outer:  andi t0, t9, 3
        addqi t1, zero, disp
        addq t1, t1, t0
        jmp t1
disp:   br h0
        br h1
        br h2
        br h3
h0:     addqi s1, s1, 1
        br join
h1:     addqi s1, s1, 10
        br join
h2:     addqi s1, s1, 100
        br join
h3:     addqi s1, s1, 1000
join:   subqi t9, t9, 1
        bge t9, outer
        syscall 1, s1
        halt
        .entry main
    )",
                          baselineParams());
}

TEST(CorePipeline, RecursionDepth)
{
    expectMatchesEmulator(R"(
fib:    lda sp, -24(sp)
        stq ra, 0(sp)
        stq s0, 8(sp)
        stq s1, 16(sp)
        mv s0, a0
        cmplti t0, s0, 2
        beq t0, rec
        mv v0, s0
        br out
rec:    subqi a0, s0, 1
        jsr fib
        mv s1, v0
        subqi a0, s0, 2
        jsr fib
        addq v0, v0, s1
out:    ldq s1, 16(sp)
        ldq s0, 8(sp)
        ldq ra, 0(sp)
        lda sp, 24(sp)
        ret
main:   addqi a0, zero, 12
        jsr fib
        syscall 1, v0
        halt
        .entry main
    )",
                          baselineParams());
}

TEST(CorePipeline, TimingSanity)
{
    // A trivially parallel block should get IPC well above 1 on the
    // 4-way machine, and a serial dependence chain close to 1.
    Program &par = keep(assembleTextOrDie(R"(
        addqi t9, zero, 2000
loop:   addqi t1, zero, 1
        addqi t2, zero, 2
        addqi t3, zero, 3
        addqi t4, zero, 4
        addqi t5, zero, 5
        addqi t6, zero, 6
        subqi t9, t9, 1
        bne t9, loop
        halt
    )",
                                          "par"));
    Core c1(par, baselineParams());
    c1.run();
    EXPECT_GT(c1.stats().ipc(), 1.8);

    Program &ser = keep(assembleTextOrDie(R"(
        addqi t9, zero, 2000
        addqi t1, zero, 1
loop:   addq t1, t1, t1
        srli t1, t1, 1
        addq t1, t1, t1
        srli t1, t1, 1
        subqi t9, t9, 1
        bne t9, loop
        halt
    )",
                                          "ser"));
    Core c2(ser, baselineParams());
    c2.run();
    EXPECT_LT(c2.stats().ipc(), 2.0);
    EXPECT_GT(c2.stats().ipc(), 0.5);
}

TEST(CorePipeline, MispredictPenaltyVisible)
{
    // An unpredictable branch stream should cost real cycles compared
    // with a perfectly biased one of the same instruction count.
    auto run_with = [&](const char *cond) {
        Program &p = keep(assembleTextOrDie(strfmt(R"(
        addqi t9, zero, 4000
        addqi t0, zero, 0x9e3779b9
        addqi s1, zero, 0
loop:   mulqi t0, t0, 25214903
        addqi t0, t0, 11
        srli t1, t0, 16
        andi t1, t1, %s
        beq t1, skip
        addqi s1, s1, 1
skip:   subqi t9, t9, 1
        bne t9, loop
        halt
        )",
                                                   cond),
                                            "b"));
        Core c(p, baselineParams());
        c.run();
        return c.stats();
    };
    const CoreStats biased = run_with("0");   // andi -> always 0: taken
    const CoreStats random = run_with("1");   // 50/50
    EXPECT_GT(random.branchMispredicts, biased.branchMispredicts + 500);
    EXPECT_GT(random.cycles, biased.cycles);
    EXPECT_GT(random.avgMispredResolveLat(), 5.0);
}

TEST(CorePipeline, RobAndRsLimitsRespected)
{
    Program &p = keep(assembleTextOrDie(R"(
        addqi t9, zero, 3000
loop:   mulq t1, t9, t9
        mulq t2, t1, t9
        subqi t9, t9, 1
        bne t9, loop
        halt
    )",
                                        "lim"));
    CoreParams cp = baselineParams();
    cp.robSize = 16;
    cp.rsSize = 4;
    Core c(p, cp);
    c.run();
    EXPECT_TRUE(c.halted());
    EXPECT_LE(c.stats().robOccupancySum / c.stats().cycles, 16u);
    EXPECT_LE(c.stats().rsOccupancySum / c.stats().cycles, 4u);
}

TEST(CorePipeline, ReducedConfigsStillCorrect)
{
    const char *src = R"(
        addqi t9, zero, 300
        addqi s1, zero, 0
loop:   mulqi t1, t9, 17
        stq t1, 0(gp)
        ldq t2, 0(gp)
        addq s1, s1, t2
        subqi t9, t9, 1
        bne t9, loop
        syscall 1, s1
        halt
    )";
    expectMatchesEmulator(src, reducedRsParams(baselineParams()));
    expectMatchesEmulator(src, reducedIssueParams(baselineParams()));
    expectMatchesEmulator(
        src, reducedRsParams(reducedIssueParams(baselineParams())));
}

TEST(CorePipeline, ChtLearnsCollisions)
{
    // Same directed violation program as above; after training, the
    // violation count must stop growing linearly (the CHT stalls the
    // load instead).
    Program &p = keep(assembleTextOrDie(R"(
        .data
cell:   .quad 1
        .text
        addqi t5, zero, 200
        addqi s1, zero, 0
        addqi t4, zero, cell
loop:   mulqi t0, t5, 3
        andi t0, t0, 0
        addq t0, t0, t4
        stq t5, 0(t0)
        ldq t1, cell(zero)
        addq s1, s1, t1
        subqi t5, t5, 1
        bne t5, loop
        halt
    )",
                                        "cht"));
    Core c(p, baselineParams());
    c.run();
    EXPECT_TRUE(c.halted());
    EXPECT_GT(c.stats().memOrderViolations, 0u);
    // 200 iterations but far fewer violations: the predictor kicked in.
    EXPECT_LT(c.stats().memOrderViolations, 50u);
}

TEST(CorePipeline, WatchdogFiresOnLivelock)
{
    // A program that never halts within the cycle limit simply stops at
    // the limit (the watchdog only fires on zero retirement progress,
    // which correct programs never exhibit).
    Program &p = keep(assembleTextOrDie(R"(
loop:   addqi t0, t0, 1
        br loop
    )",
                                        "inf"));
    Core c(p, baselineParams());
    c.run(~u64(0), 20000);
    EXPECT_FALSE(c.halted());
    EXPECT_GT(c.stats().retired, 1000u);
}

// ---- DynInst pool / handle machinery ----

TEST(DynInstPool, FixedCapacityRecyclesLifo)
{
    DynInstPool pool(8);
    EXPECT_EQ(pool.capacity(), 8u);
    // A fresh pool hands out its handles lowest first.
    std::vector<InstHandle> held;
    for (size_t i = 0; i < 8; ++i) {
        const InstHandle h = pool.alloc();
        EXPECT_EQ(h, InstHandle(i));
        pool.get(h).seq = InstSeqNum(i + 1);
        held.push_back(h);
    }
    EXPECT_EQ(pool.inUse(), 8u);
    for (size_t i = 0; i < held.size(); ++i)
        EXPECT_EQ(pool.get(held[i]).seq, InstSeqNum(i + 1));

    // Released handles come back last-in first-out, as fully reset
    // records, and the pool never grows.
    pool.release(held[2]);
    pool.release(held[5]);
    pool.release(held[0]);
    EXPECT_EQ(pool.inUse(), 5u);
    for (const InstHandle want : {held[0], held[5], held[2]}) {
        const InstHandle h = pool.alloc();
        EXPECT_EQ(h, want);
        EXPECT_EQ(pool.get(h).seq, 0u);
        EXPECT_FALSE(pool.get(h).renamed);
        EXPECT_EQ(pool.get(h).pdest, invalidPhysReg);
        EXPECT_EQ(pool.get(h).selfHandle, h);
    }
    EXPECT_EQ(pool.capacity(), 8u);
    EXPECT_EQ(pool.inUse(), 8u);

    // reset() frees everything and restarts the fresh handle order.
    pool.reset(4);
    EXPECT_EQ(pool.capacity(), 4u);
    EXPECT_EQ(pool.inUse(), 0u);
    EXPECT_EQ(pool.alloc(), 0u);
}

TEST(DynInstPoolDeathTest, ExhaustionPanics)
{
    // The core sizes the pool to the most instructions it can hold in
    // flight, so a dry pool is a simulator bug, not a reason to grow.
    DynInstPool pool(2);
    pool.alloc();
    pool.alloc();
    EXPECT_DEATH(pool.alloc(), "pool exhausted");
}

TEST(DynInstPool, ReleaseInvalidatesStaleRefs)
{
    DynInstPool pool(4);
    const InstHandle h = pool.alloc();
    pool.get(h).seq = 42;
    // A (handle, seq) pair held by an event queue validates while the
    // record is live...
    EXPECT_EQ(pool.get(h).seq, 42u);
    pool.release(h);
    // ...and must fail validation immediately after release, before
    // the slot is ever reused (squash correctness depends on this).
    EXPECT_NE(pool.get(h).seq, 42u);

    // A recycled slot comes back as a default record: the pipeline
    // reads some fields (retry cycle, status flags, refcount, IT
    // handles, squash cause) before any stage writes them.
    // Dirty every field, release, and take the same slot back (the
    // free list is LIFO).
    static const DecodedInst someDecoded{};
    const InstHandle d = pool.alloc();
    DynInst &w = pool.get(d);
    w.seq = 7;
    w.earliestIssue = 11;
    w.retryCycle = 12;
    w.pc = 13;
    w.psrc1 = 1;
    w.psrc2 = 2;
    w.pdest = 3;
    w.oldDest = 4;
    w.gsrc1 = w.gsrc2 = w.gdest = w.oldDestGen = 5;
    w.refcountAfter = 6;
    w.integStatus = IntegStatus::ShadowSquash;
    for (bool *f :
         {&w.renamed, &w.hasSrc1, &w.hasSrc2, &w.hasDest, &w.oldDestValid,
          &w.integrated, &w.reverseIntegrated, &w.inRs,
          &w.issued, &w.completed, &w.waitingOperand, &w.isCtrl,
          &w.resolved, &w.actualTaken, &w.mispredicted, &w.addrValid,
          &w.speculativePastStore})
        *f = true;
    w.inst = Instruction{Opcode::ADDQ, 1, 2, 3, 99};
    w.dec = &someDecoded;
    w.fetchCycle = w.renameReadyCycle = w.renameCycle = 14;
    w.producerSeq = w.renameStreamPos = 15;
    w.issueCycle = w.completeCycle = 16;
    w.actualTarget = 17;
    w.effAddr = 18;
    w.storeData = 19;
    w.pred.isControl = w.pred.predTaken = true;
    w.pred.predTarget = 20;
    w.pred.dir.taken = w.pred.dir.usedGshare = true;
    w.pred.dir.historyBefore = 21;
    w.pred.rasBefore.tos = 22;
    w.pred.rasBefore.topValue = 23;
    w.pred.callDepth = 24;
    w.createdEntry = w.sourceEntry = ITHandle{25, 26, 27, true, true};
    w.squashCause = SquashCause::Misintegration;
    pool.release(d);
    ASSERT_EQ(pool.alloc(), d);

    const DynInst &r = pool.get(d);
    const DynInst fresh{};
    EXPECT_EQ(r.selfHandle, d);
    EXPECT_EQ(r.seq, fresh.seq);
    EXPECT_EQ(r.earliestIssue, fresh.earliestIssue);
    EXPECT_EQ(r.retryCycle, fresh.retryCycle);
    EXPECT_EQ(r.pc, fresh.pc);
    EXPECT_EQ(r.psrc1, fresh.psrc1);
    EXPECT_EQ(r.psrc2, fresh.psrc2);
    EXPECT_EQ(r.pdest, fresh.pdest);
    EXPECT_EQ(r.oldDest, fresh.oldDest);
    EXPECT_EQ(r.gsrc1, fresh.gsrc1);
    EXPECT_EQ(r.gsrc2, fresh.gsrc2);
    EXPECT_EQ(r.gdest, fresh.gdest);
    EXPECT_EQ(r.oldDestGen, fresh.oldDestGen);
    EXPECT_EQ(r.refcountAfter, fresh.refcountAfter);
    EXPECT_EQ(r.integStatus, fresh.integStatus);
    EXPECT_EQ(r.renamed, fresh.renamed);
    EXPECT_EQ(r.hasSrc1, fresh.hasSrc1);
    EXPECT_EQ(r.hasSrc2, fresh.hasSrc2);
    EXPECT_EQ(r.hasDest, fresh.hasDest);
    EXPECT_EQ(r.oldDestValid, fresh.oldDestValid);
    EXPECT_EQ(r.integrated, fresh.integrated);
    EXPECT_EQ(r.reverseIntegrated, fresh.reverseIntegrated);
    EXPECT_EQ(r.inRs, fresh.inRs);
    EXPECT_EQ(r.issued, fresh.issued);
    EXPECT_EQ(r.completed, fresh.completed);
    EXPECT_EQ(r.waitingOperand, fresh.waitingOperand);
    EXPECT_EQ(r.isCtrl, fresh.isCtrl);
    EXPECT_EQ(r.resolved, fresh.resolved);
    EXPECT_EQ(r.actualTaken, fresh.actualTaken);
    EXPECT_EQ(r.mispredicted, fresh.mispredicted);
    EXPECT_EQ(r.addrValid, fresh.addrValid);
    EXPECT_EQ(r.speculativePastStore, fresh.speculativePastStore);
    EXPECT_EQ(r.inst.op, fresh.inst.op);
    EXPECT_EQ(r.inst.ra, fresh.inst.ra);
    EXPECT_EQ(r.inst.rb, fresh.inst.rb);
    EXPECT_EQ(r.inst.rc, fresh.inst.rc);
    EXPECT_EQ(r.inst.imm, fresh.inst.imm);
    EXPECT_EQ(r.dec, fresh.dec);
    EXPECT_EQ(r.fetchCycle, fresh.fetchCycle);
    EXPECT_EQ(r.renameReadyCycle, fresh.renameReadyCycle);
    EXPECT_EQ(r.renameCycle, fresh.renameCycle);
    EXPECT_EQ(r.producerSeq, fresh.producerSeq);
    EXPECT_EQ(r.renameStreamPos, fresh.renameStreamPos);
    EXPECT_EQ(r.issueCycle, fresh.issueCycle);
    EXPECT_EQ(r.completeCycle, fresh.completeCycle);
    EXPECT_EQ(r.actualTarget, fresh.actualTarget);
    EXPECT_EQ(r.effAddr, fresh.effAddr);
    EXPECT_EQ(r.storeData, fresh.storeData);
    EXPECT_EQ(r.pred.isControl, fresh.pred.isControl);
    EXPECT_EQ(r.pred.predTaken, fresh.pred.predTaken);
    EXPECT_EQ(r.pred.predTarget, fresh.pred.predTarget);
    EXPECT_EQ(r.pred.dir.taken, fresh.pred.dir.taken);
    EXPECT_EQ(r.pred.dir.usedGshare, fresh.pred.dir.usedGshare);
    EXPECT_EQ(r.pred.dir.historyBefore, fresh.pred.dir.historyBefore);
    EXPECT_EQ(r.pred.rasBefore.tos, fresh.pred.rasBefore.tos);
    EXPECT_EQ(r.pred.rasBefore.topValue, fresh.pred.rasBefore.topValue);
    EXPECT_EQ(r.pred.callDepth, fresh.pred.callDepth);
    for (const ITHandle *hd : {&r.createdEntry, &r.sourceEntry}) {
        EXPECT_EQ(hd->id, fresh.createdEntry.id);
        EXPECT_EQ(hd->set, fresh.createdEntry.set);
        EXPECT_EQ(hd->way, fresh.createdEntry.way);
        EXPECT_EQ(hd->valid, fresh.createdEntry.valid);
        EXPECT_EQ(hd->isPending, fresh.createdEntry.isPending);
    }
    EXPECT_EQ(r.squashCause, fresh.squashCause);
}

TEST(CompletionQueue, FiresEachCycleInAgeOrder)
{
    using Ev = CompletionQueue::Event;
    CompletionQueue q;
    const Cycle far = 5 + 3 * CompletionQueue::horizon;
    // Scheduled out of age order, some beyond the ring's horizon.
    q.push(7, 30, 3, 5);
    q.push(far, 12, 4, 5);
    q.push(7, 10, 1, 5);
    q.push(far, 11, 5, 5);
    q.push(8, 40, 6, 5);
    q.push(7, 20, 2, 5);

    std::vector<std::pair<Cycle, InstSeqNum>> fired;
    for (Cycle c = 6; c <= far + 1; ++c) {
        for (const Ev &ev : q.take(c)) {
            EXPECT_EQ(ev.when, c);
            fired.push_back({c, ev.seq});
        }
        if (c == 6) // pushes after a take land in later buckets
            q.push(9, 5, 7, c);
    }
    const std::vector<std::pair<Cycle, InstSeqNum>> want = {
        {7, 10}, {7, 20}, {7, 30}, {8, 40}, {9, 5}, {far, 11}, {far, 12}};
    EXPECT_EQ(fired, want);

    q.push(far + 10, 1, 8, far + 1);
    q.clear();
    for (Cycle c = far + 2; c <= far + 11; ++c)
        EXPECT_TRUE(q.take(c).empty());
}

TEST(CorePipeline, PoolStableAcrossHeavySquashing)
{
    // A branchy, misprediction-heavy program at a tiny ROB: every
    // squash releases and recycles pool records; architectural results
    // must still match the emulator exactly (handle-validation bugs
    // show up as DIVA panics or wrong outputs here).
    CoreParams cp = baselineParams();
    cp.robSize = 12;
    cp.rsSize = 6;
    cp.fetchQueueSize = 4;
    expectMatchesEmulator(R"(
        addqi t9, zero, 1500
        addqi t0, zero, 0x9e3779b9
        addqi s1, zero, 0
loop:   mulqi t0, t0, 25214903
        addqi t0, t0, 11
        srli t1, t0, 13
        andi t1, t1, 1
        beq t1, skip
        addqi s1, s1, 3
        br join
skip:   subqi s1, s1, 1
join:   subqi t9, t9, 1
        bne t9, loop
        syscall 1, s1
        halt
    )",
                          cp);
}
