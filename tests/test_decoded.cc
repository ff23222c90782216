/**
 * @file
 * The pre-decoded execution core (isa/decoded.hh + the Emulator fast
 * path), tested differentially against the decode-per-step reference
 * interpreter in tests/reference_interp.hh:
 *
 *  - decode-vs-raw equivalence for every opcode over varied operand
 *    shapes (rc = r31, aliased sources, negative immediates);
 *  - full StepResult-stream equality on random-program corpora, plus
 *    final architectural state (registers, memory, output);
 *  - basic-block boundary cases: branch into the middle of a block,
 *    HALT mid-program, budget expiry inside a straight-line block and
 *    exactly on its terminator, a budget of 1, an unterminated tail
 *    running into the wilderness, control transfers past the code (and
 *    a pc that wraps back into it), checkpoint snapshot/restore
 *    mid-block;
 *  - all 16 workloads run() in random-sized chunks, in one run() and
 *    on the reference;
 *  - DecodedProgram structural invariants (block lengths, NOP
 *    sentinel, byte accounting, cache copy/invalidations semantics);
 *  - the immutable-text guard: a store landing in the program image
 *    raises a structured EmuFault (identically in the reference) and
 *    is contained by the detailed core as a stuck stop, not a panic,
 *    and verifyAgainstEmulator names it.
 */

#include <gtest/gtest.h>

#include <random>

#include "cpu/core.hh"
#include "cpu/params.hh"
#include "emu/emulator.hh"
#include "sim/simulator.hh"
#include "tests/reference_interp.hh"
#include "workload/randprog.hh"
#include "workload/workload.hh"

using namespace rix;

namespace
{

void
expectSameStep(const StepResult &a, const StepResult &b, const char *what)
{
    EXPECT_EQ(a.pc, b.pc) << what;
    EXPECT_EQ(a.inst, b.inst) << what;
    EXPECT_EQ(a.nextPc, b.nextPc) << what;
    EXPECT_EQ(a.wroteReg, b.wroteReg) << what;
    EXPECT_EQ(a.destReg, b.destReg) << what;
    EXPECT_EQ(a.destValue, b.destValue) << what;
    EXPECT_EQ(a.isMemAccess, b.isMemAccess) << what;
    EXPECT_EQ(a.memAddr, b.memAddr) << what;
    EXPECT_EQ(a.halted, b.halted) << what;
}

template <class A, class B>
void
expectSameArchState(const A &a, const B &b, const char *what)
{
    EXPECT_EQ(a.pc(), b.pc()) << what;
    EXPECT_EQ(a.halted(), b.halted()) << what;
    EXPECT_EQ(a.faulted(), b.faulted()) << what;
    EXPECT_EQ(a.instsExecuted(), b.instsExecuted()) << what;
    for (unsigned r = 0; r < numLogRegs; ++r)
        EXPECT_EQ(a.reg(LogReg(r)), b.reg(LogReg(r))) << what << " r" << r;
    EXPECT_EQ(a.output(), b.output()) << what;
    EXPECT_TRUE(a.memory().contentEquals(b.memory())) << what;
}

Program
fromCode(std::vector<Instruction> code)
{
    Program p;
    p.name = "decoded-test";
    p.code = std::move(code);
    return p;
}

/** Run @p p on the decoded emulator and the reference from @p budget
 *  onward: the cut itself, then single steps through run(1), then the
 *  rest — every run() count and every state must agree. */
void
expectSameAtEveryCut(const Program &p, u64 budget, const char *what)
{
    Emulator dec(p);
    ReferenceInterp ref(p);
    const std::string at =
        std::string(what) + " budget " + std::to_string(budget);
    EXPECT_EQ(dec.run(budget), ref.run(budget)) << at;
    expectSameArchState(dec, ref, at.c_str());
    for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(dec.run(1), ref.run(1)) << at << " +1 x" << i;
        expectSameArchState(dec, ref, (at + " then run(1)").c_str());
    }
    EXPECT_EQ(dec.run(1'000), ref.run(1'000)) << at;
    expectSameArchState(dec, ref, (at + " then the rest").c_str());
}

} // namespace

// ---------------------------------------------------------------------
// Every opcode, several operand shapes: the decoded emulator and the
// reference interpreter execute the same single instruction from the same seeded
// register state; the StepResult and the entire architectural state
// must match bit for bit.
// ---------------------------------------------------------------------

TEST(DecodedDifferential, EveryOpcodeEveryOperandShape)
{
    for (unsigned opv = 0; opv < numOpcodes; ++opv) {
        const Opcode op = Opcode(opv);

        // Operand shapes: plain, dest = r31 (write dropped), aliased
        // sources, negative immediate, source = r31.
        Instruction shapes[5];
        for (auto &s : shapes) {
            s.op = op;
            s.ra = 1;
            s.rb = 2;
            s.rc = 3;
            s.imm = 12;
        }
        shapes[1].rc = regZero;
        shapes[2].ra = shapes[2].rb = 4;
        shapes[3].imm = -8;
        shapes[4].ra = regZero;

        for (const Instruction &inst : shapes) {
            const Program p = fromCode({inst});
            Emulator dec(p);
            ReferenceInterp ref(p);

            // Seed sources so results are nontrivial; r1 points into
            // the data segment so memory ops hit a writable address
            // (never the text segment).
            const auto seed = [&p](auto &e) {
                e.setReg(1, p.dataBase + 64);
                e.setReg(2, 7);
                e.setReg(3, 0xdeadbeef);
                e.setReg(4, u64(-3));
            };
            seed(dec);
            seed(ref);

            const StepResult a = dec.step();
            const StepResult b = ref.step();
            const std::string what =
                disassemble(inst) + " (shape ra=" +
                std::to_string(inst.ra) + " rc=" +
                std::to_string(inst.rc) + ")";
            expectSameStep(a, b, what.c_str());
            expectSameArchState(dec, ref, what.c_str());
        }
    }
}

// ---------------------------------------------------------------------
// Random-program corpora: the full StepResult stream (and final state)
// of the decoded step path equals the reference interpreter, and the
// block-batched run() path lands on the same architectural state.
// ---------------------------------------------------------------------

TEST(DecodedDifferential, RandomProgramStepStreams)
{
    std::vector<RandProgConfig> shapes(3);
    shapes[1].branchWeight = 6;
    shapes[1].callDepth = 6;
    shapes[2].memWeight = 6;
    shapes[2].memFootprint = 64;

    for (size_t c = 0; c < shapes.size(); ++c) {
        for (u64 seed = 1; seed <= 4; ++seed) {
            const Program p = generateRandomProgram(seed * 17, shapes[c]);
            Emulator dec(p);
            ReferenceInterp ref(p);

            for (u64 i = 0; i < 200'000 && !dec.halted(); ++i) {
                const StepResult a = dec.step();
                const StepResult b = ref.step();
                expectSameStep(a, b, p.name.c_str());
                if (a.halted)
                    break;
            }
            expectSameArchState(dec, ref, p.name.c_str());
        }
    }
}

TEST(DecodedDifferential, RunMatchesReferenceRun)
{
    for (u64 seed = 1; seed <= 6; ++seed) {
        const Program p = generateRandomProgram(seed);
        Emulator dec(p);
        ReferenceInterp ref(p);
        const u64 na = dec.run();
        const u64 nb = ref.run();
        EXPECT_EQ(na, nb) << "seed " << seed;
        EXPECT_TRUE(dec.halted());
        expectSameArchState(dec, ref, "run()");
    }
}

TEST(DecodedDifferential, WorkloadsInRandomChunks)
{
    // Every workload at scale 1: run() in random-sized chunks lands on
    // the same state as one run(), and both on the reference's.
    std::mt19937_64 rng(29);
    for (const std::string &name : workloadNames()) {
        const Program p = buildWorkload(name, 1);
        Emulator whole(p);
        Emulator chunked(p);
        ReferenceInterp ref(p);
        const u64 n = whole.run();
        ASSERT_TRUE(whole.halted()) << name;
        EXPECT_EQ(ref.run(), n) << name;

        u64 total = 0;
        while (!chunked.halted()) {
            // Mostly short chunks (cuts inside and on block edges),
            // sometimes long ones.
            const u64 len = rng() % 8 == 0 ? rng() % 100'000 : rng() % 40;
            total += chunked.run(len);
        }
        EXPECT_EQ(total, n) << name;
        expectSameArchState(chunked, whole, name.c_str());
        expectSameArchState(chunked, ref, name.c_str());
    }
}

// ---------------------------------------------------------------------
// Block-boundary cases.
// ---------------------------------------------------------------------

TEST(DecodedBlocks, BranchIntoMidBlock)
{
    // [0] jumps into the middle of the straight-line block [1..5];
    // the decoded run must execute exactly the block *remainder*.
    std::vector<Instruction> code;
    code.push_back(makeJump(3));
    for (int i = 0; i < 5; ++i)
        code.push_back(makeRI(Opcode::ADDQI, 1, 1, 10));
    code.push_back(makeHalt());
    const Program p = fromCode(std::move(code));

    Emulator dec(p);
    ReferenceInterp ref(p);
    dec.run();
    ref.run();
    EXPECT_TRUE(dec.halted());
    EXPECT_EQ(dec.reg(1), u64(30)); // slots 3,4,5 only
    expectSameArchState(dec, ref, "branch into mid-block");
}

TEST(DecodedBlocks, BudgetExpiryInsideBlock)
{
    // A single long straight-line block; every possible budget cut
    // point must leave pc/icount/regs exactly where the reference
    // per-step loop leaves them.
    std::vector<Instruction> code;
    for (int i = 0; i < 12; ++i)
        code.push_back(makeRI(Opcode::ADDQI, 1, 1, 1));
    code.push_back(makeHalt());
    const Program p = fromCode(std::move(code));

    for (u64 budget = 0; budget <= 14; ++budget) {
        Emulator dec(p);
        ReferenceInterp ref(p);
        EXPECT_EQ(dec.run(budget), ref.run(budget)) << "budget " << budget;
        expectSameArchState(dec, ref, "budget cut");
        // Resuming after the cut also converges.
        dec.run();
        ref.run();
        EXPECT_TRUE(dec.halted());
        expectSameArchState(dec, ref, "after resume");
    }
}

TEST(DecodedBlocks, HaltMidProgramAndWildernessNops)
{
    // HALT in the middle: everything after it is unreachable.
    const Program p = fromCode({makeRI(Opcode::ADDQI, 1, 1, 5),
                                makeHalt(),
                                makeRI(Opcode::ADDQI, 1, 1, 99)});
    Emulator dec(p);
    ReferenceInterp ref(p);
    dec.run();
    ref.run();
    EXPECT_TRUE(dec.halted());
    EXPECT_EQ(dec.reg(1), u64(5));
    expectSameArchState(dec, ref, "halt mid-program");

    // Running off the end: out-of-range pc executes as NOP forever;
    // the decoded path batches the wilderness, the reference steps
    // it, and both land on the same pc/icount.
    const Program off = fromCode({makeRI(Opcode::ADDQI, 1, 1, 1)});
    Emulator dec2(off);
    ReferenceInterp ref2(off);
    EXPECT_EQ(dec2.run(10'000), ref2.run(10'000));
    expectSameArchState(dec2, ref2, "nop wilderness");
    EXPECT_FALSE(dec2.halted());
}

TEST(DecodedBlocks, EveryCutOfControlEdgeCases)
{
    // Small programs whose block structure exercises each way the
    // threaded loop leaves or re-enters a block; each is cut at every
    // budget from 0 past its end.
    struct Case
    {
        const char *name;
        std::vector<Instruction> code;
    };
    const Case cases[] = {
        // Budgets land exactly on the BNE terminating the loop body
        // (4, 7, 10, ...) as well as inside it.
        {"budget on a terminator",
         {makeRI(Opcode::ADDQI, 1, 31, 4),
          makeRI(Opcode::ADDQI, 2, 2, 3),
          makeRI(Opcode::SUBQI, 1, 1, 1),
          makeBranch(Opcode::BNE, 1, 1),
          makeRI(Opcode::ADDQI, 3, 2, 1),
          makeHalt()}},
        // HALT terminates a four-instruction block entered mid-way.
        {"halt terminates a block",
         {makeJump(2),
          makeRI(Opcode::ADDQI, 1, 1, 100),
          makeRI(Opcode::ADDQI, 1, 1, 1),
          makeRI(Opcode::ADDQI, 1, 1, 2),
          makeRI(Opcode::ADDQI, 1, 1, 3),
          makeHalt(),
          makeRI(Opcode::ADDQI, 1, 1, 100)}},
        // The last block has no terminator: execution runs off the end
        // of the code into the NOP wilderness.
        {"unterminated tail",
         {makeJump(3),
          makeHalt(),
          makeHalt(),
          makeRI(Opcode::ADDQI, 1, 1, 1),
          makeRI(Opcode::ADDQI, 2, 1, 2),
          makeRI(Opcode::ADDQI, 1, 1, 3)}},
        // JSR to a slot past the code; the link register is written.
        {"jsr past the code",
         {makeRI(Opcode::ADDQI, 1, 31, 9),
          makeCall(1'000'000),
          makeHalt()}},
        // A negative direct target is a slot near 2^32, also past it.
        {"br to a negative target", {makeJump(-1), makeHalt()}},
        // JMP through a register holding a pc past the code.
        {"jmp past the code",
         {makeRI(Opcode::ADDQI, 4, 31, 12'345),
          makeIndirect(Opcode::JMP, 4),
          makeHalt()}},
        // RET to 2^64 - 3: three wilderness NOPs, then the pc wraps to
        // 0 and the code runs again.
        {"ret wraps back into the code",
         {makeRI(Opcode::ADDQI, 5, 5, 1),
          makeRI(Opcode::ADDQI, regRa, 31, -3),
          makeIndirect(Opcode::RET, regRa)}},
    };
    for (const Case &c : cases) {
        const Program p = fromCode(c.code);
        for (u64 budget = 0; budget <= 30; ++budget)
            expectSameAtEveryCut(p, budget, c.name);
    }

    // The wrap is real: after 3 + 3 NOPs and the rest, r5 counts every
    // pass through slot 0.
    const Program wrap = fromCode(cases[6].code);
    Emulator e(wrap);
    EXPECT_EQ(e.run(12), u64(12));
    EXPECT_EQ(e.reg(5), u64(2));
    EXPECT_EQ(e.pc(), InstAddr(0));
}

TEST(DecodedBlocks, BudgetOfOneStepsEveryInstruction)
{
    // run(1) repeated is the reference's step loop, whatever the
    // block structure.
    for (u64 seed = 1; seed <= 3; ++seed) {
        RandProgConfig cfg;
        cfg.branchWeight = 6;
        cfg.callDepth = 4;
        const Program p = generateRandomProgram(seed * 7, cfg);
        Emulator dec(p);
        ReferenceInterp ref(p);
        for (u64 i = 0; i < 20'000 && !dec.halted(); ++i) {
            ASSERT_EQ(dec.run(1), ref.run(1)) << p.name << " at " << i;
            ASSERT_EQ(dec.pc(), ref.pc()) << p.name << " at " << i;
        }
        expectSameArchState(dec, ref, p.name.c_str());
    }
}

TEST(DecodedBlocks, CheckpointRestoreMidBlock)
{
    const Program p = generateRandomProgram(11);
    Emulator dec(p);
    // 137 is deliberately not a block multiple of anything: the
    // snapshot lands mid-block more often than not.
    dec.run(137);
    ASSERT_FALSE(dec.halted());
    const Checkpoint c = dec.snapshot();

    // Restore into a fresh decoded emulator and into the reference;
    // both must finish identically to the original.
    Emulator resumedDec(p);
    resumedDec.restore(c);
    ReferenceInterp resumedRef(p);
    resumedRef.restore(c);
    expectSameArchState(resumedDec, resumedRef, "restored state");

    dec.run();
    resumedDec.run();
    resumedRef.run();
    EXPECT_TRUE(dec.halted());
    expectSameArchState(dec, resumedDec, "resume decoded");
    expectSameArchState(dec, resumedRef, "resume reference");
}

// ---------------------------------------------------------------------
// DecodedProgram structural invariants.
// ---------------------------------------------------------------------

TEST(DecodedProgramForm, BlockLengthInvariants)
{
    for (u64 seed = 1; seed <= 5; ++seed) {
        const Program p = generateRandomProgram(seed * 31);
        const DecodedProgram &d = p.decoded();
        ASSERT_EQ(d.size(), p.code.size());
        for (size_t i = 0; i < d.size(); ++i) {
            const u32 len = d.at(i).blockLen;
            ASSERT_GE(len, u32(1));
            ASSERT_LE(i + len, d.size());
            // Every slot before the block's last is a non-terminator.
            for (u32 k = 0; k + 1 < len; ++k)
                ASSERT_FALSE(d.at(i + k).endsBlock());
            // The last slot terminates the block unless the block runs
            // into the end of the code segment.
            if (i + len < d.size()) {
                ASSERT_TRUE(d.at(i + len - 1).endsBlock());
            }
        }
    }
}

TEST(DecodedProgramForm, SentinelAndDecodeMetadata)
{
    const Program p = fromCode({makeHalt()});
    const DecodedProgram &d = p.decoded();
    // Out-of-range fetches yield the NOP sentinel.
    const DecodedInst &nop = d.fetch(12345);
    EXPECT_EQ(Opcode(nop.handler), Opcode::NOP);
    EXPECT_FALSE(nop.writesReg());
    EXPECT_FALSE(nop.endsBlock());

    // Spot-check pre-resolved metadata.
    const DecodedInst ld = decodeInst(makeLoad(Opcode::LDL, 5, -16, 2));
    EXPECT_TRUE(ld.isLoad());
    EXPECT_TRUE(ld.writesReg());
    EXPECT_EQ(ld.size, 4u);
    EXPECT_EQ(ld.src1, u8(2));
    EXPECT_EQ(ld.dest, u8(5));
    EXPECT_EQ(ld.imm, -16);
    EXPECT_EQ(ld.issuePort(), IssuePort::LoadP);

    const DecodedInst st = decodeInst(makeStore(Opcode::STQ, 3, 8, 4));
    EXPECT_TRUE(st.isStore());
    EXPECT_FALSE(st.writesReg());
    EXPECT_EQ(st.size, 8u);
    EXPECT_EQ(st.issuePort(), IssuePort::StoreP);

    const DecodedInst br = decodeInst(makeBranch(Opcode::BNE, 1, 42));
    EXPECT_TRUE(br.isCtrl());
    EXPECT_TRUE(br.endsBlock());
    EXPECT_EQ(br.target, u32(42));
    EXPECT_EQ(br.blockLen, u32(1));

    const DecodedInst writesZero = decodeInst(makeRR(Opcode::ADDQ,
                                                     regZero, 1, 2));
    EXPECT_FALSE(writesZero.writesReg());
    EXPECT_EQ(writesZero.dest, u8(emuRegSink));
}

TEST(DecodedProgramForm, CacheSharingAndInvalidation)
{
    Program p = fromCode({makeRI(Opcode::ADDQI, 1, 1, 1), makeHalt()});
    EXPECT_EQ(p.decodedBytes(), size_t(0)); // not built yet

    const std::shared_ptr<const DecodedProgram> d1 = p.decodedShared();
    EXPECT_GT(p.decodedBytes(), size_t(0));
    EXPECT_EQ(p.decodedShared().get(), d1.get()); // cached, not rebuilt

    // Copies drop the cache (copy-to-mutate discipline).
    Program copy = p;
    EXPECT_EQ(copy.decodedBytes(), size_t(0));

    // In-place mutation + invalidate rebuilds from the new code.
    p.code[0] = makeRI(Opcode::ADDQI, 1, 1, 2);
    p.invalidateDecoded();
    EXPECT_EQ(p.decodedBytes(), size_t(0));
    const std::shared_ptr<const DecodedProgram> d2 = p.decodedShared();
    EXPECT_NE(d1.get(), d2.get());
    EXPECT_EQ(d2->at(0).imm, 2);
    // The old shared form stays alive and unchanged for holders.
    EXPECT_EQ(d1->at(0).imm, 1);
}

// ---------------------------------------------------------------------
// The immutable-text guard.
// ---------------------------------------------------------------------

TEST(TextFault, StoreIntoImageFaultsLikeTheReference)
{
    // r1 = 0 -> STQ writes byte address 8, inside the text segment
    // (4 instructions * 8 bytes). The store must not happen, pc and
    // icount freeze at the faulting slot, and further stepping refuses.
    const std::vector<Instruction> code = {
        makeRI(Opcode::ADDQI, 2, 31, 77), // r2 = 77 (the store data)
        makeStore(Opcode::STQ, 2, 8, 31), // M[8] = r2: text!
        makeRI(Opcode::ADDQI, 3, 31, 1),  // must never execute
        makeHalt(),
    };
    const Program p = fromCode(code);

    Emulator e(p);
    ReferenceInterp ref(p);
    const u64 n = e.run();
    ref.run();
    EXPECT_EQ(n, u64(1)) << "only the ADDQI retires";
    EXPECT_TRUE(e.faulted());
    EXPECT_FALSE(e.halted());
    EXPECT_EQ(e.pc(), InstAddr(1));
    EXPECT_EQ(e.fault().pc, InstAddr(1));
    EXPECT_EQ(e.fault().addr, Addr(8));
    EXPECT_NE(e.fault().describe().find("text"), std::string::npos);
    EXPECT_EQ(e.reg(3), u64(0));
    EXPECT_EQ(e.memory().read(8, 8), u64(0)) << "store suppressed";
    expectSameArchState(e, ref, "text fault");
    EXPECT_EQ(e.fault().pc, ref.fault().pc);
    EXPECT_EQ(e.fault().addr, ref.fault().addr);

    // Frozen: step() and run() refuse to make progress.
    const StepResult s = e.step();
    EXPECT_EQ(s.pc, InstAddr(1));
    EXPECT_EQ(e.run(100), u64(0));
    EXPECT_EQ(e.instsExecuted(), u64(1));

    // reset() clears the fault.
    e.reset();
    EXPECT_FALSE(e.faulted());
}

TEST(TextFault, MidBlockStoreCountsPartialBlock)
{
    // Straight-line block whose third slot stores into text: exactly
    // the first two slots execute, as in the reference.
    const std::vector<Instruction> code = {
        makeRI(Opcode::ADDQI, 1, 1, 1),
        makeRI(Opcode::ADDQI, 1, 1, 1),
        makeStore(Opcode::STL, 1, 0, 31), // M[0] = r1: text!
        makeRI(Opcode::ADDQI, 1, 1, 1),
        makeHalt(),
    };
    const Program p = fromCode(code);
    Emulator dec(p);
    ReferenceInterp ref(p);
    EXPECT_EQ(dec.run(), u64(2));
    EXPECT_EQ(ref.run(), u64(2));
    EXPECT_TRUE(dec.faulted());
    EXPECT_EQ(dec.fault().pc, InstAddr(2));
    expectSameArchState(dec, ref, "mid-block text fault");

    // Cut before, on and after the faulting slot: the same two
    // instructions run in total.
    for (u64 budget = 0; budget <= 4; ++budget) {
        Emulator cut(p);
        ReferenceInterp cutRef(p);
        EXPECT_EQ(cut.run(budget), cutRef.run(budget)) << budget;
        EXPECT_EQ(cut.run(), cutRef.run()) << budget;
        EXPECT_EQ(cut.instsExecuted(), u64(2)) << budget;
        expectSameArchState(cut, cutRef, "cut mid-block text fault");
    }
}

TEST(TextFault, StoreFirstInItsBlock)
{
    // A faulting store as the first instruction of a block: at the
    // run's entry pc, and as a branch target. Nothing of its block
    // executes, whatever the budget.
    const std::vector<Instruction> atEntry = {
        makeStore(Opcode::STQ, 31, 16, 31), // M[16] = 0: text!
        makeRI(Opcode::ADDQI, 1, 1, 1),
        makeHalt(),
    };
    const std::vector<Instruction> atTarget = {
        makeRI(Opcode::ADDQI, 1, 1, 1),
        makeJump(3),
        makeHalt(),
        makeStore(Opcode::STL, 1, 8, 31), // M[8] = r1: text!
        makeRI(Opcode::ADDQI, 1, 1, 1),
        makeHalt(),
    };
    for (const auto *code : {&atEntry, &atTarget}) {
        const Program p = fromCode(*code);
        for (u64 budget = 0; budget <= 5; ++budget) {
            Emulator dec(p);
            ReferenceInterp ref(p);
            EXPECT_EQ(dec.run(budget), ref.run(budget));
            EXPECT_EQ(dec.run(), ref.run());
            EXPECT_TRUE(dec.faulted());
            EXPECT_EQ(dec.fault().pc, ref.fault().pc);
            EXPECT_EQ(dec.fault().addr, ref.fault().addr);
            expectSameArchState(dec, ref, "fault first in block");
        }
    }
}

TEST(TextFault, StoreJustPastTextSucceeds)
{
    // The first writable byte address is codeSize * instructionBytes.
    const std::vector<Instruction> code = {
        makeRI(Opcode::ADDQI, 1, 31, 24), // r1 = 3 insts * 8 bytes
        makeStore(Opcode::STQ, 1, 0, 1),  // M[24] = r1: first legal byte
        makeHalt(),
    };
    const Program p = fromCode(code);
    Emulator e(p);
    e.run();
    EXPECT_TRUE(e.halted());
    EXPECT_FALSE(e.faulted());
    EXPECT_EQ(e.memory().read(24, 8), u64(24));
}

TEST(TextFault, CoreContainsFaultAsStuckStop)
{
    // The detailed pipeline retires the same faulting store: the run
    // stops as a contained stuck-job failure (not a panic, not
    // halted()), with the fault description as the reason.
    const std::vector<Instruction> code = {
        makeRI(Opcode::ADDQI, 2, 31, 5),
        makeStore(Opcode::STQ, 2, 0, 31),
        makeHalt(),
    };
    const Program p = fromCode(code);
    Core core(p, CoreParams{});
    core.run(1'000, 100'000);
    EXPECT_TRUE(core.stuck());
    EXPECT_FALSE(core.halted());
    EXPECT_NE(core.stuckReason().find("text"), std::string::npos);
    EXPECT_TRUE(core.golden().faulted());
}

TEST(TextFault, VerifyNamesTheFaultNotTheBudget)
{
    // A stuck core is reported by its cause: the text fault, not
    // "did not halt within" the run limits.
    const std::vector<Instruction> code = {
        makeRI(Opcode::ADDQI, 2, 31, 5),
        makeStore(Opcode::STQ, 2, 0, 31),
        makeHalt(),
    };
    const Program p = fromCode(code);
    const std::string err =
        verifyAgainstEmulator(p, CoreParams{}, 1'000, 100'000);
    EXPECT_NE(err.find("text"), std::string::npos) << err;
    EXPECT_EQ(err.find("did not halt"), std::string::npos) << err;
}

TEST(TextFaultDeathTest, RunSimulationExitsOnTheStuckStop)
{
    // The one-shot driver must not hand the stopped run back as a
    // result: a stuck core is fatal, naming the text fault.
    const std::vector<Instruction> code = {
        makeRI(Opcode::ADDQI, 2, 31, 5),
        makeStore(Opcode::STQ, 2, 0, 31),
        makeHalt(),
    };
    const Program p = fromCode(code);
    EXPECT_EXIT(runSimulation(p, CoreParams{}, 1'000, 100'000),
                ::testing::ExitedWithCode(1), "text");
}
