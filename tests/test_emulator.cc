/**
 * @file
 * Functional emulator tests: per-opcode ALU semantics, memory access,
 * control flow (calls, returns, indirect jumps), syscalls, the
 * preview/commit split used by the DIVA checker, and sparse memory
 * (its page cache checked against a byte-map model).
 */

#include <cstring>
#include <gtest/gtest.h>
#include <map>
#include <random>

#include "assembler/builder.hh"
#include "assembler/parser.hh"
#include "emu/emulator.hh"
#include "tests/reference_interp.hh"

using namespace rix;

namespace
{

/** Run a text program to halt and return the emulator. */
Emulator
runAsm(const std::string &src)
{
    static std::vector<std::unique_ptr<Program>> keep;
    keep.push_back(
        std::make_unique<Program>(assembleTextOrDie(src, "t")));
    Emulator e(*keep.back());
    e.run(1'000'000);
    return e;
}

} // namespace

struct AluCase
{
    const char *expr;
    u64 a, b;
    u64 expected;
};

class AluSemantics : public ::testing::TestWithParam<AluCase>
{
};

TEST_P(AluSemantics, Computes)
{
    const AluCase &c = GetParam();
    Instruction i = makeRR(opFromName(c.expr), 3, 1, 2);
    EXPECT_EQ(aluCompute(i, c.a, c.b), c.expected) << c.expr;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, AluSemantics,
    ::testing::Values(
        AluCase{"addq", 5, 3, 8}, AluCase{"subq", 5, 3, 2},
        AluCase{"subq", 3, 5, u64(-2)}, AluCase{"and", 0xf0f, 0xff, 0x0f},
        AluCase{"bis", 0xf00, 0x0f, 0xf0f},
        AluCase{"xor", 0xff, 0x0f, 0xf0}, AluCase{"sll", 1, 12, 4096},
        AluCase{"sll", 1, 64 + 3, 8}, // shift amount masked to 6 bits
        AluCase{"srl", u64(-1), 60, 15},
        AluCase{"sra", u64(-16), 2, u64(-4)},
        AluCase{"cmpeq", 4, 4, 1}, AluCase{"cmpeq", 4, 5, 0},
        AluCase{"cmplt", u64(-1), 0, 1}, AluCase{"cmplt", 0, u64(-1), 0},
        AluCase{"cmple", 3, 3, 1},
        AluCase{"mulq", 7, 6, 42},
        AluCase{"divq", 42, 6, 7},
        AluCase{"divq", 42, 0, 0},        // divide-by-zero guarded
        AluCase{"divq", u64(-42), 6, u64(-7)},
        AluCase{"fadd", 10, 20, 30}));

TEST(AluImmediates, Semantics)
{
    EXPECT_EQ(aluCompute(makeRI(Opcode::ADDQI, 3, 1, -5), 10, 0), 5u);
    EXPECT_EQ(aluCompute(makeRI(Opcode::SUBQI, 3, 1, 3), 10, 0), 7u);
    EXPECT_EQ(aluCompute(makeRI(Opcode::LDA, 3, 1, 16), 100, 0), 116u);
    EXPECT_EQ(aluCompute(makeRI(Opcode::SLLI, 3, 1, 4), 2, 0), 32u);
    EXPECT_EQ(aluCompute(makeRI(Opcode::CMPLTI, 3, 1, 5), 4, 0), 1u);
    EXPECT_EQ(aluCompute(makeRI(Opcode::MULQI, 3, 1, 9), 9, 0), 81u);
}

TEST(BranchCond, AllConditions)
{
    auto taken = [](Opcode op, s64 v) {
        return branchTaken(makeBranch(op, 1, 0), u64(v));
    };
    EXPECT_TRUE(taken(Opcode::BEQ, 0));
    EXPECT_FALSE(taken(Opcode::BEQ, 1));
    EXPECT_TRUE(taken(Opcode::BNE, -1));
    EXPECT_TRUE(taken(Opcode::BLT, -1));
    EXPECT_FALSE(taken(Opcode::BLT, 0));
    EXPECT_TRUE(taken(Opcode::BGE, 0));
    EXPECT_TRUE(taken(Opcode::BGT, 1));
    EXPECT_FALSE(taken(Opcode::BGT, 0));
    EXPECT_TRUE(taken(Opcode::BLE, 0));
    EXPECT_TRUE(taken(Opcode::BLE, -5));
}

TEST(Emulator, CountedLoop)
{
    Emulator e = runAsm(R"(
        addqi t0, zero, 5
        addqi t1, zero, 0
loop:   addq t1, t1, t0
        subqi t0, t0, 1
        bne t0, loop
        halt
    )");
    EXPECT_TRUE(e.halted());
    EXPECT_EQ(e.reg(2), 15u); // 5+4+3+2+1
}

TEST(Emulator, LoadStoreRoundTrip)
{
    Emulator e = runAsm(R"(
        .data
buf:    .space 64
        .text
        addqi t0, zero, 0x1234
        stq t0, buf(zero)
        ldq t1, buf(zero)
        stl t0, 16(gp)
        ldl t2, 16(gp)
        halt
    )");
    EXPECT_EQ(e.reg(2), 0x1234u);
    EXPECT_EQ(e.reg(3), 0x1234u);
}

TEST(Emulator, LdlSignExtends)
{
    Emulator e = runAsm(R"(
        .data
x:      .quad 0xffffffff
        .text
        ldl t0, x(zero)
        ldq t1, x(zero)
        halt
    )");
    EXPECT_EQ(e.reg(1), ~u64(0)); // sign-extended -1
    EXPECT_EQ(e.reg(2), 0xffffffffu);
}

TEST(Emulator, CallAndReturn)
{
    Emulator e = runAsm(R"(
f:      addqi v0, a0, 100
        ret
main:   addqi a0, zero, 5
        jsr f
        halt
        .entry main
    )");
    EXPECT_EQ(e.reg(0), 105u);
    EXPECT_EQ(e.reg(regRa), 4u); // return address after jsr
}

TEST(Emulator, IndirectJump)
{
    Emulator e = runAsm(R"(
main:   addqi t0, zero, 4
        jmp t0
        addqi t1, zero, 1  # skipped
        halt
target: addqi t1, zero, 2
        halt
        .entry main
    )");
    // jmp goes to slot 4 (label target is the 5th line = index 4).
    EXPECT_EQ(e.reg(2), 2u);
}

TEST(Emulator, StackConventionInitialized)
{
    Builder b("t");
    b.mv(1, regSp);
    b.mv(2, regGp);
    b.halt();
    Program p = b.finish();
    Emulator e(p);
    e.run(10);
    EXPECT_EQ(e.reg(1), p.stackBase);
    EXPECT_EQ(e.reg(2), p.dataBase);
}

TEST(Emulator, SyscallEmit)
{
    Emulator e = runAsm(R"(
        addqi t0, zero, 77
        syscall 1, t0
        addqi t0, zero, 88
        syscall 1, t0
        halt
    )");
    ASSERT_EQ(e.output().size(), 2u);
    EXPECT_EQ(e.output()[0], 77u);
    EXPECT_EQ(e.output()[1], 88u);
}

TEST(Emulator, ZeroRegisterImmutable)
{
    Emulator e = runAsm(R"(
        addqi zero, zero, 55
        addqi t0, zero, 1
        halt
    )");
    EXPECT_EQ(e.reg(regZero), 0u);
    EXPECT_EQ(e.reg(1), 1u);
}

TEST(Emulator, HaltStopsExecution)
{
    Emulator e = runAsm("halt\naddqi t0, zero, 9");
    EXPECT_TRUE(e.halted());
    EXPECT_EQ(e.reg(1), 0u);
    EXPECT_EQ(e.instsExecuted(), 1u);
    // Stepping after halt is a no-op.
    StepResult r = e.step();
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(e.instsExecuted(), 1u);
}

TEST(Emulator, PreviewDoesNotMutate)
{
    Program p = assembleTextOrDie(R"(
        addqi t0, zero, 3
        stq t0, 0(gp)
        halt
    )");
    Emulator e(p);
    StepResult r1 = e.preview();
    StepResult r2 = e.preview();
    EXPECT_EQ(r1.destValue, r2.destValue);
    EXPECT_EQ(e.instsExecuted(), 0u);
    e.commit(r1);
    EXPECT_EQ(e.instsExecuted(), 1u);
    EXPECT_EQ(e.reg(1), 3u);
    // Preview of the store reports address and data without writing.
    StepResult st = e.preview();
    EXPECT_TRUE(st.isMemAccess);
    EXPECT_EQ(st.destValue, 3u);
    EXPECT_EQ(e.memory().read64(st.memAddr), 0u);
    e.commit(st);
    EXPECT_EQ(e.memory().read64(st.memAddr), 3u);
}

TEST(Emulator, ResetRestoresInitialState)
{
    Program p = assembleTextOrDie("addqi t0, zero, 5\nstq t0, 0(gp)\nhalt");
    Emulator e(p);
    e.run(10);
    EXPECT_TRUE(e.halted());
    e.reset();
    EXPECT_FALSE(e.halted());
    EXPECT_EQ(e.reg(1), 0u);
    EXPECT_EQ(e.memory().read64(p.dataBase), 0u);
}

TEST(Memory, SparseDefaultZero)
{
    Memory m;
    EXPECT_EQ(m.read64(0xdeadbeef000), 0u);
    EXPECT_EQ(m.numPages(), 0u);
}

TEST(Memory, ReadWriteSizes)
{
    Memory m;
    m.write(0x1000, 0x1122334455667788ull, 8);
    EXPECT_EQ(m.read(0x1000, 8), 0x1122334455667788ull);
    EXPECT_EQ(m.read(0x1000, 4), 0x55667788u);
    EXPECT_EQ(m.read(0x1000, 1), 0x88u);
    EXPECT_EQ(m.read(0x1004, 4), 0x11223344u);
    m.write8(0x1000, 0xff);
    EXPECT_EQ(m.read(0x1000, 2), 0x77ffu);
}

TEST(Memory, CrossPageAccess)
{
    Memory m;
    const Addr a = Memory::pageBytes - 4;
    m.write(a, 0xaabbccdd11223344ull, 8);
    EXPECT_EQ(m.read(a, 8), 0xaabbccdd11223344ull);
    EXPECT_EQ(m.numPages(), 2u);
}

TEST(Memory, ContentEquals)
{
    Memory a, b;
    a.write64(0x100, 7);
    EXPECT_FALSE(a.contentEquals(b));
    b.write64(0x100, 7);
    EXPECT_TRUE(a.contentEquals(b));
    // A touched-but-zero page equals an untouched one.
    a.write64(0x900000, 1);
    a.write64(0x900000, 0);
    EXPECT_TRUE(a.contentEquals(b));
}

TEST(Memory, WriteBlock)
{
    Memory m;
    m.writeBlock(0x2000, {1, 2, 3, 4});
    EXPECT_EQ(m.read(0x2000, 4), 0x04030201u);
}

// ---------------------------------------------------------------------
// The page cache in front of the page table: every answer must equal a
// plain byte-map model, however pages alias in the cache.
// ---------------------------------------------------------------------

namespace
{

/** Byte-at-a-time model of Memory's contract: unwritten bytes are 0. */
struct ByteModel
{
    std::map<Addr, u8> bytes;

    u64
    read(Addr a, unsigned size) const
    {
        u64 v = 0;
        for (unsigned i = 0; i < size; ++i) {
            const auto it = bytes.find(a + i);
            if (it != bytes.end())
                v |= u64(it->second) << (8 * i);
        }
        return v;
    }

    void
    write(Addr a, u64 v, unsigned size)
    {
        for (unsigned i = 0; i < size; ++i)
            bytes[a + i] = u8(v >> (8 * i));
    }
};

} // namespace

TEST(Memory, AliasingPagesMatchByteModel)
{
    // Twelve pages 8 apart share one page-cache slot (and ten more
    // take their neighbours'); random mixed-size traffic, including
    // page-straddling accesses and untouched reads, must read back
    // exactly what the model holds.
    Memory m;
    ByteModel model;
    std::mt19937_64 rng(8);
    const unsigned sizes[] = {1, 2, 4, 8};
    for (int i = 0; i < 20'000; ++i) {
        const u64 page = rng() % 2 ? (rng() % 12) * 8 : rng() % 10 + 1000;
        const Addr a = page * Memory::pageBytes +
                       (rng() % 4 == 0 ? Memory::pageBytes - 1 - rng() % 7
                                       : rng() % Memory::pageBytes);
        const unsigned size = sizes[rng() % 4];
        if (rng() % 3 == 0) {
            const u64 v = rng();
            m.write(a, v, size);
            model.write(a, v, size);
        } else {
            ASSERT_EQ(m.read(a, size), model.read(a, size))
                << "addr 0x" << std::hex << a << " size " << size;
        }
    }
    for (const auto &[a, b] : model.bytes)
        ASSERT_EQ(m.read8(a), b);
    for (u64 page = 0; page < 12 * 8; page += 8)
        EXPECT_EQ(m.read64(page * Memory::pageBytes + 16),
                  model.read(page * Memory::pageBytes + 16, 8));
}

TEST(Memory, UntouchedPageReadThenWritten)
{
    // A read of an untouched page returns 0 and materializes nothing;
    // the first write then lands on a fresh page and reads back.
    Memory m;
    const Addr a = 0x7000'1230;
    EXPECT_EQ(m.read64(a), 0u);
    EXPECT_EQ(m.read(a + 4, 4), 0u);
    EXPECT_EQ(m.numPages(), 0u);
    m.write32(a, 0xcafef00du);
    EXPECT_EQ(m.numPages(), 1u);
    EXPECT_EQ(m.read64(a), 0xcafef00dull);
    EXPECT_EQ(m.read(a + 2, 2), 0xcafeu);
    EXPECT_EQ(m.read64(a + 8), 0u);
}

TEST(Memory, CacheAfterImportPages)
{
    // importPages() overwrites a cached page in place and adds one
    // that aliases its slot; reads through the cache see both. (The
    // cache after clear() is SparseMemory.PageCacheAfterClearAndRetouch.)
    Memory m;
    const Addr a = 5 * Memory::pageBytes + 40;
    const Addr alias = (5 + 8) * Memory::pageBytes + 40; // same slot
    m.write64(a, 12);
    EXPECT_EQ(m.read64(a), 12u); // the slot now caches page 5
    Memory src;
    src.write64(a, 13);
    src.write64(alias, 14);
    m.importPages(src.exportPages());
    EXPECT_EQ(m.read64(a), 13u);
    EXPECT_EQ(m.read64(alias), 14u);
    EXPECT_EQ(m.read64(a), 13u);
    EXPECT_TRUE(m.contentEquals(src));
}

TEST(Memory, CacheAfterEmulatorRestore)
{
    // A restore must not leave reads served from the pages of the run
    // it rewinds: snapshot, store over the snapshot's values (warming
    // the cache on those pages), restore, and compare with a reference
    // restored from the same checkpoint.
    const Program p = assembleTextOrDie(R"(
        .data
buf:    .space 64
        .text
        addqi t0, zero, 1
loop:   stq t0, 0(gp)
        stq t0, 8192(gp)
        addqi t0, t0, 1
        br loop
    )", "restore");
    Emulator e(p);
    e.run(20);
    const Checkpoint c = e.snapshot();
    const u64 at = e.memory().read64(p.dataBase);
    e.run(40);
    ASSERT_NE(e.memory().read64(p.dataBase), at);

    e.restore(c);
    ReferenceInterp ref(p);
    ref.restore(c);
    EXPECT_EQ(e.memory().read64(p.dataBase), at);
    EXPECT_EQ(e.memory().read64(p.dataBase + 8192),
              ref.memory().read64(p.dataBase + 8192));
    EXPECT_TRUE(e.memory().contentEquals(ref.memory()));
    e.run(100);
    ref.run(100);
    EXPECT_TRUE(e.memory().contentEquals(ref.memory()));
    EXPECT_EQ(e.pc(), ref.pc());
}
