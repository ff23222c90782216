/**
 * @file
 * Integration-table tests: PC vs opcode indexing/tagging, input and
 * generation matching, LRU replacement, exact-duplicate overwrite,
 * branch-outcome handles, stale-handle validation, reverse entries in
 * the unified table, and index-distribution properties of the
 * call-depth mix.
 */

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "core/integration_table.hh"
#include "core/lisp.hh"

using namespace rix;

namespace
{

IntegrationParams
params(IntegrationMode mode, unsigned entries = 64, unsigned assoc = 4)
{
    IntegrationParams p;
    p.mode = mode;
    p.itEntries = entries;
    p.itAssoc = assoc;
    return p;
}

ITKey
key(Opcode op, s32 imm, PhysReg in1, u8 gen1, u64 pc = 0,
    unsigned depth = 0)
{
    ITKey k;
    k.op = op;
    k.imm = imm;
    k.pc = pc;
    k.callDepth = depth;
    k.hasIn1 = true;
    k.in1 = in1;
    k.gen1 = gen1;
    return k;
}

/** Payload of a register-producing entry. */
ITEntry
reg(PhysReg out, u8 out_gen, u64 create_seq, bool reverse = false)
{
    ITEntry e;
    e.hasOut = true;
    e.out = out;
    e.outGen = out_gen;
    e.reverse = reverse;
    e.createSeq = create_seq;
    return e;
}

/** Payload of a branch-outcome entry (outcome not yet known). */
ITEntry
branch()
{
    ITEntry e;
    e.isBranch = true;
    return e;
}

ITHandle
put(IntegrationTable &it, const ITKey &k, const ITEntry &e)
{
    return it.insert(it.probe(k), e);
}

ITEntry *
find(IntegrationTable &it, const ITKey &k)
{
    ITProbe pr = it.probe(k);
    return it.lookup(pr);
}

} // namespace

TEST(ItTable, InsertAndLookupOpcodeMode)
{
    IntegrationTable it(params(IntegrationMode::OpcodeIndexed));
    put(it, key(Opcode::ADDQI, 8, 5, 1), reg(40, 2, 7));
    ITEntry *e = find(it, key(Opcode::ADDQI, 8, 5, 1));
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->out, 40);
    EXPECT_EQ(e->outGen, 2);
    EXPECT_EQ(e->createSeq, 7u);
}

TEST(ItTable, InputMismatchMisses)
{
    IntegrationTable it(params(IntegrationMode::OpcodeIndexed));
    put(it, key(Opcode::ADDQI, 8, 5, 1), reg(40, 2, 0));
    EXPECT_EQ(find(it, key(Opcode::ADDQI, 8, 6, 1)), nullptr); // reg
    EXPECT_EQ(find(it, key(Opcode::ADDQI, 9, 5, 1)), nullptr); // imm
    EXPECT_EQ(find(it, key(Opcode::SUBQI, 8, 5, 1)), nullptr); // op
}

TEST(ItTable, GenerationMismatchMisses)
{
    IntegrationTable it(params(IntegrationMode::OpcodeIndexed));
    put(it, key(Opcode::ADDQI, 8, 5, 1), reg(40, 2, 0));
    EXPECT_EQ(find(it, key(Opcode::ADDQI, 8, 5, 2)), nullptr);
}

TEST(ItTable, GenCheckingAblatable)
{
    IntegrationParams p = params(IntegrationMode::OpcodeIndexed);
    p.useGenCounters = false;
    IntegrationTable it(p);
    put(it, key(Opcode::ADDQI, 8, 5, 1), reg(40, 2, 0));
    EXPECT_NE(find(it, key(Opcode::ADDQI, 8, 5, 9)), nullptr);
}

TEST(ItTable, PcModeTagsByPc)
{
    IntegrationTable it(params(IntegrationMode::General));
    put(it, key(Opcode::ADDQI, 8, 5, 1, /*pc=*/100), reg(40, 2, 0));
    // Same operation at a different PC misses under PC indexing...
    EXPECT_EQ(find(it, key(Opcode::ADDQI, 8, 5, 1, 200)), nullptr);
    // ...and hits at the creating PC.
    EXPECT_NE(find(it, key(Opcode::ADDQI, 8, 5, 1, 100)), nullptr);
}

TEST(ItTable, OpcodeModeIgnoresPc)
{
    IntegrationTable it(params(IntegrationMode::OpcodeIndexed));
    put(it, key(Opcode::ADDQI, 8, 5, 1, 100), reg(40, 2, 0));
    EXPECT_NE(find(it, key(Opcode::ADDQI, 8, 5, 1, 200)), nullptr);
}

TEST(ItTable, CallDepthChangesSetButNotTag)
{
    IntegrationTable it(params(IntegrationMode::OpcodeIndexed, 64, 1));
    ITKey k0 = key(Opcode::ADDQI, 8, 5, 1, 0, /*depth=*/0);
    ITKey k3 = key(Opcode::ADDQI, 8, 5, 1, 0, /*depth=*/3);
    // Different depths index different sets (the whole point of the
    // call-depth mix).
    EXPECT_NE(it.index(k0), it.index(k3));
    put(it, k0, reg(40, 2, 0));
    EXPECT_EQ(find(it, k3), nullptr);
    EXPECT_NE(find(it, k0), nullptr);
}

TEST(ItTable, LruReplacementWithinSet)
{
    // Direct-mapped-by-construction: 4 entries, 4-way = one set.
    IntegrationTable it(params(IntegrationMode::OpcodeIndexed, 4, 4));
    for (int i = 0; i < 4; ++i)
        put(it, key(Opcode::ADDQI, i, 5, 1), reg(PhysReg(10 + i), 0, u64(i)));
    find(it, key(Opcode::ADDQI, 0, 5, 1)); // touch entry 0
    put(it, key(Opcode::ADDQI, 9, 5, 1), reg(50, 0, 9));
    EXPECT_NE(find(it, key(Opcode::ADDQI, 0, 5, 1)), nullptr);
    EXPECT_EQ(find(it, key(Opcode::ADDQI, 1, 5, 1)), nullptr); // LRU out
    EXPECT_GE(it.replacements(), 1u);

    // Victim order: an exact duplicate, then the first invalid way,
    // then the least recent way. Refill the set with four new entries
    // (20 becomes its LRU way); an invalidated way is then refilled
    // before the LRU way.
    ITHandle h[4];
    for (int i = 0; i < 4; ++i)
        h[i] = put(it, key(Opcode::ADDQI, 20 + i, 5, 1),
                   reg(PhysReg(20 + i), 0, u64(20 + i)));
    const u64 replaced = it.replacements();
    it.invalidate(h[2]);
    ITHandle got = put(it, key(Opcode::ADDQI, 30, 5, 1), reg(30, 0, 30));
    EXPECT_EQ(got.way, h[2].way);
    EXPECT_EQ(it.replacements(), replaced); // refill, not replacement
    EXPECT_NE(find(it, key(Opcode::ADDQI, 20, 5, 1)), nullptr); // LRU kept

    // With two invalid ways, the lower one is taken, then the other.
    it.invalidate(h[3]);
    it.invalidate(h[1]);
    got = put(it, key(Opcode::ADDQI, 31, 5, 1), reg(31, 0, 31));
    EXPECT_EQ(got.way, std::min(h[1].way, h[3].way));
    got = put(it, key(Opcode::ADDQI, 32, 5, 1), reg(32, 0, 32));
    EXPECT_EQ(got.way, std::max(h[1].way, h[3].way));
    EXPECT_EQ(it.replacements(), replaced);
}

TEST(ItTable, CarriedProbeReusesOrRechoosesVictim)
{
    // One set of four: fill it, so a missing key's victim is the LRU
    // way.
    IntegrationTable it(params(IntegrationMode::OpcodeIndexed, 4, 4));
    ITHandle h[4];
    for (int i = 0; i < 4; ++i)
        h[i] = put(it, key(Opcode::ADDQI, i, 5, 1),
                   reg(PhysReg(10 + i), 0, u64(i)));

    // A missed lookup's probe carries the victim to the insert.
    const ITKey ka = key(Opcode::ADDQI, 50, 5, 1);
    ITProbe pa = it.probe(ka);
    EXPECT_EQ(it.lookup(pa), nullptr);
    ITHandle got = it.insert(pa, reg(50, 0, 50));
    EXPECT_EQ(got.way, h[0].way); // entry 0 was least recent

    // A probe whose set changed since its lookup chooses again: the
    // way it cached now holds a newer entry, which must survive.
    const ITKey kb = key(Opcode::ADDQI, 51, 5, 1);
    const ITKey kc = key(Opcode::ADDQI, 52, 5, 1);
    ITProbe pb = it.probe(kb);
    EXPECT_EQ(it.lookup(pb), nullptr); // victim: entry 1's way
    got = put(it, kc, reg(52, 0, 52));
    EXPECT_EQ(got.way, h[1].way);
    got = it.insert(pb, reg(51, 0, 51));
    EXPECT_EQ(got.way, h[2].way);
    EXPECT_NE(find(it, kc), nullptr);
    EXPECT_NE(find(it, kb), nullptr);

    // A hit's probe inserts over the matching way (exact duplicate).
    ITProbe pc = it.probe(ka);
    ASSERT_NE(it.lookup(pc), nullptr);
    const u64 replaced = it.replacements();
    got = it.insert(pc, reg(60, 0, 60));
    EXPECT_EQ(got.way, h[0].way);
    EXPECT_EQ(it.replacements(), replaced);
    EXPECT_EQ(find(it, ka)->out, 60);
}

TEST(ItTable, DuplicateInsertOverwrites)
{
    IntegrationTable it(params(IntegrationMode::OpcodeIndexed, 4, 4));
    put(it, key(Opcode::ADDQI, 8, 5, 1), reg(40, 2, 1));
    put(it, key(Opcode::ADDQI, 8, 5, 1), reg(41, 3, 2));
    ITEntry *e = find(it, key(Opcode::ADDQI, 8, 5, 1));
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->out, 41);
    // Only one way consumed: the other three still hold nothing.
    int valid = 0;
    for (int i = 0; i < 4; ++i)
        valid += find(it, key(Opcode::ADDQI, i + 100, 5, 1)) != nullptr;
    EXPECT_EQ(valid, 0);
}

TEST(ItTable, BranchOutcomeHandle)
{
    IntegrationTable it(params(IntegrationMode::OpcodeIndexed));
    ITKey k = key(Opcode::BEQ, 50, 5, 1);
    ITHandle h = put(it, k, branch());
    ITEntry *e = find(it, k);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->isBranch);
    EXPECT_FALSE(e->outcomeValid);
    it.fillBranchOutcome(h, true);
    e = find(it, k);
    EXPECT_TRUE(e->outcomeValid);
    EXPECT_TRUE(e->taken);
}

TEST(ItTable, StaleHandleIgnored)
{
    IntegrationTable it(params(IntegrationMode::OpcodeIndexed, 4, 4));
    ITKey k = key(Opcode::BEQ, 50, 5, 1);
    ITHandle h = put(it, k, branch());
    // Evict by filling the (single) set with four other entries.
    for (int i = 0; i < 4; ++i)
        put(it, key(Opcode::ADDQI, i, 5, 1), reg(PhysReg(i), 0, 0));
    it.fillBranchOutcome(h, true); // must not corrupt a reused slot
    EXPECT_EQ(it.at(h), nullptr);
}

TEST(ItTable, InvalidateByHandle)
{
    IntegrationTable it(params(IntegrationMode::OpcodeIndexed));
    ITKey k = key(Opcode::LDQ, 16, 30, 0);
    ITHandle h = put(it, k, reg(77, 0, 0));
    EXPECT_NE(find(it, k), nullptr);
    it.invalidate(h);
    EXPECT_EQ(find(it, k), nullptr);
}

TEST(ItTable, OldHandleDeadAfterInvalidateOrReplacement)
{
    // Validity lives in the probe words: once a way is invalidated or
    // taken by another key, the old handle resolves to nothing and its
    // key's probe misses, whatever the payload row still holds.
    IntegrationTable it(params(IntegrationMode::OpcodeIndexed, 2, 2));
    const ITKey ka = key(Opcode::ADDQI, 1, 5, 1);
    const ITKey kb = key(Opcode::ADDQI, 2, 5, 1);
    const ITHandle ha = put(it, ka, reg(10, 0, 1));
    const ITHandle hb = put(it, kb, reg(11, 0, 2));
    ASSERT_NE(it.at(ha), nullptr);
    ASSERT_NE(it.at(hb), nullptr);

    it.invalidate(ha);
    EXPECT_EQ(it.at(ha), nullptr);
    EXPECT_EQ(find(it, ka), nullptr);
    it.invalidate(ha); // a dead handle invalidates nothing
    EXPECT_NE(it.at(hb), nullptr);

    // Refill a's way, then insert a third key: the set is full, so b
    // (now the least recent) is replaced.
    const ITHandle hc = put(it, key(Opcode::ADDQI, 3, 5, 1), reg(12, 0, 3));
    EXPECT_EQ(hc.way, ha.way);
    const u64 replaced = it.replacements();
    const ITHandle hd = put(it, key(Opcode::ADDQI, 4, 5, 1), reg(13, 0, 4));
    EXPECT_EQ(it.replacements(), replaced + 1);
    EXPECT_EQ(hd.way, hb.way);
    EXPECT_EQ(it.at(hb), nullptr);
    EXPECT_EQ(find(it, kb), nullptr);
    ASSERT_NE(it.at(hd), nullptr);
    EXPECT_EQ(it.at(hd)->out, 13);

    it.invalidateAll();
    EXPECT_EQ(it.at(hc), nullptr);
    EXPECT_EQ(it.at(hd), nullptr);
}

TEST(ItTable, ReverseEntriesCoexist)
{
    IntegrationTable it(params(IntegrationMode::Reverse));
    // A store creates the complementary load's entry.
    ITKey rk = key(Opcode::LDQ, 8, /*base sp preg*/ 31, 0);
    put(it, rk, reg(/*data preg*/ 20, 1, 5, /*reverse=*/true));
    ITEntry *e = find(it, rk);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->reverse);
    EXPECT_EQ(e->out, 20);
}

TEST(ItTable, FullyAssociativeSingleSet)
{
    IntegrationTable it(params(IntegrationMode::OpcodeIndexed, 16, 16));
    EXPECT_EQ(it.numSets(), 1u);
    for (int i = 0; i < 16; ++i)
        put(it, key(Opcode::ADDQI, i, 5, 1), reg(PhysReg(i), 0, 0));
    int found = 0;
    for (int i = 0; i < 16; ++i)
        found += find(it, key(Opcode::ADDQI, i, 5, 1)) != nullptr;
    EXPECT_EQ(found, 16);
}

TEST(ItTable, CallDepthIndexSpreadsDenseImmediates)
{
    // The motivation for the call-depth mix: dense stack-frame
    // immediates (0, 8, 16, ...) with one opcode must spread over more
    // sets when depths vary.
    IntegrationParams p = params(IntegrationMode::OpcodeIndexed, 256, 1);
    IntegrationTable with_cd(p);
    p.useCallDepthIndex = false;
    IntegrationTable without_cd(p);
    std::set<u32> s_with, s_without;
    for (unsigned d = 0; d < 8; ++d) {
        for (s32 imm = 0; imm < 32; imm += 8) {
            s_with.insert(with_cd.index(key(Opcode::LDQ, imm, 1, 0, 0, d)));
            s_without.insert(
                without_cd.index(key(Opcode::LDQ, imm, 1, 0, 0, d)));
        }
    }
    EXPECT_GT(s_with.size(), s_without.size());
}

TEST(LispTest, SuppressAfterTraining)
{
    Lisp lisp(64, 2);
    EXPECT_FALSE(lisp.suppress(123));
    lisp.trainMisintegration(123);
    EXPECT_TRUE(lisp.suppress(123));
    EXPECT_FALSE(lisp.suppress(124));
    EXPECT_EQ(lisp.trainings(), 1u);
    EXPECT_GE(lisp.suppressions(), 1u);
}

TEST(LispTest, OverbiasedNeverForgets)
{
    Lisp lisp(64, 2);
    lisp.trainMisintegration(5);
    for (int i = 0; i < 1000; ++i)
        EXPECT_TRUE(lisp.suppress(5));
}

TEST(LispTest, LruWithinSet)
{
    Lisp lisp(2, 2); // one set, two ways
    lisp.trainMisintegration(1);
    lisp.trainMisintegration(2);
    lisp.suppress(1); // touch
    lisp.trainMisintegration(3); // evicts 2
    EXPECT_TRUE(lisp.suppress(1));
    EXPECT_FALSE(lisp.suppress(2));
    EXPECT_TRUE(lisp.suppress(3));
}

TEST(LispTest, ResetClears)
{
    Lisp lisp(64, 2);
    lisp.trainMisintegration(9);
    lisp.reset();
    EXPECT_FALSE(lisp.suppress(9));
}
