/**
 * @file
 * Reference-count state-vector tests: the paper's section 2.2
 * machinery. FIFO allocation, pinning, simultaneous sharing, the two
 * zero-reference states (0/F garbage vs 0/T integration-eligible, the
 * deadlock-avoidance rule), generation counters, per-mode eligibility,
 * saturation and leak-freedom.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "base/rng.hh"
#include "core/reg_state.hh"

using namespace rix;

namespace
{

IntegrationParams
smallParams(unsigned regs = 64, unsigned refbits = 4, unsigned genbits = 4)
{
    IntegrationParams p;
    p.numPhysRegs = regs;
    p.refBits = refbits;
    p.genBits = genbits;
    return p;
}

} // namespace

TEST(RegState, AllocateFifoOrder)
{
    RegStateVector rs(smallParams(64));
    PhysReg a = rs.allocate();
    PhysReg b = rs.allocate();
    EXPECT_NE(a, b);
    EXPECT_EQ(rs.count(a), 1);
    EXPECT_TRUE(rs.valid(a));
    EXPECT_FALSE(rs.ready(a));
    // Freed registers are reclaimed in FIFO order: after releasing a
    // then b, a long allocation run returns a before b.
    rs.releaseOverwrite(a);
    rs.releaseOverwrite(b);
    std::vector<PhysReg> order;
    for (int i = 0; i < 64; ++i)
        order.push_back(rs.allocate());
    auto ia = std::find(order.begin(), order.end(), a);
    auto ib = std::find(order.begin(), order.end(), b);
    ASSERT_NE(ia, order.end());
    ASSERT_NE(ib, order.end());
    EXPECT_LT(ia - order.begin(), ib - order.begin());
}

TEST(RegState, PinnedNeverFreedOrEligible)
{
    RegStateVector rs(smallParams(64));
    PhysReg z = rs.allocate();
    rs.pin(z);
    EXPECT_TRUE(rs.pinned(z));
    rs.releaseOverwrite(z); // no-op on pinned
    EXPECT_EQ(rs.count(z), 1);
    EXPECT_FALSE(rs.eligible(z, rs.gen(z), IntegrationMode::General));
}

TEST(RegState, SimultaneousSharing)
{
    RegStateVector rs(smallParams(64));
    PhysReg r = rs.allocate();
    rs.markReady(r);
    rs.addRef(r);
    rs.addRef(r);
    EXPECT_EQ(rs.count(r), 3);
    rs.releaseOverwrite(r);
    rs.releaseOverwrite(r);
    EXPECT_EQ(rs.count(r), 1);
    EXPECT_TRUE(rs.valid(r));
    rs.releaseOverwrite(r);
    EXPECT_EQ(rs.count(r), 0);
    EXPECT_TRUE(rs.valid(r)); // 0/T: still integration-eligible
    EXPECT_EQ(rs.zeroOrigin(r), ZeroOrigin::Shadowed);
}

TEST(RegState, SquashOfExecutedIsEligible)
{
    RegStateVector rs(smallParams(64));
    PhysReg r = rs.allocate();
    rs.markReady(r); // executed
    rs.releaseSquash(r);
    EXPECT_TRUE(rs.valid(r)); // 0/T
    EXPECT_EQ(rs.zeroOrigin(r), ZeroOrigin::Squashed);
    EXPECT_TRUE(rs.eligible(r, rs.gen(r), IntegrationMode::Squash));
    EXPECT_TRUE(rs.eligible(r, rs.gen(r), IntegrationMode::General));
}

TEST(RegState, SquashOfUnexecutedIsGarbage)
{
    // The deadlock-avoidance rule: a squashed register whose value was
    // never computed must be 0/F.
    RegStateVector rs(smallParams(64));
    PhysReg r = rs.allocate(); // not marked ready
    rs.releaseSquash(r);
    EXPECT_FALSE(rs.valid(r));
    EXPECT_FALSE(rs.eligible(r, rs.gen(r), IntegrationMode::Squash));
    EXPECT_FALSE(rs.eligible(r, rs.gen(r), IntegrationMode::General));
}

TEST(RegState, SquashModeRequiresSquashOrigin)
{
    RegStateVector rs(smallParams(64));
    PhysReg r = rs.allocate();
    rs.markReady(r);
    rs.releaseOverwrite(r); // shadowed, not squashed
    EXPECT_FALSE(rs.eligible(r, rs.gen(r), IntegrationMode::Squash));
    EXPECT_TRUE(rs.eligible(r, rs.gen(r), IntegrationMode::General));
}

TEST(RegState, SquashModeRejectsActiveRegisters)
{
    RegStateVector rs(smallParams(64));
    PhysReg r = rs.allocate();
    rs.markReady(r);
    // Active (count 1) register: general reuse allows sharing, squash
    // reuse's ownership discipline does not.
    EXPECT_FALSE(rs.eligible(r, rs.gen(r), IntegrationMode::Squash));
    EXPECT_TRUE(rs.eligible(r, rs.gen(r), IntegrationMode::General));
}

TEST(RegState, GenerationMismatchBlocksEligibility)
{
    RegStateVector rs(smallParams(64));
    PhysReg r = rs.allocate();
    rs.markReady(r);
    const u8 old_gen = rs.gen(r);
    rs.releaseOverwrite(r);
    // Burn through the free list until r is reallocated.
    PhysReg got;
    do {
        got = rs.allocate();
        rs.markReady(got);
        rs.releaseOverwrite(got);
    } while (got != r);
    EXPECT_NE(rs.gen(r), old_gen);
    EXPECT_FALSE(rs.eligible(r, old_gen, IntegrationMode::General));
    EXPECT_TRUE(rs.eligible(r, rs.gen(r), IntegrationMode::General));
    // With generation checking disabled (ablation), the stale entry
    // would match.
    EXPECT_TRUE(rs.eligible(r, old_gen, IntegrationMode::General, false));
}

TEST(RegState, GenerationWraps)
{
    RegStateVector rs(smallParams(40, 4, 2)); // 2-bit generations
    PhysReg r = rs.allocate();
    const u8 g0 = rs.gen(r);
    for (int i = 0; i < 4; ++i) {
        rs.releaseOverwrite(r);
        PhysReg got;
        do {
            got = rs.allocate();
            if (got != r)
                rs.releaseSquash(got);
        } while (got != r);
    }
    EXPECT_EQ(rs.gen(r), g0); // wrapped around 2^2 reallocations
}

TEST(RegState, RefcountSaturation)
{
    IntegrationParams p = smallParams(64, 2); // max count 3
    RegStateVector rs(p);
    PhysReg r = rs.allocate();
    rs.markReady(r);
    rs.addRef(r);
    rs.addRef(r);
    EXPECT_TRUE(rs.refSaturated(r));
    // Saturated registers are not eligible (integration must fail and
    // allocate a fresh register, as in section 3.3).
    EXPECT_FALSE(rs.eligible(r, rs.gen(r), IntegrationMode::General));
}

TEST(RegState, ReuseAfterZeroRevivesValid)
{
    RegStateVector rs(smallParams(64));
    PhysReg r = rs.allocate();
    rs.markReady(r);
    rs.releaseOverwrite(r);
    EXPECT_EQ(rs.count(r), 0);
    rs.addRef(r); // integration of an idle 0/T register
    EXPECT_EQ(rs.count(r), 1);
    EXPECT_TRUE(rs.valid(r));
    rs.releaseSquash(r);
    EXPECT_TRUE(rs.valid(r)); // value was computed; back to 0/T
}

TEST(RegState, NoLeaksAfterChurn)
{
    RegStateVector rs(smallParams(40));
    Rng rng(3);
    std::vector<PhysReg> live;
    for (int i = 0; i < 10000; ++i) {
        if (rs.freeCount() > 0 && (live.empty() || rng.chance(500))) {
            PhysReg r = rs.allocate();
            if (rng.chance(700))
                rs.markReady(r);
            live.push_back(r);
        } else if (!live.empty()) {
            size_t k = rng.below(live.size());
            PhysReg r = live[k];
            live.erase(live.begin() + s64(k));
            rng.chance(500) ? rs.releaseOverwrite(r)
                            : rs.releaseSquash(r);
        }
        ASSERT_TRUE(rs.checkNoLeaks());
    }
}

TEST(RegState, ExhaustionDetectable)
{
    RegStateVector rs(smallParams(34));
    std::vector<PhysReg> regs;
    for (int i = 0; i < 34; ++i) {
        const PhysReg r = rs.tryAllocate();
        ASSERT_NE(r, invalidPhysReg);
        regs.push_back(r);
    }
    EXPECT_EQ(rs.freeCount(), 0u);
    EXPECT_EQ(rs.tryAllocate(), invalidPhysReg);

    // A failed tryAllocate() leaves the free queue as it was. Here its
    // only entry is stale (the register was integrated again after it
    // dropped to zero); once that register drops to zero once more,
    // it is reallocated from its old, earlier queue position.
    const PhysReg a = regs[5], b = regs[7];
    rs.releaseOverwrite(a);
    rs.addRef(a);
    EXPECT_EQ(rs.tryAllocate(), invalidPhysReg);
    rs.releaseOverwrite(b);
    rs.releaseOverwrite(a);
    EXPECT_EQ(rs.tryAllocate(), a);
    EXPECT_EQ(rs.tryAllocate(), b);
    EXPECT_EQ(rs.tryAllocate(), invalidPhysReg); // a's later entry: stale
}
