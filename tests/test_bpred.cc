/**
 * @file
 * Branch-prediction substrate tests: bimodal and gshare learning,
 * hybrid chooser adaptation, speculative-history checkpoint/restore,
 * BTB tagging and LRU, and RAS push/pop with TOS repair.
 */

#include <gtest/gtest.h>

#include <random>

#include "bpred/predictor.hh"

using namespace rix;

TEST(Bimodal, LearnsBias)
{
    BimodalPredictor p(64);
    for (int i = 0; i < 8; ++i)
        p.update(5, true);
    EXPECT_TRUE(p.predict(5));
    for (int i = 0; i < 8; ++i)
        p.update(5, false);
    EXPECT_FALSE(p.predict(5));
}

TEST(Gshare, LearnsHistoryCorrelation)
{
    GsharePredictor p(256, 4);
    // Alternating branch: global history disambiguates.
    for (int i = 0; i < 200; ++i) {
        const bool dir = (i % 2) == 0;
        const u64 h = p.history();
        const bool pred = p.predict(9);
        (void)pred;
        p.update(9, h, dir);
        p.speculate(dir);
    }
    // After training, predictions should track the alternation.
    int correct = 0;
    for (int i = 0; i < 20; ++i) {
        const bool dir = (i % 2) == 0;
        if (p.predict(9) == dir)
            ++correct;
        const u64 h = p.history();
        p.update(9, h, dir);
        p.speculate(dir);
    }
    EXPECT_GE(correct, 18);
}

TEST(Gshare, HistoryRestore)
{
    GsharePredictor p(64, 6);
    p.speculate(true);
    p.speculate(true);
    const u64 h = p.history();
    p.speculate(false);
    EXPECT_NE(p.history(), h);
    p.restoreHistory(h);
    EXPECT_EQ(p.history(), h);
}

TEST(Hybrid, PredictsAndTrains)
{
    HybridPredictor h({});
    for (int i = 0; i < 50; ++i) {
        auto pr = h.predict(33);
        h.update(33, pr, true);
    }
    EXPECT_TRUE(h.predict(33).taken);
}

TEST(Btb, TagsDistinguishPcs)
{
    Btb btb(16, 2);
    InstAddr t = 0;
    EXPECT_FALSE(btb.lookup(100, &t));
    btb.update(100, 777);
    EXPECT_TRUE(btb.lookup(100, &t));
    EXPECT_EQ(t, 777u);
    // Same set, different tag.
    EXPECT_FALSE(btb.lookup(100 + 8 * 16, &t));
}

TEST(Btb, UpdateOverwritesTarget)
{
    Btb btb(16, 2);
    btb.update(5, 10);
    btb.update(5, 20);
    InstAddr t = 0;
    EXPECT_TRUE(btb.lookup(5, &t));
    EXPECT_EQ(t, 20u);
}

TEST(Btb, LruEviction)
{
    Btb btb(4, 2); // 2 sets x 2 ways
    btb.update(0, 1);
    btb.update(2, 2); // same set (even pcs)
    InstAddr t;
    btb.lookup(0, &t); // touch 0
    btb.update(4, 3);  // evicts 2
    EXPECT_TRUE(btb.lookup(0, &t));
    EXPECT_FALSE(btb.lookup(2, &t));
    EXPECT_TRUE(btb.lookup(4, &t));
}

TEST(Ras, PushPop)
{
    ReturnAddressStack ras(8);
    ras.push(10);
    ras.push(20);
    EXPECT_EQ(ras.depth(), 2u);
    EXPECT_EQ(ras.pop(), 20u);
    EXPECT_EQ(ras.pop(), 10u);
    EXPECT_EQ(ras.depth(), 0u);
    EXPECT_EQ(ras.pop(), 0u); // underflow predicts 0
}

TEST(Ras, CheckpointRepair)
{
    ReturnAddressStack ras(8);
    ras.push(10);
    auto cp = ras.save();
    ras.push(20); // wrong path
    ras.pop();
    ras.pop();
    ras.restore(cp);
    EXPECT_EQ(ras.depth(), 1u);
    EXPECT_EQ(ras.pop(), 10u);
}

TEST(Ras, WrapsCircularly)
{
    ReturnAddressStack ras(4);
    for (InstAddr i = 1; i <= 6; ++i)
        ras.push(i);
    // Oldest entries overwritten; the most recent four survive.
    EXPECT_EQ(ras.pop(), 6u);
    EXPECT_EQ(ras.pop(), 5u);
    EXPECT_EQ(ras.pop(), 4u);
    EXPECT_EQ(ras.pop(), 3u);
}

TEST(Ras, AnyRingSizeMatchesModuloRing)
{
    // The ring position is tracked beside the depth counter instead of
    // taken modulo the ring size; for every size (powers of two or
    // not) a random push/pop/save/restore stream must behave exactly
    // like the modulo-indexed ring.
    for (unsigned size : {1u, 2u, 3u, 5u, 7u, 8u, 12u}) {
        ReturnAddressStack ras(size);
        std::vector<InstAddr> ring(size, 0);
        unsigned tos = 0;
        std::vector<std::pair<ReturnAddressStack::Checkpoint,
                              std::pair<unsigned, InstAddr>>> cps;
        std::mt19937 rng(size);
        for (int i = 0; i < 5'000; ++i) {
            switch (rng() % 4) {
              case 0: {
                const InstAddr v = rng();
                ras.push(v);
                ring[tos++ % size] = v;
                break;
              }
              case 1: {
                InstAddr want = 0;
                if (tos > 0)
                    want = ring[--tos % size];
                ASSERT_EQ(ras.pop(), want) << "size " << size;
                break;
              }
              case 2:
                cps.push_back({ras.save(),
                               {tos, tos ? ring[(tos - 1) % size] : 0}});
                break;
              default:
                if (cps.empty())
                    break;
                const auto &[cp, model] = cps[rng() % cps.size()];
                ras.restore(cp);
                tos = model.first;
                if (tos > 0)
                    ring[(tos - 1) % size] = model.second;
                break;
            }
            ASSERT_EQ(ras.depth(), tos) << "size " << size;
        }
    }
}

TEST(PredictorUnit, DirectJumpAndCall)
{
    BranchPredictorUnit bp({});
    BranchPrediction pred;
    InstAddr next = bp.predict(makeJump(42), 10, &pred);
    EXPECT_EQ(next, 42u);
    EXPECT_TRUE(pred.isControl);

    next = bp.predict(makeCall(100), 20, &pred);
    EXPECT_EQ(next, 100u);
    EXPECT_EQ(bp.callDepth(), 1u);

    next = bp.predict(makeIndirect(Opcode::RET, regRa), 100, &pred);
    EXPECT_EQ(next, 21u); // RAS: return to call site + 1
    EXPECT_EQ(bp.callDepth(), 0u);
}

TEST(PredictorUnit, CallDepthTracksNesting)
{
    BranchPredictorUnit bp({});
    BranchPrediction pred;
    bp.predict(makeCall(100), 1, &pred);
    EXPECT_EQ(pred.callDepth, 0u); // depth *at* the call instruction
    bp.predict(makeCall(200), 101, &pred);
    EXPECT_EQ(pred.callDepth, 1u);
    bp.predict(makeRR(Opcode::ADDQ, 1, 2, 3), 201, &pred);
    EXPECT_EQ(pred.callDepth, 2u);
}

TEST(PredictorUnit, RepairBeforeRestoresRasAndHistory)
{
    BranchPredictorUnit bp({});
    BranchPrediction outer;
    bp.predict(makeCall(100), 1, &outer);
    BranchPrediction wrong;
    bp.predict(makeCall(200), 101, &wrong); // wrong-path call
    EXPECT_EQ(bp.callDepth(), 2u);
    bp.repairBefore(wrong);
    EXPECT_EQ(bp.callDepth(), 1u);
    BranchPrediction pred;
    EXPECT_EQ(bp.predict(makeIndirect(Opcode::RET, regRa), 150, &pred),
              2u);
}

TEST(PredictorUnit, ApplyOutcomeReplaysEffect)
{
    BranchPredictorUnit bp({});
    BranchPrediction pred;
    bp.predict(makeBranch(Opcode::BEQ, 1, 50), 10, &pred);
    const u64 h = bp.direction().history();
    bp.repairBefore(pred);
    bp.applyOutcome(makeBranch(Opcode::BEQ, 1, 50), 10, pred.predTaken);
    EXPECT_EQ(bp.direction().history(), h);

    bp.applyOutcome(makeCall(77), 30, true);
    EXPECT_EQ(bp.callDepth(), 1u);
    bp.applyOutcome(makeIndirect(Opcode::RET, regRa), 80, true);
    EXPECT_EQ(bp.callDepth(), 0u);
}

TEST(PredictorUnit, IndirectJumpUsesBtb)
{
    BranchPredictorUnit bp({});
    BranchPrediction pred;
    Instruction jmp = makeIndirect(Opcode::JMP, 5);
    // Untrained: falls through.
    EXPECT_EQ(bp.predict(jmp, 10, &pred), 11u);
    bp.update(jmp, 10, pred, true, 99);
    EXPECT_EQ(bp.predict(jmp, 10, &pred), 99u);
}
