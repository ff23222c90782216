/**
 * @file
 * The `rix fuzz` driver machinery that is testable in a correct build:
 * panel expansion through the scenario grid, the delta-debugging
 * program minimizer (driven here by an artificial failure predicate),
 * and a clean end-to-end campaign. Actual divergence detection and
 * minimization of a real pipeline fault is exercised by
 * tests/test_fault_injection.cc under -DRIX_FAULT_INJECT=ON.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "sim/fuzz.hh"

using namespace rix;

TEST(FuzzPanel, BuiltinPanelHasFourPoints)
{
    const std::vector<ScenarioConfig> pts = fuzzPanel("", "");
    ASSERT_EQ(pts.size(), 4u);
    bool sawBaseOff = false, sawTinyReverse = false;
    for (const ScenarioConfig &pt : pts) {
        sawBaseOff = sawBaseOff || pt.label == "base;integ.mode=off";
        sawTinyReverse =
            sawTinyReverse || pt.label == "tiny;integ.mode=reverse";
    }
    EXPECT_TRUE(sawBaseOff);
    EXPECT_TRUE(sawTinyReverse);
}

TEST(FuzzPanel, ConfigFilterSelectsOnePoint)
{
    const std::vector<ScenarioConfig> pts =
        fuzzPanel("", "tiny;integ.mode=off");
    ASSERT_EQ(pts.size(), 1u);
    EXPECT_EQ(pts[0].label, "tiny;integ.mode=off");
    EXPECT_EQ(pts[0].params.robSize, 16u);
    EXPECT_EQ(pts[0].params.integ.mode, IntegrationMode::Off);
}

TEST(FuzzPanelDeath, UnknownConfigLabelIsFatal)
{
    EXPECT_EXIT({ fuzzPanel("", "no-such-point"); },
                ::testing::ExitedWithCode(1), "valid labels");
}

TEST(FuzzPanel, CustomPanelFileExpandsViaGrid)
{
    const std::string path = ::testing::TempDir() + "fuzz_panel.json";
    FILE *f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs(R"({
      "name": "custom-panel",
      "workloads": ["gzip"],
      "configs": [{"label": "p", "set": {"rs_size": 20}}],
      "grid": {"integ.it_assoc": [1, 2, 4]}
    })", f);
    fclose(f);

    const std::vector<ScenarioConfig> pts = fuzzPanel(path, "");
    ASSERT_EQ(pts.size(), 3u);
    EXPECT_EQ(pts[0].label, "p;integ.it_assoc=1");
    for (const ScenarioConfig &pt : pts)
        EXPECT_EQ(pt.params.rsSize, 20u);
    remove(path.c_str());
}

TEST(Minimizer, ShrinksToThePredicateKernel)
{
    // Artificial failure criterion: the program still contains a
    // reg-reg MULQ. The minimizer must NOP everything else and trim,
    // leaving exactly one live instruction.
    const Program p = generateRandomProgram(13);
    size_t mulqs = 0;
    for (const Instruction &inst : p.code)
        mulqs += inst.op == Opcode::MULQ ? 1 : 0;
    ASSERT_GT(mulqs, 0u) << "seed 13 generates no MULQ; pick another";

    const auto stillFails = [](const Program &cand) {
        for (const Instruction &inst : cand.code)
            if (inst.op == Opcode::MULQ)
                return true;
        return false;
    };

    u64 runs = 0;
    const Program shrunk = minimizeProgram(p, stillFails, &runs);
    EXPECT_GT(runs, 0u);
    EXPECT_TRUE(stillFails(shrunk));
    EXPECT_EQ(liveInstCount(shrunk), 1u);
    EXPECT_LE(shrunk.code.size(), p.code.size());
    for (const Instruction &inst : shrunk.code) {
        if (!inst.isNop()) {
            EXPECT_EQ(inst.op, Opcode::MULQ);
        }
    }

    // Deterministic: the same input shrinks identically.
    const Program again = minimizeProgram(p, stillFails, nullptr);
    ASSERT_EQ(again.code.size(), shrunk.code.size());
    for (size_t i = 0; i < again.code.size(); ++i)
        EXPECT_TRUE(again.code[i] == shrunk.code[i]) << "slot " << i;
}

TEST(Minimizer, NothingToShrinkIsIdentity)
{
    Program p = generateRandomProgram(14);
    const size_t live = liveInstCount(p);
    u64 runs = 0;
    // A predicate that fails for every proper shrink keeps the input.
    const Program out = minimizeProgram(
        p,
        [live](const Program &cand) {
            return liveInstCount(cand) >= live;
        },
        &runs);
    EXPECT_EQ(liveInstCount(out), live);
    EXPECT_GT(runs, 0u);
}

TEST(Fuzz, CleanCampaignOnCorrectBuild)
{
    if (buildHasInjectedFault())
        GTEST_SKIP() << "fault-injection build: campaign must fail "
                        "(covered by test_fault_injection)";

    FuzzOptions opts;
    opts.seeds = 3;
    opts.firstSeed = 41;
    // Small programs keep this suite fast.
    opts.prog.itersMin = 30;
    opts.prog.itersMax = 60;
    opts.reproPath = ::testing::TempDir() + "fuzz_repro_clean.txt";
    remove(opts.reproPath.c_str());

    const FuzzResult res = runFuzz(opts);
    EXPECT_FALSE(res.failed);
    EXPECT_EQ(res.programs, 3u);
    EXPECT_EQ(res.points, 4u);
    EXPECT_EQ(res.runs, 12u);
    EXPECT_EQ(res.truncated, 0u);
    EXPECT_EQ(res.reproFile, "");

    FILE *f = fopen(opts.reproPath.c_str(), "r");
    EXPECT_EQ(f, nullptr) << "clean campaign must not write a reproducer";
    if (f)
        fclose(f);
}

TEST(Fuzz, TruncatedRunsAreCountedNotCountedAsClean)
{
    // A budget far below any generated program's length: every run
    // stops before HALT and must be reported as prefix-only coverage,
    // not silently counted as a full verification pass.
    FuzzOptions opts;
    opts.seeds = 2;
    opts.onlyConfig = "base;integ.mode=off";
    opts.maxRetired = 50;
    opts.reproPath = ::testing::TempDir() + "fuzz_repro_trunc.txt";

    const FuzzResult res = runFuzz(opts);
    EXPECT_FALSE(res.failed);
    EXPECT_EQ(res.runs, 2u);
    EXPECT_EQ(res.truncated, 2u);
}
