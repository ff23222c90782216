/**
 * @file
 * The retire-time DIVA divergence report, which is unconditional: clean
 * runs report nothing, the report composes with checkpoint resume and
 * reused contexts, the removed opt-in key is rejected, and the report
 * renders everything it carries. The check's ability to actually
 * *fail* is proven by tests/test_fault_injection.cc in the
 * -DRIX_FAULT_INJECT=ON build.
 */

#include <gtest/gtest.h>

#include "base/json.hh"
#include "cpu/core.hh"
#include "sim/presets.hh"
#include "sim/scenario.hh"
#include "sim/simulator.hh"
#include "workload/randprog.hh"

using namespace rix;

namespace
{

CoreParams
reverseParams()
{
    return integrationParams(IntegrationMode::Reverse);
}

} // namespace

TEST(DivaReport, CleanRunReportsNothing)
{
    const Program p = generateRandomProgram(9);
    Core core(p, reverseParams());
    core.run(10'000'000, 50'000'000);
    EXPECT_TRUE(core.halted());
    EXPECT_EQ(core.divergence(), nullptr);
    EXPECT_EQ(verifyAgainstEmulator(p, reverseParams()), "");
}

TEST(DivaReport, RemovedOptInKeyIsRejected)
{
    // Checking is no longer optional, so its old spec key is unknown.
    std::string err;
    const JsonValue on = JsonValue::parse("true", &err);
    ASSERT_EQ(err, "");
    CoreParams p;
    EXPECT_NE(applyCoreParamOverride(p, "check.lockstep", on), "");
}

TEST(DivaReport, ComposesWithCheckpointResume)
{
    const Program p = generateRandomProgram(11);
    const CoreParams params = reverseParams();

    Core full(p, params);
    full.run(10'000'000, 50'000'000);
    ASSERT_TRUE(full.halted());
    ASSERT_EQ(full.divergence(), nullptr);
    const u64 total = full.stats().retired;
    ASSERT_GT(total, 100u);

    for (u64 k : {u64(1), total / 3, total - 1}) {
        Emulator ff(p);
        ff.run(k);
        const Checkpoint ckpt = ff.snapshot();

        Core core(p, params);
        core.reset(p, params, ckpt);
        EXPECT_EQ(core.golden().instsExecuted(), k);

        core.run(10'000'000, 50'000'000);
        ASSERT_TRUE(core.halted()) << "k " << k;
        EXPECT_EQ(core.divergence(), nullptr) << "k " << k;
        EXPECT_EQ(core.stats().retired, total - k);
        for (unsigned r = 0; r < numLogRegs; ++r)
            EXPECT_EQ(core.golden().reg(LogReg(r)),
                      full.golden().reg(LogReg(r)))
                << "k " << k << " r" << r;
        EXPECT_EQ(core.golden().instsExecuted(), total);
    }
}

TEST(DivaReport, ComposesWithReusedContexts)
{
    const Program a = generateRandomProgram(21);
    const Program b = generateRandomProgram(22);
    const CoreParams reverse = reverseParams();
    const CoreParams general = integrationParams(IntegrationMode::General);

    // Fresh-core references.
    Core refA(a, reverse);
    refA.run(10'000'000, 50'000'000);
    ASSERT_TRUE(refA.halted());
    Core refB(b, general);
    refB.run(10'000'000, 50'000'000);
    ASSERT_TRUE(refB.halted());

    // One context cycled through program/param changes: every reset
    // starts with a clean report.
    Core core(a, reverse);
    core.run(10'000'000, 50'000'000);
    ASSERT_TRUE(core.halted());
    EXPECT_EQ(core.divergence(), nullptr);
    EXPECT_EQ(core.stats().cycles, refA.stats().cycles);

    core.reset(b, general);
    core.run(10'000'000, 50'000'000);
    ASSERT_TRUE(core.halted());
    EXPECT_EQ(core.stats().cycles, refB.stats().cycles);

    core.reset(a, reverse);
    EXPECT_EQ(core.divergence(), nullptr);
    core.run(10'000'000, 50'000'000);
    ASSERT_TRUE(core.halted());
    EXPECT_EQ(core.divergence(), nullptr);
    EXPECT_EQ(core.stats().cycles, refA.stats().cycles);
}

TEST(DivaReport, ReportFormatCarriesEverything)
{
    DivergenceReport r;
    r.diverged = true;
    r.kind = "value";
    r.icount = 1234;
    r.pc = 17;
    r.disasm = "addq r3, r1, r2";
    r.reason = "pipeline produced destination value 1, architecturally 2";
    r.goldenState = "  golden-regs\n";
    const std::string text = r.format();
    EXPECT_EQ(text.rfind("DIVA divergence (value)", 0), 0u) << text;
    EXPECT_NE(text.find("1234"), std::string::npos);
    EXPECT_NE(text.find("addq r3, r1, r2"), std::string::npos);
    EXPECT_NE(text.find("golden-regs"), std::string::npos);

    DivergenceReport clean;
    EXPECT_EQ(clean.format(), "no divergence");
}
