/**
 * @file
 * Coverage-guided fuzzing: the CoverageMap itself (bit plumbing,
 * serialization, signatures), harvesting it from a reused context,
 * mutation and corpus reproducibility, and the campaign invariants
 * the guided driver promises — bit-identical schedules, coverage
 * unions, corpus contents and failure counters for any job count,
 * fingerprint dedupe of repeated failures, and kind-preserving
 * minimization. Synthetic failures are planted through
 * FuzzOptions::testFailure so a correct build can exercise the
 * failure paths; the real injected-fault drill lives in
 * tests/test_fault_injection.cc.
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <cstdio>

#include "sim/corpus.hh"
#include "sim/fuzz.hh"
#include "sim/sweep.hh"
#include "trace/coverage.hh"
#include "workload/workload.hh"

using namespace rix;

namespace
{

/** Scoped RIX_JOBS override (restores the previous value). */
class ScopedJobs
{
  public:
    explicit ScopedJobs(const char *value)
    {
        const char *old = getenv("RIX_JOBS");
        had_ = old != nullptr;
        if (had_)
            old_ = old;
        setenv("RIX_JOBS", value, /*overwrite=*/1);
    }

    ~ScopedJobs()
    {
        if (had_)
            setenv("RIX_JOBS", old_.c_str(), 1);
        else
            unsetenv("RIX_JOBS");
    }

  private:
    bool had_ = false;
    std::string old_;
};

/** Small fast programs for campaign tests. */
FuzzOptions
smallCampaign()
{
    FuzzOptions opts;
    opts.prog.itersMin = 20;
    opts.prog.itersMax = 40;
    opts.reproPath = ::testing::TempDir() + "fuzz_cov_repro.txt";
    return opts;
}

} // namespace

// ---- CoverageMap unit tests -----------------------------------------

TEST(CoverageMap, SetTestAndPopcount)
{
    CoverageMap m;
    EXPECT_EQ(m.popcount(), 0u);
    m.set(kCovRetireHalt);
    m.set(kCovSquashBranch);
    m.set(CoverageMap::kStatsBase + 5);
    EXPECT_TRUE(m.test(kCovRetireHalt));
    EXPECT_TRUE(m.test(kCovSquashBranch));
    EXPECT_FALSE(m.test(kCovSquashMemOrder));
    EXPECT_EQ(m.popcount(), 3u);

    m.clear();
    EXPECT_EQ(m.popcount(), 0u);
    EXPECT_FALSE(m.test(kCovRetireHalt));
}

TEST(CoverageMap, HexRoundTripAndEquality)
{
    CoverageMap m;
    m.set(0);
    m.set(63);
    m.set(64);
    m.set(CoverageMap::kBits - 1);
    const std::string hex = m.toHex();
    EXPECT_EQ(hex.size(), CoverageMap::kWords * 16);

    CoverageMap back;
    ASSERT_TRUE(back.fromHex(hex));
    EXPECT_TRUE(back == m);
    EXPECT_EQ(back.signature(), m.signature());

    CoverageMap bad;
    EXPECT_FALSE(bad.fromHex("zz"));
    EXPECT_FALSE(bad.fromHex(std::string(CoverageMap::kWords * 16, 'g')));
}

TEST(CoverageMap, OrIntoReportsGrowth)
{
    CoverageMap a, b;
    a.set(kCovMisintLoad);
    EXPECT_TRUE(a.orInto(b));   // b gained the bit
    EXPECT_FALSE(a.orInto(b));  // no new bits the second time
    EXPECT_TRUE(b.test(kCovMisintLoad));

    CoverageMap c;
    c.set(kCovMisintLoad);
    c.set(kCovMisintBranch);
    EXPECT_TRUE(c.orInto(b)); // one old bit, one new: still growth
    EXPECT_EQ(b.popcount(), 2u);
}

TEST(CoverageMap, FailureClassBits)
{
    CoverageMap m;
    EXPECT_EQ(m.failureClassBits(), 0u);
    DivergenceReport r;
    r.kind = "value";
    applyFailureClass(r, m);
    EXPECT_TRUE(m.test(kCovFailValue));
    r.kind = "stuck";
    r.reason = "watchdog: no retirement progress";
    applyFailureClass(r, m);
    EXPECT_TRUE(m.test(kCovFailStuckWatchdog));
    r.reason = "store to text segment";
    applyFailureClass(r, m);
    EXPECT_TRUE(m.test(kCovFailStuckTextFault));
    EXPECT_NE(m.failureClassBits(), 0u);
}

TEST(CoverageMap, FingerprintMixesKindAndEvents)
{
    CoverageMap a;
    a.set(kCovSquashBranch);
    CoverageMap b = a;
    EXPECT_EQ(failureFingerprint("value", a), failureFingerprint("value", b));
    EXPECT_NE(failureFingerprint("value", a), failureFingerprint("stuck", a));
    b.set(kCovSquashMemOrder);
    EXPECT_NE(failureFingerprint("value", a), failureFingerprint("value", b));

    // Section B (stats buckets) must NOT affect the fingerprint:
    // failures on different-size programs still dedupe.
    CoverageMap c = a;
    c.set(CoverageMap::kStatsBase + 7);
    EXPECT_EQ(failureFingerprint("value", a), failureFingerprint("value", c));
}

// ---- Harvesting coverage from a reused context ---------------------

TEST(CoverageCore, UncountedEventWordIsClearedOnReset)
{
    const std::vector<ScenarioConfig> tiny =
        fuzzPanel("", "tiny;integ.mode=reverse");
    const std::vector<ScenarioConfig> base =
        fuzzPanel("", "base;integ.mode=off");
    ASSERT_EQ(tiny.size(), 1u);
    ASSERT_EQ(base.size(), 1u);
    const Program prog = buildWorkload("gzip", 1);

    const auto bitsIn = [](const CoverageMap &m, unsigned first,
                           unsigned n) {
        unsigned k = 0;
        for (unsigned b = first; b < first + n; ++b)
            k += m.test(b) ? 1 : 0;
        return k;
    };

    SimContext ctx;
    ctx.run(prog, tiny[0].params, ~u64(0), ~Cycle(0));
    CoverageMap first;
    first.harvest(ctx.core());
    EXPECT_TRUE(first.test(kCovRetireHalt));
    EXPECT_GT(bitsIn(first, kCovIntegType, 10), 0u);
    EXPECT_GT(bitsIn(first, kCovBranchEdge, 4), 0u);

    // Integration off: no integration, misintegration or rename-time
    // redirect event — so a word left over from the first run shows.
    ctx.run(prog, base[0].params, ~u64(0), ~Cycle(0));
    CoverageMap second;
    second.harvest(ctx.core());
    EXPECT_TRUE(second.test(kCovRetireHalt));
    EXPECT_EQ(bitsIn(second, kCovIntegType, kCovLispSuppress), 0u);
    EXPECT_EQ(bitsIn(second, kCovIntegBranch, 1), 0u);
    EXPECT_EQ(bitsIn(second, kCovRenameRedirect, 1), 0u);
    EXPECT_EQ(bitsIn(second, kCovMisintLoad, 3), 0u);
}

// ---- Mutators -------------------------------------------------------

TEST(RandProgMutate, DeterministicAndValid)
{
    RandProgConfig base;
    for (u64 ms = 1; ms <= 40; ++ms) {
        const RandProgMutation m1 = mutateRandProg(99, base, ms);
        const RandProgMutation m2 = mutateRandProg(99, base, ms);
        EXPECT_EQ(m1.seed, m2.seed);
        EXPECT_STREQ(m1.mutator, m2.mutator);
        EXPECT_EQ(validateRandProgConfig(m1.cfg), "")
            << "mutator " << m1.mutator << " produced invalid config";
        // The mutated program regenerates bit-identically from the
        // (seed, cfg) pair alone — the corpus replay property.
        const Program p1 = generateRandomProgram(m1.seed, m1.cfg);
        const Program p2 = generateRandomProgram(m2.seed, m2.cfg);
        ASSERT_EQ(p1.code.size(), p2.code.size());
        for (size_t i = 0; i < p1.code.size(); ++i)
            ASSERT_TRUE(p1.code[i] == p2.code[i]);
    }
}

TEST(RandProgMutate, DefaultKnobsPreserveGeneration)
{
    // aluOpBias=0 / spliceSeed=0 must leave historical generation
    // bit-identical (golden seeds, reproducers, fuzz CI all depend on
    // it).
    RandProgConfig plain;
    RandProgConfig expl;
    expl.aluOpBias = 0;
    expl.spliceSeed = 0;
    const Program a = generateRandomProgram(21, plain);
    const Program b = generateRandomProgram(21, expl);
    ASSERT_EQ(a.code.size(), b.code.size());
    for (size_t i = 0; i < a.code.size(); ++i)
        ASSERT_TRUE(a.code[i] == b.code[i]);
}

TEST(RandProgMutate, KnobsChangeTheProgramWithinBudget)
{
    RandProgConfig cfg;
    cfg.itersMin = 20;
    cfg.itersMax = 30;
    const Program base = generateRandomProgram(5, cfg);

    RandProgConfig biased = cfg;
    biased.aluOpBias = 3;
    const Program rot = generateRandomProgram(5, biased);
    EXPECT_EQ(rot.code.size(), base.code.size())
        << "op substitution must not change program shape";
    bool differs = false;
    for (size_t i = 0; i < base.code.size() && !differs; ++i)
        differs = !(base.code[i] == rot.code[i]);
    EXPECT_TRUE(differs);

    RandProgConfig spliced = cfg;
    spliced.spliceSeed = 0xfeedbeef;
    const Program sp = generateRandomProgram(5, spliced);
    EXPECT_GT(sp.code.size(), base.code.size());
    // The native body is a prefix-preserved region: splice arms only
    // append, so the unspliced prefix stays bit-identical.
    EXPECT_LE(randProgInstBudget(cfg), randProgInstBudget(spliced));
}

// ---- Corpus ---------------------------------------------------------

TEST(Corpus, AdmitKeepsOnlyNovelCoverage)
{
    Corpus c;
    CorpusEntry e1;
    e1.seed = 1;
    e1.map.set(kCovRetireHalt);
    EXPECT_TRUE(c.admit(e1));

    CorpusEntry e2;
    e2.seed = 2;
    e2.map.set(kCovRetireHalt); // nothing new
    EXPECT_FALSE(c.admit(e2));
    EXPECT_EQ(c.size(), 1u);

    CorpusEntry e3;
    e3.seed = 3;
    e3.map.set(kCovRetireHalt);
    e3.map.set(kCovSquashBranch); // one new bit
    EXPECT_TRUE(c.admit(e3));
    EXPECT_EQ(c.size(), 2u);
    EXPECT_EQ(c.unionMap().popcount(), 2u);
}

TEST(Corpus, EntryTextRoundTrip)
{
    CorpusEntry e;
    e.seed = 0xdeadbeef;
    e.cfg.branchWeight = 5;
    e.cfg.aluOpBias = 3;
    e.cfg.spliceSeed = 0x1234567890abcdefull;
    e.mutator = "splice";
    e.map.set(kCovIntegBranch);
    e.map.set(CoverageMap::kStatsBase + 17);

    CorpusEntry back;
    ASSERT_TRUE(parseCorpusEntry(formatCorpusEntry(e), &back));
    EXPECT_EQ(back.seed, e.seed);
    EXPECT_EQ(back.cfg.branchWeight, 5u);
    EXPECT_EQ(back.cfg.aluOpBias, 3u);
    EXPECT_EQ(back.cfg.spliceSeed, e.cfg.spliceSeed);
    EXPECT_EQ(back.mutator, "splice");
    EXPECT_TRUE(back.map == e.map);

    CorpusEntry junk;
    EXPECT_FALSE(parseCorpusEntry("seed=1\n", &junk)); // no coverage
    EXPECT_FALSE(parseCorpusEntry("not a corpus file", &junk));
}

TEST(Corpus, DirectoryRoundTripPreservesUnionAndOrder)
{
    const std::string dir = ::testing::TempDir() + "rix_corpus_rt";

    Corpus a;
    for (unsigned i = 0; i < 5; ++i) {
        CorpusEntry e;
        e.seed = 100 + i;
        e.cfg.branchWeight = i;
        e.map.set(kCovIntegType + i);
        ASSERT_TRUE(a.admit(std::move(e)));
    }
    EXPECT_EQ(a.saveNew(dir), 5u);
    EXPECT_EQ(a.saveNew(dir), 0u) << "nothing new to journal";

    Corpus b;
    EXPECT_EQ(b.loadDir(dir), 5u);
    ASSERT_EQ(b.size(), a.size());
    EXPECT_TRUE(b.unionMap() == a.unionMap());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(b.entries()[i].seed, a.entries()[i].seed);
        EXPECT_TRUE(b.entries()[i].map == a.entries()[i].map);
    }

    Corpus none;
    EXPECT_EQ(none.loadDir(dir + "_missing"), 0u);
}

// ---- Panel diagnostics ----------------------------------------------

TEST(FuzzPanelDeath, EmptyPanelNamesThePanelNotTheFilter)
{
    // A spec with zero configs is unreachable through parseScenario
    // (it rejects empty config lists), but a future panel source might
    // not be — and the old code would have blamed the user's --config
    // filter for a panel that declares nothing.
    ScenarioSpec empty;
    EXPECT_EXIT({ selectPanelPoints(empty, "'broken.json'", ""); },
                ::testing::ExitedWithCode(1), "declares no configs");
}

// ---- Campaign invariants --------------------------------------------

TEST(GuidedFuzz, CleanCampaignIdenticalForAnyJobCount)
{
    if (buildHasInjectedFault())
        GTEST_SKIP() << "fault build: campaigns fail (covered below)";

    FuzzOptions opts = smallCampaign();
    opts.guided = true;
    opts.seeds = 40; // two generations
    opts.firstSeed = 11;
    opts.onlyConfig = "tiny;integ.mode=reverse";

    FuzzResult r1, r4;
    {
        ScopedJobs j("1");
        r1 = runFuzz(opts);
    }
    {
        ScopedJobs j("4");
        r4 = runFuzz(opts);
    }
    EXPECT_FALSE(r1.failed);
    EXPECT_EQ(r1.runs, 40u);
    EXPECT_GT(r1.coverage.popcount(), 0u);
    EXPECT_GT(r1.corpusEntries, 0u);

    // Bit-identical campaign for any job count.
    EXPECT_EQ(r1.runs, r4.runs);
    EXPECT_EQ(r1.truncated, r4.truncated);
    EXPECT_TRUE(r1.coverage == r4.coverage);
    EXPECT_EQ(r1.coverage.signature(), r4.coverage.signature());
    EXPECT_EQ(r1.corpusEntries, r4.corpusEntries);
    EXPECT_EQ(r1.failures, r4.failures);
    EXPECT_EQ(r1.uniqueFailures, r4.uniqueFailures);
}

TEST(GuidedFuzz, CorpusJournalRoundTripsAcrossCampaigns)
{
    if (buildHasInjectedFault())
        GTEST_SKIP() << "fault build: campaigns fail";

    const std::string dir = ::testing::TempDir() + "rix_corpus_campaign";
    // A previous run of this binary leaves its journal behind; the
    // campaign under test must start from an empty corpus.
    if (DIR *d = opendir(dir.c_str())) {
        while (struct dirent *e = readdir(d)) {
            const std::string name = e->d_name;
            if (name != "." && name != "..")
                unlink((dir + "/" + name).c_str());
        }
        closedir(d);
    }

    FuzzOptions opts = smallCampaign();
    opts.seeds = 32;
    opts.firstSeed = 7;
    opts.onlyConfig = "base;integ.mode=reverse";
    opts.corpusDir = dir; // implies guided

    const FuzzResult first = runFuzz(opts);
    EXPECT_FALSE(first.failed);
    EXPECT_EQ(first.corpusLoaded, 0u);
    EXPECT_GT(first.corpusEntries, 0u);

    // Second campaign starts from the journal: it reloads every entry
    // and its initial coverage union is the first campaign's.
    opts.firstSeed = 1007; // fresh seeds, same corpus
    const FuzzResult second = runFuzz(opts);
    EXPECT_FALSE(second.failed);
    EXPECT_EQ(second.corpusLoaded, first.corpusEntries);
    EXPECT_GE(second.corpusEntries, first.corpusEntries);
    // The second union is a superset of the first.
    CoverageMap merged = second.coverage;
    EXPECT_FALSE(first.coverage.orInto(merged));
}

TEST(BlindFuzz, PlantedFailureCountersIdenticalForAnyJobCount)
{
    // Satellite regression: the serial path stops at the first
    // failure, and the parallel path must report the *same* runs and
    // truncated counters — not drain its whole batch into them.
    FuzzOptions opts = smallCampaign();
    opts.seeds = 30;
    opts.firstSeed = 1;
    opts.minimize = false;
    opts.testFailure = [](const Program &, u64 seed,
                          const std::string &) -> std::string {
        return seed == 23 ? "value" : "";
    };

    FuzzResult r1, r4;
    {
        ScopedJobs j("1");
        r1 = runFuzz(opts);
    }
    {
        ScopedJobs j("4");
        r4 = runFuzz(opts);
    }
    ASSERT_TRUE(r1.failed);
    ASSERT_TRUE(r4.failed);
    // Seed 23 is program index 22; it fails on its first panel point,
    // so exactly 22*4 + 1 runs are counted — the serial
    // break-at-first-failure number, for any job count.
    EXPECT_EQ(r1.runs, 22u * 4u + 1u);
    EXPECT_EQ(r1.runs, r4.runs);
    EXPECT_EQ(r1.truncated, r4.truncated);
    EXPECT_EQ(r1.failures, 1u);
    EXPECT_EQ(r4.failures, 1u);
    EXPECT_EQ(r1.failure.seed, 23u);
    EXPECT_EQ(r4.failure.seed, 23u);
    EXPECT_EQ(r1.failure.configLabel, r4.failure.configLabel);
    EXPECT_EQ(r1.failure.fingerprint, r4.failure.fingerprint);
    EXPECT_TRUE(r1.coverage == r4.coverage);
    remove(opts.reproPath.c_str());
}

TEST(GuidedFuzz, RepeatedFailuresDedupeByFingerprint)
{
    FuzzOptions opts = smallCampaign();
    opts.guided = true;
    opts.seeds = 12;
    opts.firstSeed = 50;
    opts.minimize = false;
    opts.onlyConfig = "base;integ.mode=off";
    // Every run fails the same way: one unique failure, full budget.
    opts.testFailure = [](const Program &, u64, const std::string &) {
        return std::string("value");
    };

    FuzzResult r1, r4;
    {
        ScopedJobs j("1");
        r1 = runFuzz(opts);
    }
    {
        ScopedJobs j("4");
        r4 = runFuzz(opts);
    }
    ASSERT_TRUE(r1.failed);
    EXPECT_EQ(r1.runs, 12u) << "guided campaigns run the whole budget";
    EXPECT_EQ(r1.failures, 12u);
    EXPECT_EQ(r1.uniqueFailures, 1u);
    EXPECT_EQ(r1.failure.seed, 50u);

    EXPECT_EQ(r1.runs, r4.runs);
    EXPECT_EQ(r1.failures, r4.failures);
    EXPECT_EQ(r1.uniqueFailures, r4.uniqueFailures);
    EXPECT_EQ(r1.failure.seed, r4.failure.seed);
    EXPECT_EQ(r1.failure.fingerprint, r4.failure.fingerprint);
    remove(opts.reproPath.c_str());
}

TEST(GuidedFuzz, DistinctKindsAreDistinctFailures)
{
    FuzzOptions opts = smallCampaign();
    opts.guided = true;
    opts.seeds = 8;
    opts.firstSeed = 1;
    opts.minimize = false;
    opts.onlyConfig = "base;integ.mode=off";
    opts.testFailure = [](const Program &, u64 seed,
                          const std::string &) -> std::string {
        return seed % 2 ? "value" : "pc-stream";
    };

    const FuzzResult res = runFuzz(opts);
    ASSERT_TRUE(res.failed);
    EXPECT_EQ(res.failures, 8u);
    EXPECT_EQ(res.uniqueFailures, 2u);
    // First failure in program order, regardless of dedupe.
    EXPECT_EQ(res.failure.seed, 1u);
    EXPECT_EQ(res.failure.report.kind, "value");
    remove(opts.reproPath.c_str());
}

TEST(FaultBuild, MinimizerPreservesFailureKind)
{
    if (!buildHasInjectedFault())
        GTEST_SKIP() << "needs -DRIX_FAULT_INJECT=ON";

    FuzzOptions opts = smallCampaign();
    opts.seeds = 10;
    opts.reproPath = ::testing::TempDir() + "fuzz_cov_fault_repro.txt";

    const FuzzResult res = runFuzz(opts);
    ASSERT_TRUE(res.failed);
    // The minimizer only accepts candidates that reproduce the
    // original failure kind, and the confirmation run re-verifies the
    // shrunken program.
    EXPECT_EQ(res.failure.minimizedReport.kind, res.failure.report.kind);
    EXPECT_GT(res.failure.minimizeRuns, 0u);
    EXPECT_GT(res.failure.liveInsts, 0u);

    // The reproducer records both kinds.
    FILE *f = fopen(res.reproFile.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    fclose(f);
    EXPECT_NE(text.find("# failure kind: "), std::string::npos);
    EXPECT_NE(text.find("# minimized failure kind: "), std::string::npos);
    EXPECT_NE(text.find("# fingerprint: "), std::string::npos);
    remove(res.reproFile.c_str());
}
