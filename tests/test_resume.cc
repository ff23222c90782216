/**
 * @file
 * Durable sweep execution tests: journaled runs, resume from a
 * partial (torn) store re-running exactly the missing jobs with
 * bit-identical merged results — full and sampled specs — plus the
 * kill-9-mid-sweep drill the store exists for.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "sim/scenario.hh"
#include "store/result_store.hh"
#include "store/sweep_store.hh"

using namespace rix;

namespace
{

constexpr const char *plainSpec =
    "{\"name\": \"resume_unit\", \"workloads\": [\"mcf\", \"twolf\"],"
    " \"scale\": 1, \"max_retired\": 200000, \"max_cycles\": 2000000,"
    " \"render\": \"jsonl\","
    " \"configs\": [{\"label\": \"base\", \"set\": {}},"
    "  {\"label\": \"reverse\","
    "   \"set\": {\"integ.mode\": \"reverse\"}}]}";

constexpr const char *sampledSpec =
    "{\"name\": \"resume_sampled\", \"workloads\": [\"mcf\"],"
    " \"scale\": 1, \"render\": \"jsonl\","
    " \"configs\": [{\"label\": \"base\","
    "   \"set\": {\"integ.mode\": \"off\"}},"
    "  {\"label\": \"reverse\","
    "   \"set\": {\"integ.mode\": \"reverse\"}}],"
    " \"sampling\": {\"fast_forward\": 20000, \"warmup\": 2000,"
    "  \"measure\": 8000, \"repeat\": 2}}";

constexpr const char *sampledTwoSpec =
    "{\"name\": \"resume_sampled_two\","
    " \"workloads\": [\"twolf\", \"mcf\"],"
    " \"scale\": 1, \"render\": \"jsonl\","
    " \"configs\": [{\"label\": \"base\","
    "   \"set\": {\"integ.mode\": \"off\"}},"
    "  {\"label\": \"reverse\","
    "   \"set\": {\"integ.mode\": \"reverse\"}}],"
    " \"sampling\": {\"fast_forward\": 20000, \"warmup\": 2000,"
    "  \"measure\": 8000, \"repeat\": 2}}";

class ResumeTest : public ::testing::Test
{
  protected:
    void SetUp() override { setenv("RIX_JOBS", "2", 1); }
    void TearDown() override { unsetenv("RIX_JOBS"); }
};

std::string
tmpStore(const char *tag)
{
    return ::testing::TempDir() + "rix_resume_" + tag + "_" +
           std::to_string(getpid()) + ".rixstore";
}

/** Everything simulated, bit for bit; wall time deliberately not. */
void
expectSimIdentical(const SimJobResult &a, const SimJobResult &b,
                   const char *what, size_t i)
{
    EXPECT_EQ(a.status, b.status) << what << " job " << i;
    EXPECT_EQ(a.report.workload, b.report.workload)
        << what << " job " << i;
    EXPECT_EQ(a.report.halted, b.report.halted) << what << " job " << i;
    EXPECT_EQ(0, memcmp(&a.report.core, &b.report.core,
                        sizeof(CoreStats)))
        << what << " job " << i << " CoreStats differ";
    EXPECT_EQ(a.report.l1dMisses, b.report.l1dMisses)
        << what << " job " << i;
    EXPECT_EQ(a.report.l1iMisses, b.report.l1iMisses)
        << what << " job " << i;
    EXPECT_EQ(a.report.l2Misses, b.report.l2Misses)
        << what << " job " << i;
    EXPECT_EQ(a.report.dtlbMisses, b.report.dtlbMisses)
        << what << " job " << i;
    EXPECT_EQ(a.report.itlbMisses, b.report.itlbMisses)
        << what << " job " << i;
}

/** Merged sampled points (rows and rollups), bit for bit. */
void
expectMergedIdentical(const ScenarioResults &a, const ScenarioResults &b,
                      const char *what)
{
    ASSERT_EQ(a.jobs.size(), b.jobs.size()) << what;
    for (size_t i = 0; i < a.jobs.size(); ++i)
        expectSimIdentical(a.jobs[i], b.jobs[i], what, i);
    ASSERT_EQ(a.sampled.size(), b.sampled.size()) << what;
    for (size_t i = 0; i < a.sampled.size(); ++i) {
        EXPECT_EQ(a.sampled[i].measuredInsts, b.sampled[i].measuredInsts)
            << what << " point " << i;
        EXPECT_EQ(a.sampled[i].measuredCycles,
                  b.sampled[i].measuredCycles)
            << what << " point " << i;
        EXPECT_EQ(a.sampled[i].totalInsts, b.sampled[i].totalInsts)
            << what << " point " << i;
        EXPECT_EQ(a.sampled[i].exact, b.sampled[i].exact)
            << what << " point " << i;
    }
}

size_t
fileSize(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 ? size_t(st.st_size) : 0;
}

/** Truncate a copy of @p path holding @p keepRecords records, plus
 *  @p garbageBytes of torn tail, at @p copy. */
void
truncatedCopy(const std::string &path, const std::string &copy,
              size_t keepRecords, size_t garbageBytes)
{
    FILE *f = fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string data;
    char buf[4096];
    size_t n;
    while ((n = fread(buf, 1, sizeof(buf), f)) > 0)
        data.append(buf, n);
    fclose(f);

    u32 metaLen;
    memcpy(&metaLen, data.data() + 12, 4);
    size_t off = 12 + 8 + metaLen;
    for (size_t i = 0; i < keepRecords; ++i) {
        ASSERT_LT(off, data.size());
        u32 len;
        memcpy(&len, data.data() + off, 4);
        off += 8 + len;
    }
    std::string cut = data.substr(0, off);
    for (size_t i = 0; i < garbageBytes; ++i)
        cut += char(0x5a ^ int(i));

    FILE *o = fopen(copy.c_str(), "wb");
    ASSERT_NE(o, nullptr);
    ASSERT_EQ(fwrite(cut.data(), 1, cut.size(), o), cut.size());
    fclose(o);
}

} // namespace

TEST_F(ResumeTest, JournaledRunMatchesPlainRun)
{
    const ScenarioSpec spec = parseScenario(plainSpec);
    const FaultPolicy policy;
    const ScenarioResults plain = runScenario(spec, policy);

    const std::string path = tmpStore("journal");
    ::remove(path.c_str());
    std::string err;
    auto store =
        ResultStore::create(path, makeSweepMeta(plainSpec, spec), &err);
    ASSERT_NE(store, nullptr) << err;
    const ScenarioResults stored = runScenario(spec, policy, store.get());

    ASSERT_EQ(stored.jobs.size(), plain.jobs.size());
    for (size_t i = 0; i < plain.jobs.size(); ++i)
        expectSimIdentical(plain.jobs[i], stored.jobs[i], "journaled", i);

    // Every ok job landed in the journal, keyed by expansion index.
    // Records appear in *retirement* order (parallel pool), so assert
    // against the index, not the file position: config-minor over two
    // configs means even indices are "base", odd are "reverse".
    ASSERT_EQ(store->records().size(), 4u);
    std::vector<bool> seen(4, false);
    for (const StoreRecord &r : store->records()) {
        ASSERT_LT(r.jobIndex, 4u);
        EXPECT_FALSE(seen[r.jobIndex]);
        seen[r.jobIndex] = true;
        expectSimIdentical(r.result,
                           stored.jobs[r.jobIndex], "record", r.jobIndex);
        EXPECT_EQ(r.configLabel,
                  r.jobIndex % 2 ? "reverse" : "base");
    }
    ::remove(path.c_str());
}

TEST_F(ResumeTest, PartialStoreResumesBitIdentical)
{
    const ScenarioSpec spec = parseScenario(plainSpec);
    const FaultPolicy policy;

    const std::string full = tmpStore("full");
    ::remove(full.c_str());
    std::string err;
    auto store =
        ResultStore::create(full, makeSweepMeta(plainSpec, spec), &err);
    ASSERT_NE(store, nullptr) << err;
    const ScenarioResults ref = runScenario(spec, policy, store.get());
    store.reset();

    // Crash facsimile: only job 0's record survived, then 5 torn
    // bytes. Resume must drop the tail, reuse job 0 verbatim, re-run
    // jobs 1..3, and merge bit-identically.
    const std::string part = tmpStore("part");
    truncatedCopy(full, part, 1, 5);
    ResultStore::Recovery rec;
    auto resumed = ResultStore::openForAppend(part, &err, &rec);
    ASSERT_NE(resumed, nullptr) << err;
    EXPECT_EQ(rec.validRecords, 1u);
    EXPECT_EQ(rec.droppedBytes, 5u);
    // Records land in retirement order, so the surviving record is
    // whichever job the parallel pool journaled first.
    const size_t kept = resumed->records()[0].jobIndex;

    const ScenarioResults res = runScenario(spec, policy, resumed.get());
    ASSERT_EQ(res.jobs.size(), ref.jobs.size());
    for (size_t i = 0; i < ref.jobs.size(); ++i)
        expectSimIdentical(ref.jobs[i], res.jobs[i], "resumed", i);
    // The journaled job was not re-simulated: its stored wall time —
    // physically unreproducible otherwise — came back verbatim.
    EXPECT_EQ(res.jobs[kept].wallSeconds, ref.jobs[kept].wallSeconds);

    // And the store is now complete: a second resume runs nothing.
    resumed.reset();
    auto again = ResultStore::openForAppend(part, &err);
    ASSERT_NE(again, nullptr) << err;
    ASSERT_EQ(again->records().size(), 4u);
    const ScenarioResults res2 = runScenario(spec, policy, again.get());
    for (size_t i = 0; i < ref.jobs.size(); ++i) {
        expectSimIdentical(ref.jobs[i], res2.jobs[i], "re-resumed", i);
        EXPECT_EQ(res2.jobs[i].wallSeconds, res.jobs[i].wallSeconds);
    }
    ::remove(full.c_str());
    ::remove(part.c_str());
}

// `rix run --scale 2 --store` on a scale-1 spec journals the
// overridden scale; `rix resume` must re-expand at that scale, not the
// spec text's own.
TEST_F(ResumeTest, OverriddenScaleResumesAtThatScale)
{
    ScenarioSpec spec = parseScenario(plainSpec);
    ASSERT_EQ(spec.scale, 1u);
    spec.scale = 2;
    const FaultPolicy policy;
    const ScenarioResults ref = runScenario(spec, policy);

    const std::string full = tmpStore("scale_full");
    ::remove(full.c_str());
    std::string err;
    auto store =
        ResultStore::create(full, makeSweepMeta(plainSpec, spec), &err);
    ASSERT_NE(store, nullptr) << err;
    EXPECT_EQ(store->meta().scale, 2u);
    runScenario(spec, policy, store.get());
    store.reset();

    // Journal only one job; resume runs the other three.
    const std::string part = tmpStore("scale_part");
    truncatedCopy(full, part, 1, 0);
    char *buf = nullptr;
    size_t len = 0;
    FILE *out = open_memstream(&buf, &len);
    ASSERT_EQ(resumeStoreFile(part, out, policy), 0);
    fclose(out);
    const std::string doc(buf, len);
    free(buf);

    auto resumed = ResultStore::openForAppend(part, &err);
    ASSERT_NE(resumed, nullptr) << err;
    ASSERT_EQ(resumed->records().size(), ref.jobs.size());
    for (const StoreRecord &r : resumed->records())
        expectSimIdentical(ref.jobs[r.jobIndex], r.result, "scale-2",
                           r.jobIndex);

    // Every rendered row reports scale 2.
    size_t rows = 0;
    for (size_t b = 0; b < doc.size(); ++rows) {
        const size_t e = doc.find('\n', b);
        ASSERT_NE(e, std::string::npos);
        std::string perr;
        const JsonValue row = JsonValue::parse(doc.substr(b, e - b), &perr);
        ASSERT_TRUE(perr.empty()) << perr;
        const JsonValue *scale = row.find("scale");
        ASSERT_NE(scale, nullptr);
        EXPECT_EQ(scale->asNumber(), 2.0);
        b = e + 1;
    }
    EXPECT_EQ(rows, ref.jobs.size());
    ::remove(full.c_str());
    ::remove(part.c_str());
}

TEST_F(ResumeTest, SampledSpecResumesBitIdentical)
{
    const ScenarioSpec spec = parseScenario(sampledSpec);
    ASSERT_EQ(spec.sampling.intervals.size(), 2u);
    const FaultPolicy policy;

    const std::string full = tmpStore("sampled_full");
    ::remove(full.c_str());
    std::string err;
    auto store = ResultStore::create(
        full, makeSweepMeta(sampledSpec, spec), &err);
    ASSERT_NE(store, nullptr) << err;
    const ScenarioResults ref = runScenario(spec, policy, store.get());
    store.reset();
    ASSERT_TRUE(ref.isSampled());
    ASSERT_EQ(ref.intervalJobs.size(), 4u); // 2 configs x 2 intervals
    ASSERT_EQ(ref.jobs.size(), 2u);         // merged points

    // Keep only the first interval record: the resumed run re-runs
    // the other three intervals and the *merged* rollup must come out
    // bit-identical — the acceptance contract for sampled sweeps.
    const std::string part = tmpStore("sampled_part");
    truncatedCopy(full, part, 1, 3);
    ResultStore::Recovery rec;
    auto resumed = ResultStore::openForAppend(part, &err, &rec);
    ASSERT_NE(resumed, nullptr) << err;
    EXPECT_EQ(rec.validRecords, 1u);

    const ScenarioResults res = runScenario(spec, policy, resumed.get());
    ASSERT_TRUE(res.isSampled());
    ASSERT_EQ(res.intervalJobs.size(), ref.intervalJobs.size());
    for (size_t i = 0; i < ref.intervalJobs.size(); ++i)
        expectSimIdentical(ref.intervalJobs[i], res.intervalJobs[i],
                           "interval", i);
    expectMergedIdentical(ref, res, "merged");
    ::remove(full.c_str());
    ::remove(part.c_str());

    // Two workloads, every job of the first already journaled: the
    // resume prepares checkpoints for the second alone (the parallel
    // preparation on RIX_JOBS=2) and must merge bit-identically to an
    // uninterrupted serial run.
    const ScenarioSpec two = parseScenario(sampledTwoSpec);
    setenv("RIX_JOBS", "1", 1);
    const ScenarioResults serial = runScenario(two, policy);
    setenv("RIX_JOBS", "2", 1);
    ASSERT_EQ(serial.intervalJobs.size(), 8u); // 2 x 2 configs x 2

    const std::string twoPart = tmpStore("sampled_two");
    ::remove(twoPart.c_str());
    auto twoStore = ResultStore::create(
        twoPart, makeSweepMeta(sampledTwoSpec, two), &err);
    ASSERT_NE(twoStore, nullptr) << err;
    for (size_t i = 0; i < 4; ++i) {
        StoreRecord r;
        r.jobIndex = i;
        r.configLabel = scenarioJobConfigLabel(two, i);
        r.result = serial.intervalJobs[i];
        ASSERT_EQ(r.result.report.workload, "twolf");
        ASSERT_EQ(twoStore->append(r), "");
    }
    const ScenarioResults twoRes = runScenario(two, policy, twoStore.get());
    expectMergedIdentical(serial, twoRes, "two-workload merged");
    EXPECT_EQ(twoStore->records().size(), 8u);
    ::remove(twoPart.c_str());
}

TEST_F(ResumeTest, MismatchedStoreIsFatal)
{
    const ScenarioSpec spec = parseScenario(plainSpec);
    const FaultPolicy policy;

    // Job-count mismatch: a store of a different expansion.
    const std::string path = tmpStore("mismatch");
    ::remove(path.c_str());
    StoreMeta meta = makeSweepMeta(plainSpec, spec);
    meta.numJobs = 7;
    std::string err;
    auto store = ResultStore::create(path, meta, &err);
    ASSERT_NE(store, nullptr) << err;
    EXPECT_EXIT(runScenario(spec, policy, store.get()),
                ::testing::ExitedWithCode(1), "expands to 4");
    ::remove(path.c_str());

    // A serve journal is not a sweep store.
    StoreMeta serveMeta;
    serveMeta.kind = StoreKind::Serve;
    serveMeta.specName = "serve";
    auto journal = ResultStore::create(path, serveMeta, &err);
    ASSERT_NE(journal, nullptr) << err;
    EXPECT_EXIT(runScenario(spec, policy, journal.get()),
                ::testing::ExitedWithCode(1), "serve journal");
    ::remove(path.c_str());
}

// The drill the subsystem exists for: a journaled sweep killed with
// SIGKILL at a random point mid-run, resumed in a fresh process
// (facsimile: this one), finishing with results bit-identical to an
// uninterrupted reference run.
TEST_F(ResumeTest, Kill9MidSweepResumeFinishesBitIdentical)
{
    const ScenarioSpec spec = parseScenario(plainSpec);
    const FaultPolicy policy;
    const ScenarioResults ref = runScenario(spec, policy);

    const std::string path = tmpStore("kill9");
    ::remove(path.c_str());

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // Child: serial journaled run, no gtest machinery, hard exit.
        setenv("RIX_JOBS", "1", 1);
        std::string err;
        auto store = ResultStore::create(
            path, makeSweepMeta(plainSpec, spec), &err);
        if (!store)
            _exit(97);
        runScenario(spec, policy, store.get());
        _exit(0);
    }

    // Parent: the moment the first record is durable, kill -9. The
    // child may occasionally finish first — then the kill is a no-op
    // and the resume degenerates to a re-render, still asserted
    // identical.
    const size_t headerFloor = 12; // magic + version; records follow
    for (int spin = 0; spin < 5000; ++spin) {
        if (fileSize(path) > headerFloor + 600)
            break;
        usleep(1000);
    }
    kill(child, SIGKILL);
    int wstatus = 0;
    ASSERT_EQ(waitpid(child, &wstatus, 0), child);
    ASSERT_TRUE(WIFSIGNALED(wstatus) || WIFEXITED(wstatus));
    if (WIFEXITED(wstatus)) {
        ASSERT_EQ(WEXITSTATUS(wstatus), 0);
    }

    std::string err;
    ResultStore::Recovery rec;
    auto store = ResultStore::openForAppend(path, &err, &rec);
    ASSERT_NE(store, nullptr) << "store unrecoverable after kill -9: "
                              << err;
    ASSERT_LE(store->records().size(), 4u);

    const ScenarioResults res = runScenario(spec, policy, store.get());
    ASSERT_EQ(res.jobs.size(), ref.jobs.size());
    for (size_t i = 0; i < ref.jobs.size(); ++i)
        expectSimIdentical(ref.jobs[i], res.jobs[i], "killed+resumed", i);
    ASSERT_EQ(store->records().size(), 4u);
    ::remove(path.c_str());
}

// File-level acceptance: `rix run --store` then `rix resume` of the
// completed store renders a byte-identical document (stored wall
// times included — nothing is re-simulated).
TEST_F(ResumeTest, ResumeOfCompleteStoreRendersIdenticalDocument)
{
    const std::string path = tmpStore("render");
    ::remove(path.c_str());
    const FaultPolicy policy;

    char *bufA = nullptr, *bufB = nullptr;
    size_t lenA = 0, lenB = 0;
    FILE *outA = open_memstream(&bufA, &lenA);
    ASSERT_EQ(runScenarioFileStored(plainSpec, parseScenario(plainSpec),
                                    path, outA, policy),
              0);
    fclose(outA);

    FILE *outB = open_memstream(&bufB, &lenB);
    ResumeOptions opts;
    opts.ignoreRev = true; // store rev == build rev here, but explicit
    ASSERT_EQ(resumeStoreFile(path, outB, policy, opts), 0);
    fclose(outB);

    EXPECT_EQ(std::string(bufA, lenA), std::string(bufB, lenB));
    EXPECT_GT(lenA, 0u);
    free(bufA);
    free(bufB);
    ::remove(path.c_str());
}
