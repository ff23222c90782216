/**
 * @file
 * Regression-gate tests: `rix compare` exit-code classification over
 * synthetic stores — clean (0), simulated-field divergence (2), and
 * operational errors (3). Wall time never decides the verdict.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "store/compare.hh"
#include "store/result_store.hh"

using namespace rix;

namespace
{

std::string
tmpPath(const char *tag)
{
    return ::testing::TempDir() + "rix_cmp_" + tag + "_" +
           std::to_string(getpid()) + ".rixstore";
}

StoreMeta
gateMeta(const char *rev)
{
    StoreMeta m;
    m.kind = StoreKind::Sweep;
    m.gitRev = rev;
    m.specName = "gate";
    m.specHash = 0xfeedfacecafef00dull;
    m.scale = 1;
    m.workloadsCsv = "mcf,twolf";
    m.numJobs = 4;
    m.specText = "{}";
    return m;
}

StoreRecord
gateRecord(u64 i, double wallScale = 1.0, u64 counterNudge = 0)
{
    StoreRecord r;
    r.jobIndex = i;
    r.configLabel = i % 2 ? "reverse" : "base";
    r.result.status = JobStatus::Ok;
    r.result.wallSeconds = 0.1 * double(i + 1) * wallScale;
    r.result.report.workload = i < 2 ? "mcf" : "twolf";
    r.result.report.halted = true;
    r.result.report.l1dMisses = 500 + i;
    r.result.report.core.cycles = 100000 + i;
    r.result.report.core.retired = 80000 + i;
    r.result.report.core.misintegrations = 11 * i + counterNudge;
    return r;
}

/** Build a store at a fresh path; records configured per test. */
std::string
buildStore(const char *tag, const char *rev, double wallScale = 1.0,
           u64 counterNudge = 0, u64 numRecords = 4)
{
    const std::string path = tmpPath(tag);
    ::remove(path.c_str());
    std::string err;
    auto store = ResultStore::create(path, gateMeta(rev), &err);
    EXPECT_NE(store, nullptr) << err;
    for (u64 i = 0; i < numRecords; ++i)
        EXPECT_EQ(store->append(gateRecord(i, wallScale, counterNudge)),
                  "");
    return path;
}

} // namespace

TEST(Compare, IdenticalStoresExitZero)
{
    const std::string a = buildStore("id_a", "aaaaaaa");
    const std::string b = buildStore("id_b", "bbbbbbb");
    EXPECT_EQ(compareStores(a, b, CompareOptions{}), 0);

    // Same counters at 10x the wall time: still identical.
    const std::string slow = buildStore("id_slow", "ccccccc", 10.0);
    EXPECT_EQ(compareStores(a, slow, CompareOptions{}), 0);
    ::remove(a.c_str());
    ::remove(b.c_str());
    ::remove(slow.c_str());
}

TEST(Compare, SimulatedFieldDivergenceExitTwo)
{
    const std::string a = buildStore("dv_a", "aaaaaaa");
    // One counter nudged, with massive wall drift alongside.
    const std::string b = buildStore("dv_b", "bbbbbbb", 10.0, 1);

    EXPECT_EQ(compareStores(a, b, CompareOptions{}), 2);
    ::remove(a.c_str());
    ::remove(b.c_str());
}

TEST(Compare, SubstrateCounterDivergenceDetected)
{
    const std::string a = buildStore("sub_a", "aaaaaaa");
    const std::string b = tmpPath("sub_b");
    ::remove(b.c_str());
    std::string err;
    auto store = ResultStore::create(b, gateMeta("bbbbbbb"), &err);
    ASSERT_NE(store, nullptr) << err;
    for (u64 i = 0; i < 4; ++i) {
        StoreRecord r = gateRecord(i);
        if (i == 2)
            r.result.report.dtlbMisses = 99999; // not in CoreStats
        ASSERT_EQ(store->append(r), "");
    }
    store.reset();
    EXPECT_EQ(compareStores(a, b, CompareOptions{}), 2);
    ::remove(a.c_str());
    ::remove(b.c_str());
}

TEST(Compare, MissingJobsCompareIntersectionUnlessCompleteRequired)
{
    const std::string a = buildStore("mi_a", "aaaaaaa");
    const std::string b = buildStore("mi_b", "bbbbbbb", 1.0, 0,
                                     /*numRecords=*/2);

    // Intersection (jobs 0..1) is identical: clean.
    EXPECT_EQ(compareStores(a, b, CompareOptions{}), 0);

    CompareOptions strict;
    strict.requireComplete = true;
    EXPECT_EQ(compareStores(a, b, strict), 3);
    ::remove(a.c_str());
    ::remove(b.c_str());
}

TEST(Compare, OperationalErrorsExitThree)
{
    const std::string a = buildStore("op_a", "aaaaaaa");

    // Unreadable candidate.
    EXPECT_EQ(compareStores(a, tmpPath("op_missing"), CompareOptions{}), 3);

    // Mismatched sweep identity.
    const std::string other = tmpPath("op_other");
    ::remove(other.c_str());
    StoreMeta m = gateMeta("bbbbbbb");
    m.specHash ^= 1;
    std::string err;
    auto store = ResultStore::create(other, m, &err);
    ASSERT_NE(store, nullptr) << err;
    store.reset();
    EXPECT_EQ(compareStores(a, other, CompareOptions{}), 3);

    // Nothing journaled ok on one side: nothing to compare.
    const std::string empty = tmpPath("op_empty");
    ::remove(empty.c_str());
    auto e = ResultStore::create(empty, gateMeta("ccccccc"), &err);
    ASSERT_NE(e, nullptr) << err;
    e.reset();
    EXPECT_EQ(compareStores(a, empty, CompareOptions{}), 3);

    // Failed records are not comparable material either.
    const std::string failed = tmpPath("op_failed");
    ::remove(failed.c_str());
    auto f = ResultStore::create(failed, gateMeta("ddddddd"), &err);
    ASSERT_NE(f, nullptr) << err;
    for (u64 i = 0; i < 4; ++i) {
        StoreRecord r = gateRecord(i);
        r.result.status = JobStatus::Crash;
        r.result.error = "injected";
        ASSERT_EQ(f->append(r), "");
    }
    f.reset();
    EXPECT_EQ(compareStores(a, failed, CompareOptions{}), 3);

    ::remove(a.c_str());
    ::remove(other.c_str());
    ::remove(empty.c_str());
    ::remove(failed.c_str());
}
