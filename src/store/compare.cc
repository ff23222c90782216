#include "store/compare.hh"

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "sim/simulator.hh"
#include "store/result_store.hh"

namespace rix
{

namespace
{

/** Per-store view: the last ok record per job index. */
struct StoreView
{
    std::unique_ptr<ResultStore> store;
    std::vector<const StoreRecord *> byIndex; // null: not journaled ok
};

bool
loadView(const std::string &path, StoreView *v)
{
    std::string err;
    v->store = ResultStore::openReadOnly(path, &err);
    if (!v->store) {
        fprintf(stderr, "rix compare: %s\n", err.c_str());
        return false;
    }
    if (v->store->meta().kind != StoreKind::Sweep) {
        fprintf(stderr, "rix compare: '%s' is a serve journal, not a "
                        "sweep store\n", path.c_str());
        return false;
    }
    v->byIndex.assign(v->store->meta().numJobs, nullptr);
    for (const StoreRecord &r : v->store->records()) {
        if (r.jobIndex >= v->byIndex.size()) {
            fprintf(stderr, "rix compare: '%s': record for job %llu "
                            "out of range (%llu jobs)\n",
                    path.c_str(), (unsigned long long)r.jobIndex,
                    (unsigned long long)v->store->meta().numJobs);
            return false;
        }
        if (r.result.ok())
            v->byIndex[r.jobIndex] = &r;
    }
    return true;
}

/**
 * Bit-identity of everything simulated: the raw CoreStats counter
 * block (plain u64s, no padding — pinned by the static_assert in
 * core_stats.hh, so memcmp is exact), the substrate miss counters,
 * and the halted flag. Wall time is deliberately excluded: it is
 * host noise, and timing lives in benchmark/.
 */
bool
simFieldsIdentical(const SimReport &a, const SimReport &b)
{
    return memcmp(&a.core, &b.core, sizeof(CoreStats)) == 0 &&
           a.halted == b.halted && a.l1dMisses == b.l1dMisses &&
           a.l1iMisses == b.l1iMisses && a.l2Misses == b.l2Misses &&
           a.dtlbMisses == b.dtlbMisses && a.itlbMisses == b.itlbMisses;
}

/** Name up to @p limit differing stats, via the export namespace. */
std::string
describeDiff(const SimReport &a, const SimReport &b, size_t limit)
{
    StatSet sa, sb;
    exportReport(a, sa);
    exportReport(b, sb);
    std::string s;
    size_t n = 0;
    for (const auto &kv : sa.all()) {
        const double vb = sb.get(kv.first);
        if (kv.second == vb)
            continue;
        if (n++ >= limit) {
            s += " ...";
            break;
        }
        char buf[160];
        snprintf(buf, sizeof(buf), "%s %s=%.0f->%.0f",
                 n > 1 ? "," : "", kv.first.c_str(), kv.second, vb);
        s += buf;
    }
    if (a.halted != b.halted)
        s += std::string(s.empty() ? "" : ",") + " halted=" +
             (a.halted ? "1->0" : "0->1");
    return s.empty() ? " (differs)" : s;
}

} // namespace

int
compareStores(const std::string &path_a, const std::string &path_b,
              const CompareOptions &opts)
{
    StoreView a, b;
    if (!loadView(path_a, &a) || !loadView(path_b, &b))
        return 3;
    const StoreMeta &ma = a.store->meta(), &mb = b.store->meta();
    if (ma.specHash != mb.specHash) {
        fprintf(stderr,
                "rix compare: stores journal different sweeps: '%s' is "
                "spec '%s' (%016llx), '%s' is spec '%s' (%016llx)\n",
                path_a.c_str(), ma.specName.c_str(),
                (unsigned long long)ma.specHash, path_b.c_str(),
                mb.specName.c_str(), (unsigned long long)mb.specHash);
        return 3;
    }
    if (ma.numJobs != mb.numJobs) {
        // Same hash but different expansion cannot happen unless a
        // store header was hand-edited; refuse rather than index out
        // of bounds.
        fprintf(stderr, "rix compare: job counts differ (%llu vs %llu) "
                        "despite equal spec hashes\n",
                (unsigned long long)ma.numJobs,
                (unsigned long long)mb.numJobs);
        return 3;
    }

    std::vector<size_t> common;
    size_t missing = 0;
    for (size_t i = 0; i < a.byIndex.size(); ++i) {
        if (a.byIndex[i] && b.byIndex[i])
            common.push_back(i);
        else
            ++missing;
    }
    if (opts.requireComplete && missing) {
        fprintf(stderr, "rix compare: --require-complete: %zu of %llu "
                        "jobs not journaled ok in both stores\n",
                missing, (unsigned long long)ma.numJobs);
        return 3;
    }
    if (common.empty()) {
        fprintf(stderr, "rix compare: no jobs journaled ok in both "
                        "stores — nothing to compare\n");
        return 3;
    }
    if (missing)
        fprintf(stderr, "rix compare: comparing the %zu jobs common to "
                        "both stores (%zu missing from one side)\n",
                common.size(), missing);

    // Simulated fields must be bit-identical per job.
    size_t divergences = 0;
    for (size_t i : common) {
        const StoreRecord &ra = *a.byIndex[i], &rb = *b.byIndex[i];
        if (ra.result.report.workload != rb.result.report.workload) {
            fprintf(stderr, "rix compare: job %zu is workload '%s' in "
                            "'%s' but '%s' in '%s'\n",
                    i, ra.result.report.workload.c_str(), path_a.c_str(),
                    rb.result.report.workload.c_str(), path_b.c_str());
            return 3;
        }
        if (simFieldsIdentical(ra.result.report, rb.result.report))
            continue;
        if (divergences < 10)
            fprintf(stderr,
                    "rix compare: DIVERGENCE job %zu (%s, config "
                    "'%s'):%s\n",
                    i, ra.result.report.workload.c_str(),
                    ra.configLabel.c_str(),
                    describeDiff(ra.result.report, rb.result.report, 4)
                        .c_str());
        ++divergences;
    }
    if (divergences) {
        fprintf(stderr, "rix compare: %zu of %zu jobs diverge in "
                        "simulated fields (%s -> %s)\n",
                divergences, common.size(), ma.gitRev.c_str(),
                mb.gitRev.c_str());
        return 2;
    }

    fprintf(stderr, "rix compare: %zu jobs bit-identical in every "
                    "simulated field (%s -> %s)\n",
            common.size(), ma.gitRev.c_str(), mb.gitRev.c_str());
    return 0;
}

} // namespace rix
