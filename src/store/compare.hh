/**
 * @file
 * `rix compare` — the regression gate over two journaled sweeps.
 *
 * Two result stores of the *same* sweep (equal spec hash, so their
 * job indices line up) produced by two revisions must agree
 * bit-identically per job in every simulated field: the raw CoreStats
 * counters, the substrate miss counters and the halted flag. Wall time
 * is host noise and is not compared; timing lives in benchmark/
 * (`benchmark/run.py --ab`).
 *
 * Exit codes: 0 identical, 2 simulated-field divergence, 3 operational
 * error (unreadable or mismatched stores, no comparable jobs,
 * --require-complete unmet).
 */

#ifndef RIX_STORE_COMPARE_HH
#define RIX_STORE_COMPARE_HH

#include <string>

namespace rix
{

struct CompareOptions
{
    /** Demand every expanded job journaled ok in both stores;
     *  otherwise only the intersection is compared. */
    bool requireComplete = false;
};

/**
 * Diff the sweeps journaled at @p path_a (baseline) and @p path_b
 * (candidate), writing diagnostics to stderr.
 * @return the process exit code (see file comment).
 */
int compareStores(const std::string &path_a, const std::string &path_b,
                  const CompareOptions &opts);

} // namespace rix

#endif // RIX_STORE_COMPARE_HH
