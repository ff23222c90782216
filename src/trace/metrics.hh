/**
 * @file
 * Interval time-series metrics: periodic CoreStats-delta sampling.
 *
 * End-of-run aggregates can't show *when* a configuration wins — a
 * burst of misintegrations in one phase looks identical to a uniform
 * trickle. The recorder takes the run's report (collectReport: the
 * full CoreStats block plus the substrate miss counters) every N
 * simulated cycles and keeps the per-interval deltaReports; each
 * interval renders as one StatRegistry row (JSON lines), so the time
 * series uses the exact same column names as the end-of-run export and
 * the rows sum to the aggregate counters (enforced by
 * tests/test_trace.cc).
 *
 * The core knows nothing of it: SimContext runs the core in chunks
 * that end on interval boundaries and samples between them, so
 * metrics cost nothing per cycle and never touch simulated state.
 *
 * Spec block (scenario JSON; `rix trace --metrics-every N` is the
 * command-line form):
 *
 *   "metrics": { "every": 10000, "out": "metrics.jsonl" }
 *
 * "every" must be a strictly positive integer (0 or garbage: fatal).
 */

#ifndef RIX_TRACE_METRICS_HH
#define RIX_TRACE_METRICS_HH

#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace rix
{

class StatRegistry;

/**
 * Accumulates one run's interval deltas. Single-run, single-thread
 * (each SimJob owns its own); begin() re-arms it, so a retried job
 * attempt starts a fresh series.
 */
class MetricsRecorder
{
  public:
    explicit MetricsRecorder(u64 every);

    u64 every() const { return every_; }

    struct Interval
    {
        u64 cycleStart = 0;
        u64 cycleEnd = 0; // exclusive
        SimReport delta;  // deltaReport over [start, end)
    };

    /** Re-arm at the report @p now: deltas accumulate from here. */
    void begin(const SimReport &now);

    /**
     * Close the interval ending at the report @p now. A no-op when no
     * cycles elapsed since the previous sample (run-exit flush after
     * an exact boundary sample).
     */
    void sample(const SimReport &now);

    const std::vector<Interval> &intervals() const { return rows_; }

    /**
     * Append one row per interval to @p reg, labeled with the caller's
     * (label, value) pairs plus "interval"; stats are the CoreStats
     * export of the delta plus cycle_start/cycle_end and the five miss
     * deltas — the same names as the end-of-run report columns.
     */
    void exportRows(
        StatRegistry &reg,
        const std::vector<std::pair<std::string, std::string>> &labels)
        const;

    /**
     * Render the rows as JSON lines into @p path.
     * @return false with *err set on I/O failure.
     */
    bool writeJsonl(
        const std::string &path,
        const std::vector<std::pair<std::string, std::string>> &labels,
        std::string *err) const;

  private:
    u64 every_;
    SimReport prev_;
    std::vector<Interval> rows_;
};

/** Metrics block of a scenario spec / the `rix trace` flags. */
struct MetricsConfig
{
    bool enabled = false;
    u64 every = 10'000;     // simulated cycles per interval
    std::string out = "rix_metrics.jsonl";
};

} // namespace rix

#endif // RIX_TRACE_METRICS_HH
