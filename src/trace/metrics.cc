#include "trace/metrics.hh"

#include "base/log.hh"

namespace rix
{

MetricsRecorder::MetricsRecorder(u64 every) : every_(every)
{
    if (!every_)
        rix_fatal("MetricsRecorder: interval must be positive");
}

void
MetricsRecorder::begin(const SimReport &now)
{
    prev_ = now;
    rows_.clear();
}

void
MetricsRecorder::sample(const SimReport &now)
{
    if (now.core.cycles == prev_.core.cycles)
        return; // exact-boundary flush: nothing elapsed
    rows_.push_back(
        {prev_.core.cycles, now.core.cycles, deltaReport(now, prev_)});
    prev_ = now;
}

void
MetricsRecorder::exportRows(
    StatRegistry &reg,
    const std::vector<std::pair<std::string, std::string>> &labels) const
{
    for (size_t i = 0; i < rows_.size(); ++i) {
        const Interval &iv = rows_[i];
        StatRegistry::Row &row = reg.addRow();
        for (const auto &kv : labels)
            row.label(kv.first, kv.second);
        row.label("interval", std::to_string(i));
        iv.delta.core.exportTo(row.stats);
        row.stats.set("cycle_start", double(iv.cycleStart));
        row.stats.set("cycle_end", double(iv.cycleEnd));
        row.stats.set("l1d_misses", double(iv.delta.l1dMisses));
        row.stats.set("l1i_misses", double(iv.delta.l1iMisses));
        row.stats.set("l2_misses", double(iv.delta.l2Misses));
        row.stats.set("dtlb_misses", double(iv.delta.dtlbMisses));
        row.stats.set("itlb_misses", double(iv.delta.itlbMisses));
    }
}

bool
MetricsRecorder::writeJsonl(
    const std::string &path,
    const std::vector<std::pair<std::string, std::string>> &labels,
    std::string *err) const
{
    StatRegistry reg;
    exportRows(reg, labels);
    FILE *f = fopen(path.c_str(), "w");
    if (!f) {
        if (err)
            *err = "cannot open metrics output '" + path + "'";
        return false;
    }
    reg.writeJsonLines(f);
    const bool ok = fflush(f) == 0 && !ferror(f);
    fclose(f);
    if (!ok && err)
        *err = "write failed on metrics output '" + path + "'";
    return ok;
}

} // namespace rix
