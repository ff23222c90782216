#include "sim/scenario.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "base/log.hh"
#include "base/stats.hh"
#include "base/thread_pool.hh"
#include "sim/figures.hh"
#include "sim/sampling/checkpoint_cache.hh"
#include "sim/validate.hh"
#include "store/result_store.hh"
#include "trace/profiler.hh"
#include "workload/workload.hh"

namespace rix
{

namespace
{

// ---- value coercion -------------------------------------------------

/** Store a non-negative integral JSON number into *out. */
std::string
coerceCount(const JsonValue &v, u64 max, u64 *out)
{
    return jsonCoerceCount(v, max, out);
}

std::string
coerceU32(const JsonValue &v, unsigned *out)
{
    u64 tmp;
    const std::string err = coerceCount(v, ~u32(0), &tmp);
    if (err.empty())
        *out = unsigned(tmp);
    return err;
}

std::string
coerceBool(const JsonValue &v, bool *out)
{
    if (!v.isBool())
        return "expected true or false";
    *out = v.asBool();
    return "";
}

std::string
coerceIntegrationMode(const JsonValue &v, IntegrationMode *out)
{
    if (!v.isString())
        return "expected a mode string";
    const std::string &s = v.asString();
    if (s == "off")
        *out = IntegrationMode::Off;
    else if (s == "squash")
        *out = IntegrationMode::Squash;
    else if (s == "general" || s == "+general")
        *out = IntegrationMode::General;
    else if (s == "opcode" || s == "+opcode")
        *out = IntegrationMode::OpcodeIndexed;
    else if (s == "reverse" || s == "+reverse")
        *out = IntegrationMode::Reverse;
    else
        return "unknown integration mode '" + s +
               "' (off|squash|general|opcode|reverse)";
    return "";
}

std::string
coerceLispMode(const JsonValue &v, LispMode *out)
{
    if (!v.isString())
        return "expected a mode string";
    const std::string &s = v.asString();
    if (s == "off")
        *out = LispMode::Off;
    else if (s == "realistic")
        *out = LispMode::Realistic;
    else if (s == "oracle")
        *out = LispMode::Oracle;
    else
        return "unknown LISP mode '" + s + "' (off|realistic|oracle)";
    return "";
}

// ---- per-substructure key dispatch ----------------------------------

std::string
applyCacheKey(CacheParams &p, const std::string &field, const JsonValue &v)
{
    if (field == "size_bytes")
        return coerceU32(v, &p.sizeBytes);
    if (field == "line_bytes")
        return coerceU32(v, &p.lineBytes);
    if (field == "assoc")
        return coerceU32(v, &p.assoc);
    if (field == "hit_latency")
        return coerceCount(v, ~u64(0), &p.hitLatency);
    if (field == "mshrs")
        return coerceU32(v, &p.numMshrs);
    return "unknown cache field";
}

std::string
applyTlbKey(TlbParams &p, const std::string &field, const JsonValue &v)
{
    if (field == "entries")
        return coerceU32(v, &p.entries);
    if (field == "assoc")
        return coerceU32(v, &p.assoc);
    if (field == "page_bytes")
        return coerceU32(v, &p.pageBytes);
    if (field == "miss_latency")
        return coerceCount(v, ~u64(0), &p.missLatency);
    return "unknown TLB field";
}

std::string
applyIntegKey(IntegrationParams &p, const std::string &field,
              const JsonValue &v)
{
    if (field == "mode")
        return coerceIntegrationMode(v, &p.mode);
    if (field == "it_entries")
        return coerceU32(v, &p.itEntries);
    if (field == "it_assoc")
        return coerceU32(v, &p.itAssoc);
    if (field == "num_phys_regs")
        return coerceU32(v, &p.numPhysRegs);
    if (field == "ref_bits")
        return coerceU32(v, &p.refBits);
    if (field == "gen_bits")
        return coerceU32(v, &p.genBits);
    if (field == "lisp")
        return coerceLispMode(v, &p.lisp);
    if (field == "lisp_entries")
        return coerceU32(v, &p.lispEntries);
    if (field == "lisp_assoc")
        return coerceU32(v, &p.lispAssoc);
    if (field == "use_call_depth_index")
        return coerceBool(v, &p.useCallDepthIndex);
    if (field == "use_gen_counters")
        return coerceBool(v, &p.useGenCounters);
    if (field == "it_write_delay")
        return coerceU32(v, &p.itWriteDelay);
    return "unknown integ field";
}

std::string
applyBpredKey(BranchPredictorParams &p, const std::string &field,
              const JsonValue &v)
{
    if (field == "btb_entries")
        return coerceU32(v, &p.btbEntries);
    if (field == "btb_assoc")
        return coerceU32(v, &p.btbAssoc);
    if (field == "ras_entries")
        return coerceU32(v, &p.rasEntries);
    if (field == "bimodal_entries")
        return coerceU32(v, &p.hybrid.bimodalEntries);
    if (field == "gshare_entries")
        return coerceU32(v, &p.hybrid.gshareEntries);
    if (field == "chooser_entries")
        return coerceU32(v, &p.hybrid.chooserEntries);
    if (field == "history_bits")
        return coerceU32(v, &p.hybrid.historyBits);
    return "unknown bpred field";
}

std::string
applyMemKey(MemHierarchyParams &p, const std::string &field,
            const JsonValue &v)
{
    const size_t dot = field.find('.');
    if (dot != std::string::npos) {
        const std::string unit = field.substr(0, dot);
        const std::string sub = field.substr(dot + 1);
        if (unit == "l1i")
            return applyCacheKey(p.l1i, sub, v);
        if (unit == "l1d")
            return applyCacheKey(p.l1d, sub, v);
        if (unit == "l2")
            return applyCacheKey(p.l2, sub, v);
        if (unit == "itlb")
            return applyTlbKey(p.itlb, sub, v);
        if (unit == "dtlb")
            return applyTlbKey(p.dtlb, sub, v);
        return "unknown memory unit '" + unit + "'";
    }
    if (field == "mem_latency")
        return coerceCount(v, ~u64(0), &p.memLatency);
    if (field == "l2_bus_bytes")
        return coerceU32(v, &p.l2BusBytes);
    if (field == "l2_bus_cycles_per_beat")
        return coerceU32(v, &p.l2BusCyclesPerBeat);
    if (field == "mem_bus_bytes")
        return coerceU32(v, &p.memBusBytes);
    if (field == "mem_bus_cycles_per_beat")
        return coerceU32(v, &p.memBusCyclesPerBeat);
    return "unknown mem field";
}

/** Render a grid value for use inside a point label. */
std::string
labelValue(const JsonValue &v)
{
    switch (v.kind()) {
      case JsonValue::Kind::Bool:
        return v.asBool() ? "true" : "false";
      case JsonValue::Kind::Number:
        return jsonNumber(v.asNumber());
      case JsonValue::Kind::String:
        return v.asString();
      default:
        return v.dump();
    }
}

/** Apply every member of @p set; fatal with context on a bad key. */
void
applyOverrideSet(CoreParams &p, const JsonValue &set,
                 const std::string &where)
{
    if (!set.isObject())
        rix_fatal("scenario %s: expected an object of parameter "
                  "overrides", where.c_str());
    for (const auto &[key, value] : set.members()) {
        const std::string err = applyCoreParamOverride(p, key, value);
        if (!err.empty())
            rix_fatal("scenario %s: override '%s': %s", where.c_str(),
                      key.c_str(), err.c_str());
    }
}

} // namespace

std::string
applyCoreParamOverride(CoreParams &p, const std::string &key,
                       const JsonValue &v)
{
    const size_t dot = key.find('.');
    if (dot != std::string::npos) {
        const std::string group = key.substr(0, dot);
        const std::string field = key.substr(dot + 1);
        std::string err;
        if (group == "integ")
            err = applyIntegKey(p.integ, field, v);
        else if (group == "bpred")
            err = applyBpredKey(p.bpred, field, v);
        else if (group == "mem")
            err = applyMemKey(p.mem, field, v);
        else
            return "unknown parameter group '" + group + "'";
        return err.empty() ? "" : "'" + key + "': " + err;
    }

    if (key == "fetch_width")
        return coerceU32(v, &p.fetchWidth);
    if (key == "rename_width")
        return coerceU32(v, &p.renameWidth);
    if (key == "issue_width")
        return coerceU32(v, &p.issueWidth);
    if (key == "retire_width")
        return coerceU32(v, &p.retireWidth);
    if (key == "fetch_stages")
        return coerceU32(v, &p.fetchStages);
    if (key == "decode_stages")
        return coerceU32(v, &p.decodeStages);
    if (key == "sched_stages")
        return coerceU32(v, &p.schedStages);
    if (key == "reg_read_stages")
        return coerceU32(v, &p.regReadStages);
    if (key == "rob_size")
        return coerceU32(v, &p.robSize);
    if (key == "max_mem_ops")
        return coerceU32(v, &p.maxMemOps);
    if (key == "rs_size")
        return coerceU32(v, &p.rsSize);
    if (key == "fetch_queue_size")
        return coerceU32(v, &p.fetchQueueSize);
    if (key == "simple_int_slots")
        return coerceU32(v, &p.simpleIntSlots);
    if (key == "complex_slots")
        return coerceU32(v, &p.complexSlots);
    if (key == "load_slots")
        return coerceU32(v, &p.loadSlots);
    if (key == "store_slots")
        return coerceU32(v, &p.storeSlots);
    if (key == "shared_load_store_port")
        return coerceBool(v, &p.sharedLoadStorePort);
    if (key == "agen_latency")
        return coerceU32(v, &p.agenLatency);
    if (key == "store_forward_latency")
        return coerceU32(v, &p.storeForwardLatency);
    if (key == "write_buffer_entries")
        return coerceU32(v, &p.writeBufferEntries);
    if (key == "cht_entries")
        return coerceU32(v, &p.chtEntries);
    if (key == "squash_penalty")
        return coerceU32(v, &p.squashPenalty);
    if (key == "misint_penalty")
        return coerceU32(v, &p.misintPenalty);
    if (key == "watchdog_cycles")
        return coerceCount(v, ~u64(0), &p.watchdogCycles);
    return "unknown parameter '" + key + "'";
}

int
ScenarioSpec::configIndex(const std::string &label) const
{
    for (size_t i = 0; i < configs.size(); ++i)
        if (configs[i].label == label)
            return int(i);
    return -1;
}

ScenarioSpec
parseScenario(const std::string &json_text)
{
    std::string err;
    const JsonValue doc = JsonValue::parse(json_text, &err);
    if (!err.empty())
        rix_fatal("scenario spec: %s", err.c_str());
    if (!doc.isObject())
        rix_fatal("scenario spec: top-level value must be an object");

    static const char *const known[] = {
        "name",    "description", "workloads", "scale",  "max_retired",
        "max_cycles", "base",     "configs",   "grid",   "render",
        "sampling", "trace",      "metrics",   "profile"};
    for (const auto &[key, unused] : doc.members()) {
        (void)unused;
        bool ok = false;
        for (const char *k : known)
            ok = ok || key == k;
        if (!ok)
            rix_fatal("scenario spec: unknown top-level field '%s'",
                      key.c_str());
    }

    ScenarioSpec spec;
    if (const JsonValue *v = doc.find("name")) {
        if (!v->isString())
            rix_fatal("scenario spec: 'name' must be a string");
        spec.name = v->asString();
    }
    if (const JsonValue *v = doc.find("description")) {
        if (!v->isString())
            rix_fatal("scenario spec: 'description' must be a string");
        spec.description = v->asString();
    }
    if (const JsonValue *v = doc.find("render")) {
        if (!v->isString())
            rix_fatal("scenario spec: 'render' must be a string");
        spec.render = v->asString();
        static const char *const renders[] = {"jsonl", "csv",  "fig4",
                                              "fig5",  "fig6", "fig7"};
        bool ok = false;
        for (const char *r : renders)
            ok = ok || spec.render == r;
        if (!ok)
            rix_fatal("scenario spec: unknown render '%s' "
                      "(jsonl|csv|fig4|fig5|fig6|fig7)",
                      spec.render.c_str());
    }

    spec.workloads = workloadNames();
    if (const JsonValue *v = doc.find("workloads")) {
        if (v->isString()) {
            if (v->asString() != "all")
                rix_fatal("scenario spec: 'workloads' must be \"all\" or "
                          "an array of names");
        } else if (v->isArray()) {
            const std::vector<std::string> all = workloadNames();
            spec.workloads.clear();
            for (const JsonValue &item : v->items()) {
                if (!item.isString())
                    rix_fatal("scenario spec: 'workloads' entries must be "
                              "strings");
                const std::string &name = item.asString();
                if (std::find(all.begin(), all.end(), name) == all.end())
                    rix_fatal("scenario spec: unknown workload '%s'",
                              name.c_str());
                spec.workloads.push_back(name);
            }
            if (spec.workloads.empty())
                rix_fatal("scenario spec: 'workloads' selects nothing");
        } else {
            rix_fatal("scenario spec: 'workloads' must be \"all\" or an "
                      "array of names");
        }
    }

    if (const JsonValue *v = doc.find("scale")) {
        const std::string cerr = coerceCount(*v, ~u64(0), &spec.scale);
        if (!cerr.empty() || spec.scale == 0)
            rix_fatal("scenario spec: 'scale' must be a positive integer"
                      "%s%s", cerr.empty() ? "" : ": ", cerr.c_str());
    }

    if (const JsonValue *v = doc.find("max_retired")) {
        const std::string cerr = coerceCount(*v, ~u64(0), &spec.maxRetired);
        if (!cerr.empty() || spec.maxRetired == 0)
            rix_fatal("scenario spec: 'max_retired' must be a positive "
                      "integer%s%s", cerr.empty() ? "" : ": ",
                      cerr.c_str());
    }
    if (const JsonValue *v = doc.find("max_cycles")) {
        const std::string cerr = coerceCount(*v, ~u64(0), &spec.maxCycles);
        if (!cerr.empty() || spec.maxCycles == 0)
            rix_fatal("scenario spec: 'max_cycles' must be a positive "
                      "integer%s%s", cerr.empty() ? "" : ": ",
                      cerr.c_str());
    }

    if (const JsonValue *v = doc.find("sampling"))
        spec.sampling = parseSamplingBlock(*v);
    // The plan's detailed windows must fit inside the run the spec
    // actually simulates: a window past max_retired would measure
    // instructions the whole-run count (capped at max_retired) never
    // sees, silently producing coverage > 1 and a garbage
    // extrapolation.
    if (!spec.sampling.empty()) {
        const SamplingInterval &last = spec.sampling.intervals.back();
        u64 end = last.checkpointAt;
        if (__builtin_add_overflow(end, last.warmup, &end) ||
            __builtin_add_overflow(end, last.measure, &end))
            rix_fatal("scenario spec: the sampling plan's last detailed "
                      "window (start %llu + warmup %llu + measure %llu) "
                      "overflows",
                      (unsigned long long)last.checkpointAt,
                      (unsigned long long)last.warmup,
                      (unsigned long long)last.measure);
        if (end > spec.maxRetired)
            rix_fatal("scenario spec: the sampling plan's last detailed "
                      "window ends at instruction %llu, past "
                      "max_retired %llu",
                      (unsigned long long)end,
                      (unsigned long long)spec.maxRetired);
    }
    // The figure renderers print paper tables with no way to mark
    // their inputs as estimates; letting a sampled run through them
    // would present extrapolations as measurements. Only the generic
    // row renders (which carry the sampled_* columns) may be sampled.
    if (!spec.sampling.empty() && spec.render != "jsonl" &&
        spec.render != "csv")
        rix_fatal("scenario spec: render '%s' requires full detailed "
                  "runs — sampled results are estimates; use \"jsonl\" "
                  "or \"csv\"", spec.render.c_str());

    if (const JsonValue *v = doc.find("trace")) {
        if (!v->isObject())
            rix_fatal("scenario spec: 'trace' must be an object");
        spec.trace.enabled = true;
        for (const auto &[key, val] : v->members()) {
            if (key == "start") {
                const std::string cerr =
                    coerceCount(val, ~u64(0), &spec.trace.start);
                if (!cerr.empty())
                    rix_fatal("scenario spec: 'trace.start' must be a "
                              "non-negative integer: %s", cerr.c_str());
            } else if (key == "count") {
                const std::string cerr =
                    coerceCount(val, ~u64(0), &spec.trace.count);
                if (!cerr.empty() || spec.trace.count == 0)
                    rix_fatal("scenario spec: 'trace.count' must be a "
                              "positive integer%s%s",
                              cerr.empty() ? "" : ": ", cerr.c_str());
            } else if (key == "format") {
                if (!val.isString() ||
                    !traceFormatValid(val.asString()))
                    rix_fatal("scenario spec: 'trace.format' must be "
                              "\"konata\" or \"jsonl\"");
                spec.trace.format = val.asString();
            } else if (key == "out") {
                if (!val.isString() || val.asString().empty())
                    rix_fatal("scenario spec: 'trace.out' must be a "
                              "non-empty path string");
                spec.trace.out = val.asString();
            } else {
                rix_fatal("scenario spec: unknown 'trace' field '%s'",
                          key.c_str());
            }
        }
    }
    if (const JsonValue *v = doc.find("metrics")) {
        if (!v->isObject())
            rix_fatal("scenario spec: 'metrics' must be an object");
        spec.metrics.enabled = true;
        for (const auto &[key, val] : v->members()) {
            if (key == "every") {
                const std::string cerr =
                    coerceCount(val, ~u64(0), &spec.metrics.every);
                if (!cerr.empty() || spec.metrics.every == 0)
                    rix_fatal("scenario spec: 'metrics.every' must be a "
                              "positive integer%s%s",
                              cerr.empty() ? "" : ": ", cerr.c_str());
            } else if (key == "out") {
                if (!val.isString() || val.asString().empty())
                    rix_fatal("scenario spec: 'metrics.out' must be a "
                              "non-empty path string");
                spec.metrics.out = val.asString();
            } else {
                rix_fatal("scenario spec: unknown 'metrics' field '%s'",
                          key.c_str());
            }
        }
    }
    if (const JsonValue *v = doc.find("profile")) {
        const std::string berr = coerceBool(*v, &spec.profile);
        if (!berr.empty())
            rix_fatal("scenario spec: 'profile': %s", berr.c_str());
    }

    // Base parameters: machine defaults plus the spec's "base" set.
    CoreParams base;
    if (const JsonValue *v = doc.find("base"))
        applyOverrideSet(base, *v, "'base'");

    // Explicit configs (default: one unlabeled config of the base).
    struct ProtoConfig
    {
        std::string label;
        CoreParams params;
    };
    std::vector<ProtoConfig> protos;
    if (const JsonValue *v = doc.find("configs")) {
        if (!v->isArray())
            rix_fatal("scenario spec: 'configs' must be an array");
        for (const JsonValue &cfg : v->items()) {
            if (!cfg.isObject())
                rix_fatal("scenario spec: each config must be an object");
            for (const auto &[key, unused] : cfg.members()) {
                (void)unused;
                if (key != "label" && key != "set")
                    rix_fatal("scenario spec: unknown config field '%s'",
                              key.c_str());
            }
            ProtoConfig proto;
            proto.params = base;
            const JsonValue *label = cfg.find("label");
            if (!label || !label->isString() || label->asString().empty())
                rix_fatal("scenario spec: every config needs a non-empty "
                          "string 'label'");
            proto.label = label->asString();
            for (const ProtoConfig &prev : protos)
                if (prev.label == proto.label)
                    rix_fatal("scenario spec: duplicate config label '%s'",
                              proto.label.c_str());
            if (const JsonValue *set = cfg.find("set"))
                applyOverrideSet(proto.params, *set,
                                 "config '" + proto.label + "'");
            protos.push_back(std::move(proto));
        }
        if (protos.empty())
            rix_fatal("scenario spec: 'configs' must not be empty");
    } else {
        protos.push_back({"", base});
    }

    // Grid expansion: cross product of every "key: [values]" axis,
    // first axis slowest, appended to every explicit config.
    const JsonValue *grid = doc.find("grid");
    if (grid) {
        if (!grid->isObject() || grid->members().empty())
            rix_fatal("scenario spec: 'grid' must be a non-empty object "
                      "of \"key\": [values] axes");
        for (const auto &[key, values] : grid->members()) {
            if (!values.isArray() || values.items().empty())
                rix_fatal("scenario spec: grid axis '%s' must be a "
                          "non-empty array", key.c_str());
        }
    }

    for (const ProtoConfig &proto : protos) {
        if (!grid) {
            if (proto.label.empty())
                rix_fatal("scenario spec: a spec without 'configs' needs "
                          "a 'grid'");
            spec.configs.push_back({proto.label, proto.params});
            continue;
        }
        const auto &axes = grid->members();
        std::vector<size_t> idx(axes.size(), 0);
        while (true) {
            ScenarioConfig cfg;
            cfg.label = proto.label;
            cfg.params = proto.params;
            for (size_t a = 0; a < axes.size(); ++a) {
                const auto &[key, values] = axes[a];
                const JsonValue &v = values.items()[idx[a]];
                const std::string err2 =
                    applyCoreParamOverride(cfg.params, key, v);
                if (!err2.empty())
                    rix_fatal("scenario spec: grid axis '%s': %s",
                              key.c_str(), err2.c_str());
                cfg.label += (cfg.label.empty() ? "" : ";") + key + "=" +
                             labelValue(v);
            }
            if (spec.configIndex(cfg.label) >= 0)
                rix_fatal("scenario spec: duplicate point label '%s'",
                          cfg.label.c_str());
            spec.configs.push_back(std::move(cfg));
            // Odometer increment, last axis fastest.
            size_t a = axes.size();
            while (a > 0) {
                --a;
                if (++idx[a] < axes[a].second.items().size())
                    break;
                idx[a] = 0;
                if (a == 0)
                    goto gridDone;
            }
        }
      gridDone:;
    }

    // A figure reads its points by config label; a missing one is a
    // spec error, caught here rather than after every job has run.
    for (const std::string &label : figureConfigLabels(spec.render))
        if (spec.configIndex(label) < 0)
            rix_fatal("scenario spec: render '%s' requires a config "
                      "labeled '%s'", spec.render.c_str(), label.c_str());

    return spec;
}

/** Expand the spec's (workload x config [x interval]) cross product
 *  into the sweep's job list, after fatal up-front validation of every
 *  point (one clear diagnostic naming the config and field, before any
 *  construction or simulation). */
std::vector<SimJob>
expandScenarioJobs(const ScenarioSpec &spec)
{
    for (const ScenarioConfig &cfg : spec.configs)
        requireValidCoreParams(cfg.params,
                               "scenario '" + spec.name + "' config '" +
                                   cfg.label + "'");

    const size_t numIntervals =
        spec.sampling.empty() ? 1 : spec.sampling.intervals.size();
    std::vector<SimJob> jobs;
    jobs.reserve(spec.workloads.size() * spec.configs.size() *
                 numIntervals);
    for (const std::string &w : spec.workloads) {
        for (const ScenarioConfig &cfg : spec.configs) {
            SimJob job;
            job.workload = w;
            job.scale = spec.scale;
            job.params = cfg.params;
            job.maxRetired = spec.maxRetired;
            job.maxCycles = spec.maxCycles;
            if (spec.sampling.empty()) {
                jobs.push_back(std::move(job));
                continue;
            }
            // One independently-schedulable job per detailed interval.
            for (SimJob &ij : expandPlan(job, spec.sampling))
                jobs.push_back(std::move(ij));
        }
    }
    return jobs;
}

const std::string &
scenarioJobConfigLabel(const ScenarioSpec &spec, size_t job_index)
{
    const size_t numIntervals =
        spec.sampling.empty() ? 1 : spec.sampling.intervals.size();
    const size_t point = job_index / numIntervals;
    return spec.configs[point % spec.configs.size()].label;
}

namespace
{

/** Per-job observability output path: the spec's path, suffixed with
 *  the expanded job index when the sweep has more than one job so
 *  parallel jobs never share a file. */
std::string
observabilityPath(const std::string &base, size_t job_index, size_t n_jobs)
{
    return n_jobs <= 1 ? base : base + strfmt(".%zu", job_index);
}

/** Arm the spec's observability on one expanded job. @p job_index is
 *  the stable expanded-sweep index (used for the file suffix), @p
 *  n_jobs the full expansion size — both invariant under resume, so a
 *  resumed sweep's file names line up with a fresh one's. */
void
attachObservabilityJob(const ScenarioSpec &spec, SimJob &job,
                       size_t job_index, size_t n_jobs)
{
    if (spec.trace.enabled) {
        std::string err;
        std::unique_ptr<TraceSink> sink = openTraceSink(
            spec.trace,
            observabilityPath(spec.trace.out, job_index, n_jobs), &err);
        if (!sink)
            rix_fatal("scenario '%s': %s", spec.name.c_str(),
                      err.c_str());
        job.trace = std::move(sink);
        job.traceStart = spec.trace.start;
        job.traceCount = spec.trace.count;
    }
    if (spec.metrics.enabled)
        job.metrics = std::make_shared<MetricsRecorder>(spec.metrics.every);
}

/** Close one job's trace file and write its metrics time series (JSON
 *  lines, suffixed like the trace outputs), labeled
 *  scenario/workload/config. A failed write of either is fatal. */
void
finishObservabilityJob(const ScenarioSpec &spec, const SimJob &job,
                       size_t job_index, size_t n_jobs)
{
    std::string err;
    if (job.trace)
        err = job.trace->close();
    if (!err.empty())
        rix_fatal("scenario '%s': %s", spec.name.c_str(), err.c_str());
    if (!job.metrics)
        return;
    std::vector<std::pair<std::string, std::string>> labels;
    if (!spec.name.empty())
        labels.emplace_back("scenario", spec.name);
    labels.emplace_back("workload", job.workload);
    labels.emplace_back("config", scenarioJobConfigLabel(spec, job_index));
    if (!job.metrics->writeJsonl(
            observabilityPath(spec.metrics.out, job_index, n_jobs),
            labels, &err))
        rix_fatal("scenario '%s': %s", spec.name.c_str(), err.c_str());
}

/**
 * Build, before the sweep, the checkpoints every remaining interval job
 * restores from — per workload in *ascending* order, one functional
 * pass each fast-forwarding from the previous checkpoint — plus every
 * workload's whole-run instruction count (the merge denominator).
 * Dispatching the interval jobs cold instead would let a parallel pool
 * race all K builders past bestReadySeed and fast-forward K times from
 * instruction 0. Workloads are independent, so this parallelizes
 * across them on the RIX_JOBS knob. A workload with no job left to run
 * (a resume) builds no checkpoint; its total is deterministic, so the
 * resumed merge stays bit-identical. Fatal on failure even when jobs
 * are contained: the checkpoints are shared infrastructure that every
 * interval of the workload needs, not a per-job simulation.
 */
std::vector<u64>
prepareSampledWorkloads(const ScenarioSpec &spec,
                        const std::vector<size_t> &remaining_idx)
{
    const size_t nWorkloads = spec.workloads.size();
    const size_t jobsPerWorkload =
        spec.configs.size() * spec.sampling.intervals.size();
    std::vector<char> needed(nWorkloads, 0);
    for (size_t i : remaining_idx)
        needed[i / jobsPerWorkload] = 1;

    std::vector<u64> totals(nWorkloads);
    parallelFor(jobsFromEnv(), nWorkloads, [&](size_t w) {
        if (needed[w])
            for (const SamplingInterval &iv : spec.sampling.intervals)
                globalCheckpointCache().get(spec.workloads[w], spec.scale,
                                            iv.checkpointAt);
        totals[w] = globalCheckpointCache().totalInsts(
            spec.workloads[w], spec.scale, spec.maxRetired);
    });
    return totals;
}

/**
 * Merge each sampled point's intervals into one row. A point with any
 * failed interval fails as a whole (an extrapolation with a hole in it
 * is not an estimate, it is a lie) but leaves its neighbours intact; a
 * point whose plan measured nothing — a plan tuned for one scale can
 * land past another run's end — is invalid rather than silently
 * extrapolated from zero.
 */
void
mergeSampledPoints(const ScenarioSpec &spec, const std::vector<u64> &totals,
                   ScenarioResults &res)
{
    const size_t numIntervals = spec.sampling.intervals.size();
    const size_t points = spec.workloads.size() * spec.configs.size();
    res.jobs.resize(points);
    res.sampled.resize(points);
    for (size_t w = 0; w < spec.workloads.size(); ++w) {
        bool warned = false;
        for (size_t c = 0; c < spec.configs.size(); ++c) {
            const size_t point = w * spec.configs.size() + c;
            const SimJobResult *ivs =
                &res.intervalJobs[point * numIntervals];
            const SimJobResult *bad = nullptr;
            unsigned attempts = 0;
            for (size_t k = 0; k < numIntervals; ++k) {
                if (!ivs[k].ok() && !bad)
                    bad = &ivs[k];
                attempts = std::max(attempts, ivs[k].attempts);
            }
            if (bad) {
                res.jobs[point].status = bad->status;
                res.jobs[point].error = bad->error;
                res.jobs[point].divergence = bad->divergence;
                res.jobs[point].attempts = bad->attempts;
                continue;
            }
            res.sampled[point] = mergeIntervals(spec.sampling, ivs,
                                                totals[w],
                                                &res.jobs[point]);
            res.jobs[point].attempts = attempts;
            if (res.sampled[point].measuredInsts == 0) {
                res.jobs[point].status = JobStatus::Invalid;
                res.jobs[point].error = strfmt(
                    "sampling plan measured nothing: the run ends at "
                    "instruction %llu, before the first interval "
                    "(start %llu)",
                    (unsigned long long)totals[w],
                    (unsigned long long)
                        spec.sampling.intervals[0].checkpointAt);
                continue;
            }
            for (size_t k = 0; !warned && k < numIntervals; ++k) {
                if (ivs[k].report.core.retired == 0) {
                    rix_warn("scenario '%s': workload '%s' ends at "
                             "instruction %llu, so sampling interval "
                             "%zu (start %llu) measured nothing — "
                             "coverage is below plan",
                             spec.name.c_str(),
                             spec.workloads[w].c_str(),
                             (unsigned long long)totals[w], k,
                             (unsigned long long)
                                 spec.sampling.intervals[k].checkpointAt);
                    warned = true;
                }
            }
        }
    }
}

} // namespace

ScenarioResults
runScenario(const ScenarioSpec &spec, const FaultPolicy &policy,
            ResultStore *store)
{
    std::vector<SimJob> jobs = expandScenarioJobs(spec);

    // Load the journal: jobs already completed are done — their stored
    // results are the results — and everything else still runs. A
    // record that does not line up with the spec's expansion means the
    // store belongs to a different sweep; refusing loudly beats
    // silently merging apples into oranges.
    std::vector<SimJobResult> all(jobs.size());
    std::vector<char> have(jobs.size(), 0);
    if (store) {
        if (store->meta().kind != StoreKind::Sweep)
            rix_fatal("store '%s' is a serve journal, not a sweep store",
                      store->path().c_str());
        if (store->meta().numJobs != jobs.size())
            rix_fatal("store '%s' journals a sweep of %llu jobs but this "
                      "spec expands to %zu — the spec or its overrides "
                      "changed since the store was created",
                      store->path().c_str(),
                      (unsigned long long)store->meta().numJobs,
                      jobs.size());
        for (const StoreRecord &r : store->records()) {
            if (r.jobIndex >= jobs.size())
                rix_fatal("store '%s': record for job %llu is out of "
                          "range (%zu jobs)",
                          store->path().c_str(),
                          (unsigned long long)r.jobIndex, jobs.size());
            if (r.result.report.workload != jobs[r.jobIndex].workload)
                rix_fatal("store '%s': job %llu is workload '%s' in the "
                          "store but '%s' in the spec",
                          store->path().c_str(),
                          (unsigned long long)r.jobIndex,
                          r.result.report.workload.c_str(),
                          jobs[r.jobIndex].workload.c_str());
            if (!r.result.ok())
                continue; // failed attempts are journal noise: re-run
            all[r.jobIndex] = r.result;
            have[r.jobIndex] = 1;
        }
    }
    std::vector<size_t> remainingIdx;
    remainingIdx.reserve(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i)
        if (!have[i])
            remainingIdx.push_back(i);
    std::vector<SimJob> remaining;
    remaining.reserve(remainingIdx.size());
    for (size_t i : remainingIdx)
        remaining.push_back(jobs[i]);

    // Observability attaches only to the jobs that will actually run:
    // a resumed (journaled) job keeps its stored result and gets no
    // fresh trace/metrics files. File suffixes use the stable expanded
    // index, so resumed and fresh sweeps name their outputs alike.
    if (spec.profile)
        hostProfiler().setEnabled(true);
    if (spec.trace.enabled || spec.metrics.enabled)
        for (size_t k = 0; k < remaining.size(); ++k)
            attachObservabilityJob(spec, remaining[k], remainingIdx[k],
                                   jobs.size());

    // Journal each job as it retires from the pool — the commit point
    // (write + fsync) happens before the job counts as done, so a
    // kill -9 loses at most the in-flight record, never a completed
    // result. Only clean results are journaled: a failure is worth a
    // retry on resume, not a durable tombstone.
    SweepRetireHook onRetire;
    if (store) {
        onRetire = [&](size_t k, const SimJobResult &r) {
            if (!r.ok())
                return;
            StoreRecord rec;
            rec.jobIndex = remainingIdx[k];
            rec.configLabel = scenarioJobConfigLabel(spec, rec.jobIndex);
            rec.result = r;
            const std::string err = store->append(rec);
            if (!err.empty())
                rix_fatal("cannot journal job %zu: %s", remainingIdx[k],
                          err.c_str());
        };
    }

    std::vector<u64> totals;
    if (!spec.sampling.empty())
        totals = prepareSampledWorkloads(spec, remainingIdx);

    // The strict check runs once, on the merged points below: a sampled
    // point can fail after the merge although every interval ran.
    FaultPolicy sweepPolicy = policy;
    sweepPolicy.strict = false;
    std::vector<SimJobResult> fresh =
        SweepRunner().run(remaining, sweepPolicy, onRetire);
    for (size_t k = 0; k < remainingIdx.size(); ++k)
        all[remainingIdx[k]] = std::move(fresh[k]);
    if (spec.trace.enabled || spec.metrics.enabled)
        for (size_t k = 0; k < remaining.size(); ++k)
            finishObservabilityJob(spec, remaining[k], remainingIdx[k],
                                   jobs.size());

    ScenarioResults res;
    res.numConfigs = spec.configs.size();
    if (spec.sampling.empty()) {
        res.jobs = std::move(all);
    } else {
        res.intervalJobs = std::move(all);
        mergeSampledPoints(spec, totals, res);
    }

    if (policy.strict || !spec.rowRender())
        requireJobsOk(res.jobs, [&spec](size_t p) {
            return strfmt("point %zu (%s, config '%s')", p,
                          spec.workloads[p / spec.configs.size()].c_str(),
                          spec.configs[p % spec.configs.size()]
                              .label.c_str());
        });
    return res;
}

namespace
{

void
renderRows(const ScenarioSpec &spec, const ScenarioResults &res, FILE *out,
           bool csv)
{
    // speedup_pct against the same workload's "base" point, for full
    // detailed runs only: a ratio of two sampled estimates would read
    // as a measurement.
    const int baseCfg = spec.sampling.empty() ? spec.configIndex("base")
                                              : -1;
    StatRegistry reg;
    for (size_t w = 0; w < spec.workloads.size(); ++w) {
        for (size_t c = 0; c < spec.configs.size(); ++c) {
            StatRegistry::Row &row = reg.addRow();
            if (!spec.name.empty())
                row.label("scenario", spec.name);
            row.label("workload", spec.workloads[w]);
            row.label("config", spec.configs[c].label);
            // The per-point outcome: failed points keep their row
            // (zeroed simulation columns) so N-K healthy results are
            // never hidden by K failures.
            const SimJobResult &j = res.jobs[w * res.numConfigs + c];
            row.label("status", jobStatusName(j.status));
            row.label("error", j.error);
            row.stats.set("attempts", double(j.attempts));
            exportReport(res.report(w, c), row.stats);
            row.stats.set("scale", double(spec.scale));
            row.stats.set("wall_s", res.wallSeconds(w, c));
            if (baseCfg >= 0) {
                const SimJobResult &b =
                    res.jobs[w * res.numConfigs + size_t(baseCfg)];
                if (j.ok() && b.ok())
                    row.stats.set("speedup_pct",
                                  speedupPct(b.report.ipc(),
                                             j.report.ipc()));
            }
            if (res.isSampled()) {
                // Sampled rollup: how much was measured, how much the
                // whole run is, and the extrapolated estimate. When
                // sampled_exact is 1 the row IS the full detailed run.
                const SampledSummary &s =
                    res.sampled[w * spec.configs.size() + c];
                row.stats.set("sampled", 1.0);
                row.stats.set("sampled_intervals", double(s.intervals));
                row.stats.set("sampled_measured_insts",
                              double(s.measuredInsts));
                row.stats.set("sampled_warmup_insts",
                              double(s.warmupInsts));
                row.stats.set("sampled_total_insts", double(s.totalInsts));
                row.stats.set("sampled_coverage", s.coverage());
                row.stats.set("sampled_ipc", s.ipc());
                row.stats.set("sampled_cycles_extrapolated",
                              s.cyclesExtrapolated());
                row.stats.set("sampled_exact", s.exact ? 1.0 : 0.0);
            }
        }
    }
    if (csv)
        reg.writeCsv(out);
    else
        reg.writeJsonLines(out);
}

} // namespace

void
renderScenario(const ScenarioSpec &spec, const ScenarioResults &res,
               FILE *out)
{
    if (spec.render == "jsonl")
        renderRows(spec, res, out, false);
    else if (spec.render == "csv")
        renderRows(spec, res, out, true);
    else if (spec.render == "fig4")
        renderFig4(spec, res, out);
    else if (spec.render == "fig5")
        renderFig5(spec, res, out);
    else if (spec.render == "fig6")
        renderFig6(spec, res, out);
    else if (spec.render == "fig7")
        renderFig7(spec, res, out);
    else
        rix_fatal("unknown render '%s'", spec.render.c_str());
}

std::string
readScenarioFile(const std::string &path)
{
    FILE *f = fopen(path.c_str(), "rb");
    if (!f)
        rix_fatal("cannot open scenario spec '%s'", path.c_str());
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    const bool bad = ferror(f) != 0;
    fclose(f);
    if (bad)
        rix_fatal("error reading scenario spec '%s'", path.c_str());
    return text;
}

int
renderScenarioBuffered(const ScenarioSpec &spec, const ScenarioResults &res,
                       FILE *out)
{
    char *buf = nullptr;
    size_t bufLen = 0;
    FILE *mem = open_memstream(&buf, &bufLen);
    if (!mem)
        rix_fatal("cannot allocate render buffer");
    renderScenario(spec, res, mem);
    fclose(mem);
    FILE *dst = out ? out : stdout;
    const bool written =
        fwrite(buf, 1, bufLen, dst) == bufLen && fflush(dst) == 0;
    free(buf);
    if (!written)
        return 1;
    return res.failures() ? 3 : 0;
}

} // namespace rix
