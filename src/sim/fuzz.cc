#include "sim/fuzz.hh"

#include <algorithm>
#include <set>

#include "base/log.hh"
#include "base/rng.hh"
#include "base/thread_pool.hh"
#include "sim/sweep.hh"
#include "sim/validate.hh"

namespace rix
{

namespace
{

/**
 * The built-in configuration panel, expressed as a scenario spec so
 * the label/set/grid expansion is exactly `rix run`'s: a baseline and
 * a small-window/small-IT machine, each with integration off and with
 * the full reverse mechanism — the four points where divergences have
 * historically hidden (squash churn, IT replacement, misintegration
 * recovery, plain pipeline).
 */
const char kBuiltinPanel[] = R"json({
  "name": "fuzz-panel",
  "workloads": ["gzip"],
  "configs": [
    {"label": "base", "set": {}},
    {"label": "tiny", "set": {"rob_size": 16, "rs_size": 8,
      "max_mem_ops": 8, "fetch_queue_size": 4, "integ.it_entries": 32,
      "integ.it_assoc": 2, "integ.num_phys_regs": 128}}
  ],
  "grid": {"integ.mode": ["off", "reverse"]}
})json";

} // namespace

bool
buildHasInjectedFault()
{
#ifdef RIX_FAULT_INJECT_ADDQ
    return true;
#else
    return false;
#endif
}

std::vector<ScenarioConfig>
selectPanelPoints(const ScenarioSpec &spec, const std::string &panel_name,
                  const std::string &only_config)
{
    if (spec.configs.empty())
        rix_fatal("rix fuzz: panel %s declares no configs — there is "
                  "nothing to fuzz against", panel_name.c_str());

    std::vector<ScenarioConfig> points;
    for (const ScenarioConfig &cfg : spec.configs) {
        if (!only_config.empty() && cfg.label != only_config)
            continue;
        requireValidCoreParams(cfg.params,
                               "fuzz panel config '" + cfg.label + "'");
        points.push_back(cfg);
    }
    if (points.empty()) {
        std::string labels;
        for (const ScenarioConfig &cfg : spec.configs)
            labels += " '" + cfg.label + "'";
        rix_fatal("rix fuzz: --config '%s' matches no point of panel %s; "
                  "valid labels:%s", only_config.c_str(),
                  panel_name.c_str(), labels.c_str());
    }
    return points;
}

std::vector<ScenarioConfig>
fuzzPanel(const std::string &panel_path, const std::string &only_config)
{
    const std::string text = panel_path.empty()
                                 ? std::string(kBuiltinPanel)
                                 : readScenarioFile(panel_path);
    const std::string name =
        panel_path.empty() ? "builtin" : "'" + panel_path + "'";
    return selectPanelPoints(parseScenario(text), name, only_config);
}

size_t
liveInstCount(const Program &p)
{
    size_t n = 0;
    for (const Instruction &inst : p.code)
        n += inst.isNop() ? 0 : 1;
    return n;
}

u64
failureFingerprint(const std::string &kind, const CoverageMap &map)
{
    u64 h = 14695981039346656037ull;
    const auto mix = [&h](const void *p, size_t n) {
        const unsigned char *bytes =
            static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= bytes[i];
            h *= 1099511628211ull;
        }
    };
    mix(kind.data(), kind.size());
    const u64 events = map.eventWord();
    mix(&events, sizeof(events));
    return h;
}

void
applyFailureClass(const DivergenceReport &r, CoverageMap &map)
{
    if (r.kind == "value")
        map.set(kCovFailValue);
    else if (r.kind == "pc-stream")
        map.set(kCovFailPcStream);
    else if (r.kind == "stuck")
        map.set(r.reason.compare(0, 8, "watchdog") == 0
                    ? kCovFailStuckWatchdog
                    : kCovFailStuckTextFault);
    // Synthetic test-hook kinds carry no class bit.
}

Program
minimizeProgram(const Program &p,
                const std::function<bool(const Program &)> &still_fails,
                u64 *runs)
{
    u64 local_runs = 0;
    Program cur = p;
    const size_t n = cur.code.size();

    size_t chunk0 = 1;
    while (chunk0 * 2 <= n)
        chunk0 *= 2;

    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t chunk = chunk0; chunk >= 1; chunk /= 2) {
            for (size_t start = 0; start < n; start += chunk) {
                const size_t stop = std::min(n, start + chunk);
                Program cand = cur;
                bool any = false;
                for (size_t i = start; i < stop; ++i) {
                    if (!cand.code[i].isNop()) {
                        cand.code[i] = makeNop();
                        any = true;
                    }
                }
                if (!any)
                    continue;
                // Copying already drops the decoded cache, but the
                // NOP-stamping above is an in-place code mutation:
                // invalidate defensively so no stale decoded form can
                // ever be observed through this candidate.
                cand.invalidateDecoded();
                ++local_runs;
                if (still_fails(cand)) {
                    cur = std::move(cand);
                    changed = true;
                }
            }
        }
    }

    // Out-of-range PCs fetch as NOPs on both the core and the
    // emulator, so trailing NOP slots are semantically dead weight —
    // drop them (keeping the entry slot in range).
    while (!cur.code.empty() && cur.code.back().isNop() &&
           cur.code.size() > cur.entry + 1)
        cur.code.pop_back();

    if (runs)
        *runs += local_runs;
    return cur;
}

namespace
{

std::string
describeGenerator(const RandProgConfig &c)
{
    return strfmt("body_ops=[%u,%u] iters=[%u,%u] branch_weight=%u "
                  "mem_weight=%u call_depth=%u mem_footprint=%u "
                  "data_quads=%u alu_op_bias=%u splice_seed=%llu",
                  c.bodyOpsMin, c.bodyOpsMax, c.itersMin, c.itersMax,
                  c.branchWeight, c.memWeight, c.callDepth,
                  c.memFootprint, c.dataQuads, c.aluOpBias,
                  (unsigned long long)c.spliceSeed);
}

void
writeReproducer(const FuzzOptions &opts, const FuzzFailure &f)
{
    FILE *out = fopen(opts.reproPath.c_str(), "w");
    if (!out)
        rix_fatal("rix fuzz: cannot write reproducer '%s'",
                  opts.reproPath.c_str());

    fprintf(out, "# rix fuzz reproducer\n");
    fprintf(out, "# seed: %llu\n", (unsigned long long)f.seed);
    fprintf(out, "# config: %s\n", f.configLabel.c_str());
    fprintf(out, "# panel: %s\n",
            opts.panelPath.empty() ? "builtin" : opts.panelPath.c_str());
    fprintf(out, "# generator: %s\n", describeGenerator(f.cfg).c_str());
    fprintf(out, "# mutator: %s\n", f.mutator.c_str());
    fprintf(out, "# failure kind: %s\n", f.report.kind.c_str());
    fprintf(out, "# fingerprint: %016llx\n",
            (unsigned long long)f.fingerprint);
    fprintf(out, "# coverage: %zu bits, signature %016llx\n",
            f.map.popcount(), (unsigned long long)f.map.signature());
    fprintf(out, "# replay: rix fuzz --seeds 1 --first-seed %llu "
            "--config \"%s\"%s%s\n",
            (unsigned long long)f.seed, f.configLabel.c_str(),
            opts.panelPath.empty() ? "" : " --panel ",
            opts.panelPath.c_str());
    if (f.mutator != "seed")
        fprintf(out, "# note: mutated generator config — regenerate "
                "from the generator line above, not the CLI "
                "defaults\n");
    fprintf(out, "#\n# divergence:\n");
    fprintf(out, "%s", f.report.format().c_str());
    fprintf(out, "\n# minimized failure kind: %s\n",
            f.minimizedReport.kind.c_str());
    fprintf(out,
            "# minimized program: %zu live instructions in %zu slots "
            "(%llu shrink runs; NOP slots omitted), entry at slot %llu\n",
            f.liveInsts, f.minimized.code.size(),
            (unsigned long long)f.minimizeRuns,
            (unsigned long long)f.minimized.entry);
    for (size_t i = 0; i < f.minimized.code.size(); ++i) {
        if (f.minimized.code[i].isNop())
            continue;
        fprintf(out, "%6zu: %s\n", i,
                disassemble(f.minimized.code[i]).c_str());
    }
    fprintf(out, "# data segment: %zu bytes at 0x%llx\n",
            f.minimized.data.size(),
            (unsigned long long)f.minimized.dataBase);
    fclose(out);
}

struct Outcome
{
    bool failed = false;
    bool truncated = false; // budget hit before HALT: prefix-only
    DivergenceReport report;
    CoverageMap map;
};

/**
 * Run @p prog on @p ctx with failures contained and return the core,
 * whose outcome and coverage the caller reads.
 */
const Core &
runContained(SimContext &ctx, const Program &prog, const CoreParams &params,
             u64 max_retired, Cycle max_cycles)
{
    JobFault fault;
    RunControl ctl;
    ctl.fault = &fault;
    ctx.run(prog, params, max_retired, max_cycles, ctl);
    return ctx.core();
}

/**
 * How a contained run failed: its DIVA divergence report, a "stuck"
 * report when the forward-progress watchdog tripped or a store hit
 * the text segment (a deadlock, livelock or wild store the fuzzer
 * provoked — as much a finding as a divergence), or an empty report
 * (diverged false) when it did not fail.
 */
DivergenceReport
failureOf(const Core &core)
{
    if (const DivergenceReport *d = core.divergence())
        return *d;
    DivergenceReport r;
    if (core.stuck()) {
        r.diverged = true;
        r.kind = "stuck";
        r.icount = core.stats().retired;
        r.reason = core.stuckReason();
    }
    return r;
}

/** One scheduled program: everything needed to regenerate it. */
struct RunDesc
{
    u64 seed = 0;
    RandProgConfig cfg;
    const char *mutator = "seed";
};

/**
 * One (program, panel point) simulation. Reuses the long-lived
 * SimContext of whichever thread parallelFor runs it on, reset per
 * job — the sweep engine's discipline.
 */
Outcome
runOne(const FuzzOptions &opts, u64 seed, const RandProgConfig &cfg,
       const ScenarioConfig &pt)
{
    const Program prog = generateRandomProgram(seed, cfg);

    Outcome o;
    if (opts.testFailure) {
        const std::string kind = opts.testFailure(prog, seed, pt.label);
        if (!kind.empty()) {
            o.failed = true;
            o.report.diverged = true;
            o.report.kind = kind;
            o.report.reason = "synthetic failure (test hook)";
            applyFailureClass(o.report, o.map);
            return o;
        }
    }

    thread_local SimContext ctx;
    const Core &core =
        runContained(ctx, prog, pt.params, opts.maxRetired, opts.maxCycles);
    o.map.harvest(core);
    o.report = failureOf(core);
    o.failed = o.report.diverged;
    o.truncated = !o.failed && !core.halted();
    if (o.failed)
        applyFailureClass(o.report, o.map);
    return o;
}

} // namespace

FuzzResult
runFuzz(const FuzzOptions &opts)
{
    if (opts.seeds == 0)
        rix_fatal("rix fuzz: --seeds must be positive");
    if (opts.seeds > 100'000'000)
        rix_fatal("rix fuzz: --seeds %llu is unreasonably large",
                  (unsigned long long)opts.seeds);
    if (opts.explorePct > 100)
        rix_fatal("rix fuzz: --explore %u is not a percentage",
                  opts.explorePct);
    const std::string verr = validateRandProgConfig(opts.prog);
    if (!verr.empty())
        rix_fatal("rix fuzz: %s", verr.c_str());

    const std::vector<ScenarioConfig> points =
        fuzzPanel(opts.panelPath, opts.onlyConfig);
    const bool guided = opts.guided || !opts.corpusDir.empty();

    FuzzResult res;
    res.programs = opts.seeds;
    res.points = points.size();

    // First failure in deterministic program-major, point-minor order;
    // guided campaigns keep going past it, deduplicating later ones.
    std::set<u64> seenFps;
    size_t failPointIdx = 0;
    const auto recordFailure = [&](const RunDesc &d, size_t pt_idx,
                                   Outcome &o) {
        ++res.failures;
        const u64 fp = failureFingerprint(o.report.kind, o.map);
        if (!seenFps.insert(fp).second)
            return;
        ++res.uniqueFailures;
        if (res.failed)
            return;
        res.failed = true;
        FuzzFailure &f = res.failure;
        f.seed = d.seed;
        f.cfg = d.cfg;
        f.mutator = d.mutator;
        f.configLabel = points[pt_idx].label;
        f.report = std::move(o.report);
        f.map = o.map;
        f.fingerprint = fp;
        failPointIdx = pt_idx;
    };

    const u64 total = opts.seeds * points.size();
    const unsigned nThreads = jobsFromEnv();

    if (!guided) {
        // Blind campaign: seeds in order, stop at the first failure.
        u64 failIdx = ~u64(0);
        const auto blindDesc = [&](u64 i) {
            return RunDesc{opts.firstSeed + i / points.size(),
                           opts.prog, "seed"};
        };
        // Batches bound how much work runs past a failure. Within the
        // failing batch only outcomes up to the failure index are
        // counted and folded, so runs/truncated/coverage stop at the
        // first failure for any job count.
        const u64 batch = std::max<u64>(u64(nThreads) * 8, 32);
        for (u64 b0 = 0; b0 < total && failIdx == ~u64(0); b0 += batch) {
            const u64 b1 = std::min(total, b0 + batch);
            std::vector<Outcome> outs(size_t(b1 - b0));
            parallelFor(nThreads, outs.size(), [&](size_t k) {
                const RunDesc d = blindDesc(b0 + k);
                outs[k] = runOne(opts, d.seed, d.cfg,
                                 points[(b0 + k) % points.size()]);
            });
            for (u64 i = b0; i < b1 && failIdx == ~u64(0); ++i) {
                Outcome &o = outs[size_t(i - b0)];
                ++res.runs;
                res.truncated += o.truncated ? 1 : 0;
                o.map.orInto(res.coverage);
                if (o.failed) {
                    recordFailure(blindDesc(i), size_t(i % points.size()),
                                  o);
                    failIdx = i;
                }
            }
        }
    } else {
        // Guided campaign: fixed-size generations; all scheduling for
        // a generation depends only on the corpus as it stood at the
        // generation barrier, and outcomes are counted, folded and
        // admitted in program order — bit-reproducible for any job
        // count. The whole budget always runs (failures dedupe
        // instead of stopping the campaign).
        constexpr u64 kGenSize = 32; // must not depend on thread count

        Corpus corpus;
        if (!opts.corpusDir.empty()) {
            res.corpusLoaded = corpus.loadDir(opts.corpusDir);
            corpus.unionMap().orInto(res.coverage);
        }

        for (u64 g0 = 0, gen = 0; g0 < opts.seeds;
             g0 += kGenSize, ++gen) {
            const u64 g1 = std::min(opts.seeds, g0 + kGenSize);

            // Explore/exploit split, scheduled serially per (first
            // seed, generation): fresh seeds keep their blind-mode
            // numbering; exploit slots mutate a corpus entry instead.
            Rng sched(0x9e3779b97f4a7c15ull * (opts.firstSeed + 1) +
                      0x517cc1b727220a95ull * (gen + 1));
            std::vector<RunDesc> descs;
            descs.reserve(size_t(g1 - g0));
            for (u64 p = g0; p < g1; ++p) {
                if (corpus.size() == 0 ||
                    sched.below(100) < opts.explorePct) {
                    descs.push_back(
                        {opts.firstSeed + p, opts.prog, "seed"});
                } else {
                    const CorpusEntry &e =
                        corpus.entries()[size_t(
                            sched.below(corpus.size()))];
                    const RandProgMutation m =
                        mutateRandProg(e.seed, e.cfg, sched.next());
                    descs.push_back({m.seed, m.cfg, m.mutator});
                }
            }

            std::vector<Outcome> outs(descs.size() * points.size());
            parallelFor(nThreads, outs.size(), [&](size_t k) {
                const RunDesc &d = descs[k / points.size()];
                outs[k] = runOne(opts, d.seed, d.cfg,
                                 points[k % points.size()]);
            });

            // Generation barrier: fold in program-major, point-minor
            // order; a program's corpus entry carries the union of its
            // coverage across the whole panel.
            for (size_t di = 0; di < descs.size(); ++di) {
                CoverageMap progMap;
                for (size_t pi = 0; pi < points.size(); ++pi) {
                    Outcome &o = outs[di * points.size() + pi];
                    ++res.runs;
                    res.truncated += o.truncated ? 1 : 0;
                    o.map.orInto(progMap);
                    o.map.orInto(res.coverage);
                    if (o.failed)
                        recordFailure(descs[di], pi, o);
                }
                corpus.admit({descs[di].seed, descs[di].cfg, progMap,
                              descs[di].mutator});
            }
        }

        res.corpusEntries = corpus.size();
        if (!opts.corpusDir.empty())
            corpus.saveNew(opts.corpusDir);
    }

    if (res.truncated)
        rix_warn("rix fuzz: %llu of %llu runs hit the retired/cycle "
                 "budget before HALT — those verified only a prefix of "
                 "their program (raise --max-retired for full coverage)",
                 (unsigned long long)res.truncated,
                 (unsigned long long)res.runs);

    if (!res.failed)
        return res;

    FuzzFailure &f = res.failure;
    const ScenarioConfig &pt = points[failPointIdx];
    f.minimized = generateRandomProgram(f.seed, f.cfg);
    f.minimizedReport = f.report;

    if (opts.minimize) {
        // Candidate budgets: divergence can only move modestly past the
        // original position when instructions are neutralized, so cap
        // each shrink run well below the full fuzz budget.
        const u64 budget_retired =
            std::min(opts.maxRetired, f.report.icount + 50'000);
        const Cycle budget_cycles =
            std::min<Cycle>(opts.maxCycles,
                            budget_retired * 20 + 100'000);
        SimContext mctx;
        const auto runCandidate = [&](const Program &cand) {
            return failureOf(runContained(mctx, cand, pt.params,
                                          budget_retired, budget_cycles));
        };
        // Only candidates reproducing the original failure *kind*
        // count: a divergence must not shrink into an unrelated stuck
        // program (or vice versa). Full-fingerprint equality would be
        // too strict — coverage bits vanish as instructions are
        // neutralized.
        const std::string wantKind = f.report.kind;
        const auto failsSameKind = [&](const Program &cand) {
            const DivergenceReport r = runCandidate(cand);
            return r.diverged && r.kind == wantKind;
        };
        f.minimized =
            minimizeProgram(f.minimized, failsSameKind, &f.minimizeRuns);
        res.runs += f.minimizeRuns;

        // Confirmation run: re-verify the shrunken program once and
        // record how it fails (the reproducer embeds this report).
        const DivergenceReport confirmed = runCandidate(f.minimized);
        ++res.runs;
        if (confirmed.diverged) {
            f.minimizedReport = confirmed;
        } else {
            // The predicate held for every kept candidate, so this is
            // unreachable for a deterministic core; keep the original
            // report rather than fail the campaign.
            rix_warn("rix fuzz: minimized program did not re-fail "
                     "(non-deterministic failure?)");
        }
        if (f.minimizedReport.kind != wantKind)
            rix_warn("rix fuzz: minimized failure kind '%s' differs "
                     "from original '%s'",
                     f.minimizedReport.kind.c_str(), wantKind.c_str());
    }
    f.liveInsts = liveInstCount(f.minimized);

    writeReproducer(opts, f);
    res.reproFile = opts.reproPath;
    return res;
}

} // namespace rix
