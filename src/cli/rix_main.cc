/**
 * @file
 * `rix` — the declarative scenario driver.
 *
 * Runs any experiment the simulator can express without recompiling:
 * a JSON scenario spec names the workloads, scale, run limits, and a
 * grid of machine-configuration overrides; rix expands it, executes it
 * across the RIX_JOBS thread pool, and renders the results (generic
 * JSON-lines/CSV stat rows, or one of the built-in paper-figure
 * tables). The committed specs under examples/scenarios/ reproduce
 * the four figure benches bit-identically.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "base/env.hh"
#include "base/json.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "sim/fuzz.hh"
#include "sim/scenario.hh"
#include "sim/validate.hh"
#include "store/compare.hh"
#include "store/sweep_store.hh"
#include "workload/workload.hh"

namespace
{

int
usage(FILE *out)
{
    fprintf(out,
            "rix — declarative simulation scenario driver\n"
            "\n"
            "usage:\n"
            "  rix run <spec.json> [--out FILE] [--jobs N] [--scale S]\n"
            "          [--store FILE]             run a scenario spec\n"
            "  rix trace <workload> [options]     one traced detailed run\n"
            "  rix resume <store> [options]       finish a journaled sweep\n"
            "  rix compare <A> <B> [options]      regression-gate two sweeps\n"
            "  rix fuzz [options]                 differential fuzzing\n"
            "  rix serve <socket> [options]       simulation daemon\n"
            "  rix submit <socket> [request...]   send requests to a daemon\n"
            "  rix validate <spec.json>...        parse + validate only\n"
            "  rix list-workloads                 registered workloads\n"
            "  rix help                           this text\n"
            "\n"
            "run options (strictly positive integers; garbage is fatal):\n"
            "  --jobs N     simulation worker threads (overrides RIX_JOBS;\n"
            "               1 = serial)\n"
            "  --scale S    workload scale factor (overrides RIX_SCALE and\n"
            "               the spec)\n"
            "  --store FILE journal every completed job into a new\n"
            "               crash-recoverable result store (file must not\n"
            "               exist; jsonl/csv renders only)\n"
            "\n"
            "trace options (default machine configuration, Konata or\n"
            "JSON-lines pipeline trace; see README 'Observability'):\n"
            "  --scale S          workload scale factor (default 1)\n"
            "  --start N          first retired instruction to trace\n"
            "                     (default 0)\n"
            "  --count N          trace window length in retired\n"
            "                     instructions (default 100000)\n"
            "  --format F         konata (default) | jsonl\n"
            "  --out FILE         trace destination (default\n"
            "                     rix_trace.txt)\n"
            "  --metrics-every N  also record interval metrics every N\n"
            "                     simulated cycles\n"
            "  --metrics-out FILE metrics destination (default\n"
            "                     rix_metrics.jsonl)\n"
            "  --max-retired N    run budget (default: the run stops at\n"
            "                     the end of the trace window)\n"
            "\n"
            "resume options:\n"
            "  --out FILE     render destination (default stdout)\n"
            "  --jobs N       simulation worker threads\n"
            "  --ignore-rev   accept a store written by another revision\n"
            "  a torn tail from a killed run is truncated on open; only\n"
            "  the jobs missing from the journal are re-run, and the\n"
            "  merged render is bit-identical to an uninterrupted run\n"
            "\n"
            "compare options (A = baseline store, B = candidate store;\n"
            "simulated fields only, wall time is not compared):\n"
            "  --require-complete demand every job journaled ok in both\n"
            "  exit status: 0 identical; 2 simulated-field divergence;\n"
            "  3 operational error (including usage — 2 always means\n"
            "  divergence)\n"
            "\n"
            "fuzz options:\n"
            "  --seeds N        random programs to run (default 100)\n"
            "  --first-seed S   first generator seed (default 1)\n"
            "  --panel FILE     scenario spec supplying the config panel\n"
            "                   (default: built-in 4-point panel)\n"
            "  --config LABEL   restrict the panel to one point\n"
            "  --out FILE       reproducer path on divergence\n"
            "                   (default rix_fuzz_repro.txt)\n"
            "  --max-retired N  per-run retired-instruction budget\n"
            "  --no-minimize    skip shrinking the failing program\n"
            "  --jobs N         worker threads (overrides RIX_JOBS)\n"
            "  --guided         coverage-guided mode: keep a seed corpus,\n"
            "                   run the whole budget, dedupe failures\n"
            "  --corpus DIR     journal corpus entries to DIR and reload\n"
            "                   them next run (implies --guided)\n"
            "  --explore PCT    guided slots given to fresh seeds, 0-100\n"
            "                   (default 50; the rest mutate the corpus)\n"
            "  exit status: 0 no divergence; 1 divergence (reproducer\n"
            "  written — its presence disambiguates from fatal\n"
            "  configuration errors, which also exit 1); 2 usage error\n"
            "\n"
            "serve options (newline-delimited JSON protocol; see\n"
            "serve/proto.hh and README.md):\n"
            "  --jobs N         simulation worker threads\n"
            "  --queue N        max outstanding jobs before backpressure\n"
            "                   (default 64; excess gets 'overloaded')\n"
            "  --cache-bytes N  program+checkpoint LRU byte budget\n"
            "                   (default 256 MiB)\n"
            "  --allow-inject   honor the 'inject' request field (fault\n"
            "                   drills; otherwise rejected as invalid)\n"
            "\n"
            "submit: sends each argument as one request line (stdin when\n"
            "  none), prints one response line each; exit 0 if every\n"
            "  status is 'ok', 3 otherwise, 1 on connection failure;\n"
            "  transient drops (ECONNRESET, daemon restarts) are retried\n"
            "  with bounded exponential backoff, resending only the\n"
            "  unanswered requests (at-least-once execution)\n"
            "\n"
            "environment (legacy overrides, validated):\n"
            "  RIX_SCALE       workload scale factor (overrides the spec)\n"
            "  RIX_BENCH       comma-separated workload subset\n"
            "  RIX_JOBS        simulation worker threads (default:\n"
            "                  hardware concurrency; 1 = serial)\n"
            "  RIX_TIMEOUT_MS  per-job wall-clock watchdog (0 = off)\n"
            "  RIX_RETRIES     retry budget for transient failures\n"
            "                  (default 2)\n"
            "  RIX_CACHE_BYTES serve cache budget\n"
            "  RIX_QUEUE_DEPTH serve admission bound\n"
            "  RIX_STORE_DIR   serve: journal every completed run into a\n"
            "                  result store under this directory (must\n"
            "                  exist, be a directory, and be writable)\n"
            "  RIX_TRACE       scenario runs: enable tracing to this\n"
            "                  file (a .jsonl suffix selects JSON lines,\n"
            "                  anything else Konata text)\n"
            "  RIX_TRACE_START first retired instruction to trace\n"
            "  RIX_TRACE_COUNT trace window length (strictly positive)\n"
            "  RIX_METRICS_EVERY scenario runs: enable interval metrics\n"
            "                  every N simulated cycles (positive)\n"
            "\n"
            "spec format: see examples/scenarios/*.json and README.md\n");
    return out == stderr ? 2 : 0;
}

int
cmdRun(int argc, char **argv)
{
    const char *specPath = nullptr;
    const char *outPath = nullptr;
    const char *storePath = nullptr;
    bool strict = false;
    for (int i = 0; i < argc; ++i) {
        if (strcmp(argv[i], "--strict") == 0) {
            strict = true;
        } else if (strcmp(argv[i], "--out") == 0) {
            if (i + 1 >= argc) {
                fprintf(stderr, "rix run: --out needs a file argument\n");
                return 2;
            }
            outPath = argv[++i];
        } else if (strcmp(argv[i], "--store") == 0) {
            if (i + 1 >= argc) {
                fprintf(stderr,
                        "rix run: --store needs a file argument\n");
                return 2;
            }
            storePath = argv[++i];
        } else if (strcmp(argv[i], "--jobs") == 0 ||
                   strcmp(argv[i], "--scale") == 0) {
            // Same strict-positive contract as the RIX_* knobs: zero
            // or garbage is fatal, naming the flag. The validated
            // value is pushed into the environment variable it
            // overrides, so every downstream reader (spec parsing,
            // SweepRunner) sees one consistent setting.
            const bool jobs = argv[i][2] == 'j';
            if (i + 1 >= argc) {
                fprintf(stderr, "rix run: %s needs a positive integer "
                        "argument\n", argv[i]);
                return 2;
            }
            const char *flag = jobs ? "rix run --jobs" : "rix run --scale";
            rix::parsePositiveCount(flag, argv[i + 1]);
            setenv(jobs ? "RIX_JOBS" : "RIX_SCALE", argv[++i],
                   /*overwrite=*/1);
        } else if (argv[i][0] == '-') {
            fprintf(stderr, "rix run: unknown option '%s'\n", argv[i]);
            return 2;
        } else if (!specPath) {
            specPath = argv[i];
        } else {
            fprintf(stderr, "rix run: exactly one spec file expected\n");
            return 2;
        }
    }
    if (!specPath) {
        fprintf(stderr, "rix run: missing spec file\n");
        return 2;
    }

    FILE *out = stdout;
    if (outPath) {
        out = fopen(outPath, "w");
        if (!out) {
            fprintf(stderr, "rix run: cannot write '%s'\n", outPath);
            return 1;
        }
    }
    // Fault-contained by default for the row renders: K failing jobs
    // leave the other N-K rows intact, each row carrying its status.
    // --strict dies once every job finished, naming the first failure;
    // the figure renders always run strict (runScenario).
    // RIX_TIMEOUT_MS / RIX_RETRIES configure the watchdog and retry
    // budget (strictly validated).
    const rix::FaultPolicy policy = rix::FaultPolicy::fromEnv(strict);
    const int rc =
        storePath
            ? rix::runScenarioFileStored(specPath, storePath, out, policy)
            : rix::runScenarioFile(specPath, out, policy);
    if (out != stdout)
        fclose(out);
    return rc;
}

int
cmdTrace(int argc, char **argv)
{
    rix::TraceConfig tcfg;
    tcfg.enabled = true;
    rix::MetricsConfig mcfg;
    rix::u64 maxRetired = 0; // 0: bounded by the trace window
    const char *workload = nullptr;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        auto needValue = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                fprintf(stderr, "rix trace: %s needs an argument\n",
                        what);
                exit(2);
            }
            return argv[++i];
        };
        if (arg == "--scale") {
            const char *v = needValue("--scale");
            rix::parsePositiveCount("rix trace --scale", v);
            setenv("RIX_SCALE", v, /*overwrite=*/1);
        } else if (arg == "--start") {
            tcfg.start = rix::parseNonNegativeCount("rix trace --start",
                                                    needValue("--start"));
        } else if (arg == "--count") {
            tcfg.count = rix::parsePositiveCount("rix trace --count",
                                                 needValue("--count"));
        } else if (arg == "--format") {
            tcfg.format = needValue("--format");
            if (!rix::traceFormatValid(tcfg.format)) {
                fprintf(stderr, "rix trace: --format must be 'konata' "
                                "or 'jsonl', got '%s'\n",
                        tcfg.format.c_str());
                return 2;
            }
        } else if (arg == "--out") {
            tcfg.out = needValue("--out");
        } else if (arg == "--metrics-every") {
            mcfg.enabled = true;
            mcfg.every = rix::parsePositiveCount(
                "rix trace --metrics-every", needValue("--metrics-every"));
        } else if (arg == "--metrics-out") {
            mcfg.out = needValue("--metrics-out");
        } else if (arg == "--max-retired") {
            maxRetired = rix::parsePositiveCount("rix trace --max-retired",
                                                 needValue("--max-retired"));
        } else if (arg[0] == '-') {
            fprintf(stderr, "rix trace: unknown option '%s'\n", argv[i]);
            return 2;
        } else if (!workload) {
            workload = argv[i];
        } else {
            fprintf(stderr, "rix trace: exactly one workload expected\n");
            return 2;
        }
    }
    if (!workload) {
        fprintf(stderr, "rix trace: missing workload (see `rix "
                        "list-workloads`)\n");
        return 2;
    }
    const std::vector<std::string> names = rix::workloadNames();
    if (std::find(names.begin(), names.end(), workload) == names.end()) {
        fprintf(stderr, "rix trace: unknown workload '%s' (see `rix "
                        "list-workloads`)\n", workload);
        return 2;
    }

    rix::SimJob job;
    job.workload = workload;
    job.scale = rix::envPositiveCount("RIX_SCALE", 1);
    if (maxRetired) {
        job.maxRetired = maxRetired;
    } else if (tcfg.end() != ~rix::u64(0) && tcfg.end() < job.maxRetired) {
        // The run only needs to reach the end of the trace window.
        job.maxRetired = tcfg.end();
    }

    std::string err;
    std::unique_ptr<rix::TraceSink> sink =
        rix::openTraceSink(tcfg, tcfg.out, &err);
    if (!sink) {
        fprintf(stderr, "rix trace: %s\n", err.c_str());
        return 1;
    }
    rix::TraceSink *counters = sink.get();
    job.trace = std::move(sink);
    job.traceStart = tcfg.start;
    job.traceCount = tcfg.count;
    if (mcfg.enabled)
        job.metrics = std::make_shared<rix::MetricsRecorder>(mcfg.every);

    const std::vector<rix::SimJob> jobs{job};
    const std::vector<rix::SimJobResult> results =
        rix::SweepRunner().run(jobs);
    const rix::SimReport &rep = results[0].report;

    if (job.metrics) {
        std::string merr;
        if (!job.metrics->writeJsonl(mcfg.out,
                                     {{"workload", job.workload}},
                                     &merr)) {
            fprintf(stderr, "rix trace: %s\n", merr.c_str());
            return 1;
        }
    }

    printf("{\"workload\": \"%s\", \"scale\": %llu, \"out\": \"%s\", "
           "\"format\": \"%s\", \"events\": %llu, "
           "\"traced_retired\": %llu, \"traced_squashed\": %llu, "
           "\"retired\": %llu, \"cycles\": %llu",
           job.workload.c_str(), (unsigned long long)job.scale,
           tcfg.out.c_str(), tcfg.format.c_str(),
           (unsigned long long)counters->numEvents(),
           (unsigned long long)counters->numRetired(),
           (unsigned long long)counters->numSquashed(),
           (unsigned long long)rep.core.retired,
           (unsigned long long)rep.core.cycles);
    if (job.metrics)
        printf(", \"metrics_out\": \"%s\", \"metrics_intervals\": %zu",
               mcfg.out.c_str(), job.metrics->intervals().size());
    printf("}\n");
    return 0;
}

int
cmdResume(int argc, char **argv)
{
    const char *storePath = nullptr;
    const char *outPath = nullptr;
    rix::ResumeOptions opts;
    for (int i = 0; i < argc; ++i) {
        if (strcmp(argv[i], "--ignore-rev") == 0) {
            opts.ignoreRev = true;
        } else if (strcmp(argv[i], "--out") == 0) {
            if (i + 1 >= argc) {
                fprintf(stderr,
                        "rix resume: --out needs a file argument\n");
                return 2;
            }
            outPath = argv[++i];
        } else if (strcmp(argv[i], "--jobs") == 0) {
            if (i + 1 >= argc) {
                fprintf(stderr, "rix resume: --jobs needs a positive "
                                "integer argument\n");
                return 2;
            }
            rix::parsePositiveCount("rix resume --jobs", argv[i + 1]);
            setenv("RIX_JOBS", argv[++i], /*overwrite=*/1);
        } else if (argv[i][0] == '-') {
            fprintf(stderr, "rix resume: unknown option '%s'\n", argv[i]);
            return 2;
        } else if (!storePath) {
            storePath = argv[i];
        } else {
            fprintf(stderr, "rix resume: exactly one store expected\n");
            return 2;
        }
    }
    if (!storePath) {
        fprintf(stderr, "rix resume: missing store file\n");
        return 2;
    }
    FILE *out = stdout;
    if (outPath) {
        out = fopen(outPath, "w");
        if (!out) {
            fprintf(stderr, "rix resume: cannot write '%s'\n", outPath);
            return 1;
        }
    }
    // No --scale / RIX_SCALE override: the store pins the resolved
    // scale and workloads, resume reinstalls them itself.
    const rix::FaultPolicy policy = rix::FaultPolicy::fromEnv(false);
    const int rc = rix::resumeStoreFile(storePath, out, policy, opts);
    if (out != stdout)
        fclose(out);
    return rc;
}

int
cmdCompare(int argc, char **argv)
{
    // Usage errors exit 3, not the usual 2: in this one subcommand 2
    // is the divergence verdict and must stay unambiguous for CI.
    const char *pathA = nullptr;
    const char *pathB = nullptr;
    rix::CompareOptions opts;
    for (int i = 0; i < argc; ++i) {
        if (strcmp(argv[i], "--require-complete") == 0) {
            opts.requireComplete = true;
        } else if (argv[i][0] == '-') {
            fprintf(stderr, "rix compare: unknown option '%s'\n",
                    argv[i]);
            return 3;
        } else if (!pathA) {
            pathA = argv[i];
        } else if (!pathB) {
            pathB = argv[i];
        } else {
            fprintf(stderr,
                    "rix compare: exactly two stores expected\n");
            return 3;
        }
    }
    if (!pathA || !pathB) {
        fprintf(stderr, "rix compare: need a baseline store and a "
                        "candidate store\n");
        return 3;
    }
    return rix::compareStores(pathA, pathB, opts);
}

int
cmdFuzz(int argc, char **argv)
{
    rix::FuzzOptions opts;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        auto needValue = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                fprintf(stderr, "rix fuzz: %s needs an argument\n", what);
                exit(2);
            }
            return argv[++i];
        };
        if (arg == "--seeds") {
            opts.seeds = rix::parsePositiveCount("rix fuzz --seeds",
                                                 needValue("--seeds"));
        } else if (arg == "--first-seed") {
            opts.firstSeed = rix::parsePositiveCount(
                "rix fuzz --first-seed", needValue("--first-seed"));
        } else if (arg == "--panel") {
            opts.panelPath = needValue("--panel");
        } else if (arg == "--config") {
            opts.onlyConfig = needValue("--config");
            if (opts.onlyConfig.empty()) {
                // Panel point labels are never empty (the scenario
                // parser rejects them), so an empty filter is always a
                // quoting mistake — say so instead of "matches no
                // panel point".
                fprintf(stderr, "rix fuzz: --config needs a non-empty "
                                "label (panel point labels are never "
                                "empty)\n");
                return 2;
            }
        } else if (arg == "--guided") {
            opts.guided = true;
        } else if (arg == "--corpus") {
            opts.corpusDir = needValue("--corpus");
            opts.guided = true;
        } else if (arg == "--explore") {
            const char *v = needValue("--explore");
            // Digits only: strtoul alone would also take " 50", "+50"
            // and "-0".
            const size_t len = strlen(v);
            const bool digits = len && strspn(v, "0123456789") == len;
            const unsigned long pct = digits ? strtoul(v, nullptr, 10) : 0;
            if (!digits || pct > 100) {
                fprintf(stderr, "rix fuzz: --explore wants a percentage "
                                "0-100, got '%s'\n", v);
                return 2;
            }
            opts.explorePct = unsigned(pct);
            opts.guided = true;
        } else if (arg == "--out") {
            opts.reproPath = needValue("--out");
        } else if (arg == "--max-retired") {
            opts.maxRetired = rix::parsePositiveCount(
                "rix fuzz --max-retired", needValue("--max-retired"));
        } else if (arg == "--no-minimize") {
            opts.minimize = false;
        } else if (arg == "--jobs") {
            const char *v = needValue("--jobs");
            rix::parsePositiveCount("rix fuzz --jobs", v);
            setenv("RIX_JOBS", v, /*overwrite=*/1);
        } else {
            fprintf(stderr, "rix fuzz: unknown option '%s'\n",
                    argv[i]);
            return 2;
        }
    }

    const rix::FuzzResult res = rix::runFuzz(opts);
    if (res.failed) {
        fprintf(stderr, "rix fuzz: seed %llu config '%s':\n%s",
                (unsigned long long)res.failure.seed,
                res.failure.configLabel.c_str(),
                res.failure.report.format().c_str());
        if (opts.minimize)
            fprintf(stderr,
                    "rix fuzz: minimized to %zu live instructions; "
                    "reproducer written to %s\n",
                    res.failure.liveInsts, res.reproFile.c_str());
        else
            fprintf(stderr,
                    "rix fuzz: %zu live instructions (not minimized); "
                    "reproducer written to %s\n",
                    res.failure.liveInsts, res.reproFile.c_str());
    }
    printf("{\"fuzz\": \"rix\", \"seeds\": %llu, \"first_seed\": %llu, "
           "\"points\": %zu, \"runs\": %llu, \"divergences\": %d, "
           "\"truncated\": %llu, \"fault_injected\": %d, "
           "\"guided\": %d, \"coverage_bits\": %zu, "
           "\"coverage_sig\": \"%016llx\", \"failures\": %llu, "
           "\"unique_failures\": %llu, \"corpus_entries\": %zu, "
           "\"corpus_loaded\": %zu}\n",
           (unsigned long long)res.programs,
           (unsigned long long)opts.firstSeed, res.points,
           (unsigned long long)res.runs, res.failed ? 1 : 0,
           (unsigned long long)res.truncated,
           rix::buildHasInjectedFault() ? 1 : 0,
           (opts.guided || !opts.corpusDir.empty()) ? 1 : 0,
           res.coverage.popcount(),
           (unsigned long long)res.coverage.signature(),
           (unsigned long long)res.failures,
           (unsigned long long)res.uniqueFailures, res.corpusEntries,
           res.corpusLoaded);
    return res.failed ? 1 : 0;
}

int
cmdServe(int argc, char **argv)
{
    // Environment first (fatal on garbage), flags override.
    rix::ServeOptions opts = rix::ServeOptions::fromEnv();
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        auto needValue = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                fprintf(stderr, "rix serve: %s needs an argument\n", what);
                exit(2);
            }
            return argv[++i];
        };
        if (arg == "--jobs") {
            opts.workers = unsigned(rix::parsePositiveCount(
                "rix serve --jobs", needValue("--jobs")));
        } else if (arg == "--queue") {
            opts.queueDepth = size_t(rix::parsePositiveCount(
                "rix serve --queue", needValue("--queue")));
        } else if (arg == "--cache-bytes") {
            opts.cacheBytes = size_t(rix::parsePositiveCount(
                "rix serve --cache-bytes", needValue("--cache-bytes")));
        } else if (arg == "--allow-inject") {
            opts.allowInject = true;
        } else if (arg[0] == '-') {
            fprintf(stderr, "rix serve: unknown option '%s'\n", argv[i]);
            return 2;
        } else if (opts.socketPath.empty()) {
            opts.socketPath = arg;
        } else {
            fprintf(stderr, "rix serve: exactly one socket path "
                            "expected\n");
            return 2;
        }
    }
    if (opts.socketPath.empty()) {
        fprintf(stderr, "rix serve: missing socket path\n");
        return 2;
    }
    return rix::runServe(opts);
}

int
cmdSubmit(int argc, char **argv)
{
    if (argc < 1) {
        fprintf(stderr, "rix submit: missing socket path\n");
        return 2;
    }

    // Collect the whole batch (arguments, or stdin lines), then hand
    // it to submitBatch: transient transport failures — ECONNRESET, a
    // daemon restart mid-batch, short writes — are absorbed by
    // reconnect-with-backoff and resend of the unanswered requests,
    // instead of failing the whole batch.
    std::vector<std::string> lines;
    if (argc > 1) {
        for (int i = 1; i < argc; ++i)
            if (argv[i][0] != '\0')
                lines.push_back(argv[i]);
    } else {
        std::string line;
        int c;
        while ((c = getchar()) != EOF) {
            if (c == '\n') {
                if (!line.empty())
                    lines.push_back(line);
                line.clear();
            } else {
                line += char(c);
            }
        }
        if (!line.empty())
            lines.push_back(line);
    }

    bool allOk = true;
    const rix::SubmitOutcome outcome = rix::submitBatch(
        argv[0], lines, [&allOk](const std::string &resp) {
            printf("%s\n", resp.c_str());
            std::string perr;
            const rix::JsonValue doc = rix::JsonValue::parse(resp, &perr);
            const rix::JsonValue *status =
                perr.empty() && doc.isObject() ? doc.find("status")
                                               : nullptr;
            if (!status || !status->isString() ||
                status->asString() != "ok")
                allOk = false;
        });
    if (outcome.reconnects)
        fprintf(stderr, "rix submit: recovered from %u connection "
                        "drop%s\n", outcome.reconnects,
                outcome.reconnects == 1 ? "" : "s");
    if (!outcome.complete) {
        // Diagnostic on stderr only: stdout carries response JSON or
        // nothing at all, so `rix submit ... | jq` never sees a
        // partial document.
        fprintf(stderr, "rix submit: %s (%zu of %zu responses "
                        "received)\n", outcome.error.c_str(),
                outcome.answered, lines.size());
        return 1;
    }
    return allOk ? 0 : 3;
}

int
cmdValidate(int argc, char **argv)
{
    if (argc == 0) {
        fprintf(stderr, "rix validate: missing spec file\n");
        return 2;
    }
    for (int i = 0; i < argc; ++i) {
        // parseScenario and requireValidCoreParams are fatal (exit 1)
        // on any problem, naming the field; reaching the summary line
        // means the spec is fully runnable.
        const rix::ScenarioSpec spec =
            rix::parseScenario(rix::readScenarioFile(argv[i]));
        for (const rix::ScenarioConfig &cfg : spec.configs)
            rix::requireValidCoreParams(cfg.params,
                                        "config '" + cfg.label + "'");
        printf("%s: OK: %zu workloads x %zu configs = %zu jobs "
               "(scale %llu, render %s)\n",
               argv[i], spec.workloads.size(), spec.configs.size(),
               spec.workloads.size() * spec.configs.size(),
               (unsigned long long)spec.scale, spec.render.c_str());
    }
    return 0;
}

int
cmdListWorkloads()
{
    for (const rix::WorkloadInfo &w : rix::allWorkloads())
        printf("%-10s %s\n", w.name, w.description);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(stderr);
    const std::string cmd = argv[1];
    if (cmd == "run")
        return cmdRun(argc - 2, argv + 2);
    if (cmd == "trace")
        return cmdTrace(argc - 2, argv + 2);
    if (cmd == "resume")
        return cmdResume(argc - 2, argv + 2);
    if (cmd == "compare")
        return cmdCompare(argc - 2, argv + 2);
    if (cmd == "fuzz")
        return cmdFuzz(argc - 2, argv + 2);
    if (cmd == "serve")
        return cmdServe(argc - 2, argv + 2);
    if (cmd == "submit")
        return cmdSubmit(argc - 2, argv + 2);
    if (cmd == "validate")
        return cmdValidate(argc - 2, argv + 2);
    if (cmd == "list-workloads")
        return cmdListWorkloads();
    if (cmd == "help" || cmd == "--help" || cmd == "-h")
        return usage(stdout);
    fprintf(stderr, "rix: unknown command '%s'\n", cmd.c_str());
    return usage(stderr);
}
