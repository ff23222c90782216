#!/usr/bin/env python3
"""End-to-end drills of the built rix binaries, one function per drill.

Each drill is registered with ctest as `cli.<drill>` (see the top-level
CMakeLists.txt) and runs in its own directory under the build tree:

    python3 tests/cli/drills.py <drill> --build <build dir> --src <source dir>

The driver empties that directory first, so a rerun never trips over a
store, corpus or reproducer left by the previous run, and it never
writes into the source tree. Every child process sees the caller's
environment with all RIX_* variables removed, plus only the knobs the
drill sets itself: an exported RIX_SCALE or RIX_BENCH cannot change a
drill's inputs. A failed assertion or an unexpected exit status fails
the test.
"""

import argparse
import csv
import glob
import io
import json
import operator
import os
import re
import shutil
import signal
import struct
import subprocess
import sys
import time
import zlib

BUILD = SRC = ""
# Below ctest's per-test TIMEOUT, so a hung child raises here and the
# drill's cleanup still runs.
COMMAND_TIMEOUT_S = 240


def rix_env(knobs):
    env = {k: v for k, v in os.environ.items() if not k.startswith("RIX_")}
    env.update({k: str(v) for k, v in knobs.items()})
    return env


def run(args, rc=0, stdin=None, **knobs):
    """Run @args with @knobs as its only RIX_* variables and return the
    completed process; assert its exit status is @rc (None: any)."""
    p = subprocess.run(args, input=stdin, capture_output=True, text=True,
                       env=rix_env(knobs), timeout=COMMAND_TIMEOUT_S)
    if rc is not None:
        assert p.returncode == rc, (
            "%s: exit %d, expected %d\nstderr:\n%s"
            % (" ".join(args), p.returncode, rc, p.stderr))
    return p


def rix(*args):
    return [os.path.join(BUILD, "rix"), *args]


def bench(name):
    return [os.path.join(BUILD, "bench", name)]


def spec(name):
    return os.path.join(SRC, "examples", "scenarios", name)


def jsonl(text):
    return [json.loads(line) for line in text.splitlines()]


def last_json(text):
    return json.loads(text.splitlines()[-1])


def sim_fields(text):
    """Simulated fields of a throughput trajectory: only wall-clock
    fields (kips, wall_s) may differ between runs."""
    return [{k: rec[k] for k in ("bench", "cycles", "retired", "ipc")}
            for rec in jsonl(text)]


def read(path, mode="r"):
    with open(path, mode) as f:
        return f.read()


def committed_throughput():
    return read(os.path.join(SRC, "BENCH_throughput.json"))


def tree(root):
    """Relative path -> bytes of every file under @root."""
    files = {}
    for d, _, names in os.walk(root):
        for n in names:
            p = os.path.join(d, n)
            files[os.path.relpath(p, root)] = read(p, "rb")
    return files


def gate_sweep(store):
    run(rix("run", "--store", store, spec("gate.json")), RIX_JOBS=2)


class Daemon:
    """`rix serve` on a short per-drill socket path (sun_path holds 108
    bytes, too few for a path under a deep build tree). Entering waits
    for the socket; leaving kills a daemon that is still up."""

    def __init__(self, drill, args, **knobs):
        self.sock = "/tmp/rix_%s_%d.sock" % (drill, os.getpid())
        self.proc = subprocess.Popen(rix("serve", self.sock, *args),
                                     env=rix_env(knobs))

    def __enter__(self):
        deadline = time.monotonic() + 30
        while not os.path.exists(self.sock):
            assert self.proc.poll() is None, "rix serve exited early"
            assert time.monotonic() < deadline, "rix serve never bound"
            time.sleep(0.01)
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if os.path.exists(self.sock):
            os.unlink(self.sock)

    def submit(self, *requests, rc=0, stdin=None):
        return run(rix("submit", self.sock, *requests), rc=rc,
                   stdin=stdin).stdout

    def shutdown(self):
        """Graceful drain: exit 0 and remove the socket."""
        self.submit('{"op": "shutdown"}')
        assert self.proc.wait(timeout=COMMAND_TIMEOUT_S) == 0
        assert not os.path.exists(self.sock), "socket left behind"


# ---- e2e ----

def throughput():
    serial = run(bench("throughput"), RIX_JOBS=1, RIX_SCALE=1).stdout
    lines = serial.splitlines()
    assert len(lines) == 17, \
        f"expected 16 workloads + aggregate, got {len(lines)}"
    for line in lines:
        rec = json.loads(line)
        assert rec["kips"] > 0 and rec["retired"] > 0, rec
    assert json.loads(lines[-1])["bench"] == "aggregate"
    # Serial equivalence: simulated fields at RIX_JOBS=2 are
    # bit-identical to the RIX_JOBS=1 run.
    parallel = run(bench("throughput"), RIX_JOBS=2, RIX_SCALE=1).stdout
    assert sim_fields(serial) == sim_fields(parallel), \
        "RIX_JOBS=2 diverged from serial run"


def zero_overhead():
    # With no trace sink, metrics recorder or profiler armed (the
    # default), the throughput bench's simulated fields land exactly on
    # the committed RIX_SCALE=4 trajectory: any drift means the
    # observability hooks perturbed simulation.
    fresh = run(bench("throughput"), RIX_JOBS=2, RIX_SCALE=4).stdout
    assert sim_fields(committed_throughput()) == sim_fields(fresh), \
        "simulated fields drifted from baseline"


def validate_specs():
    run(rix("validate", *sorted(glob.glob(spec("*.json")))))


def fig5_jobs_identical():
    # The committed fig5 figure renders byte-identically serial and on
    # two worker threads.
    serial = run(rix("run", spec("fig5.json")), RIX_JOBS=1).stdout
    parallel = run(rix("run", spec("fig5.json")), RIX_JOBS=2).stdout
    assert serial and serial == parallel, "fig5 differs at RIX_JOBS=1 vs 2"


def scenario_sweeps():
    for name, rows in (("lisp_geometry.json", 18),
                       ("cache_pressure.json", 8)):
        out = run(rix("run", spec(name)), RIX_JOBS=2).stdout
        recs = list(csv.DictReader(io.StringIO(out)))
        assert len(recs) == rows, (name, len(recs))
        assert all(float(r["retired"]) > 0 for r in recs), name


def paper_claims():
    # The paper's ablation claims, checked on the rows of the three
    # ablation specs (8 workloads each, scale 1). Every bound is the
    # paper's wording, never a measurement; `expect` records whether
    # the claim holds today. A claim whose outcome flips either way
    # fails the drill until its expectation here and the README's
    # "Paper claims" paragraph are updated. Never widen a bound.
    rows = {}
    for name in ("genctr", "indexing", "pipeline"):
        recs = jsonl(run(rix("run", spec("ablation_%s.json" % name)),
                         RIX_JOBS=2).stdout)
        assert recs, name
        for r in recs:
            assert r["status"] == "ok" and r["retired"] > 0, r
            assert "l1d_misses" in r, r
        rows[name] = recs

    def amean(name, config, f):
        vals = [f(r) for r in rows[name] if r["config"] == config]
        assert len(vals) == 8, (name, config, len(vals))
        return sum(vals) / len(vals)

    def reg_misint_per_m(r):
        return 1e6 * r["misint_registers"] / r["retired"]

    def rate(r):
        return 100 * r["integration_rate"]

    def direct_rate(r):
        return 100 * r["integrated_direct"] / r["retired"]

    def share_within(*buckets):
        def share(r):
            hits = sum(r["integ_dist_%s_%s" % (b, kind)]
                       for b in buckets for kind in ("direct", "reverse"))
            return 100 * hits / (r["integrated_direct"] +
                                 r["integrated_reverse"])
        return share

    rate0 = {r["workload"]: rate(r) for r in rows["pipeline"]
             if r["config"] == "delay/0"}

    def kept_vs_delay0(r):
        r0 = rate0[r["workload"]]
        return 100 * rate(r) / r0 if r0 > 0 else 100.0

    # (id, claim, measured, op, bound, expected outcome)
    off = amean("genctr", "gen/off", reg_misint_per_m)
    claims = [("G%d" % n,
               "register misint/M, %d-bit counters <= off / 2^%d" % (n, n),
               amean("genctr", "gen/%d" % n, reg_misint_per_m), "<=",
               off / 2 ** n, True) for n in (1, 2, 4)]
    claims += [
        ("I1", "+reverse rate %, call-depth index >= without",
         amean("indexing", "reverse", rate), ">=",
         amean("indexing", "reverse/no-cd", rate), True),
        ("I2", "+reverse direct rate %, 2048-entry IT >= 1024",
         amean("indexing", "reverse/it2048", direct_rate), ">=",
         amean("indexing", "reverse", direct_rate), True),
        ("P1a", "integrations within distance 4, % (delay 0)",
         amean("pipeline", "delay/0", share_within("le4")), "<", 10, True),
        ("P1b", "integrations within distance 16, % (delay 0)",
         amean("pipeline", "delay/0", share_within("le4", "le16")), "<",
         20, True),
        ("P2", "integration rate kept at delay 16, % of delay 0",
         amean("pipeline", "delay/16", kept_vs_delay0), ">=", 80, False),
    ]
    compare = {"<=": operator.le, ">=": operator.ge, "<": operator.lt}
    flipped = []
    for cid, claim, value, op, bound, expect in claims:
        holds = compare[op](value, bound)
        print("%-4s %-50s %8.2f %-2s %8.2f  %s%s"
              % (cid, claim, value, op, bound,
                 "holds" if holds else "violated",
                 "" if holds == expect else "  (recorded: %s)"
                 % ("holds" if expect else "violated")))
        if holds != expect:
            flipped.append(cid)
    assert not flipped, "claim outcome changed: %s" % ", ".join(flipped)


def sampled_smoke():
    recs = jsonl(run(rix("run", spec("sampled_ipc.json")),
                     RIX_JOBS=2).stdout)
    assert len(recs) == 6, len(recs)  # 3 workloads x 2 configs, merged
    for r in recs:
        assert r["sampled"] == 1 and r["sampled_intervals"] == 4, r
        assert r["sampled_measured_insts"] > 0, r
        assert 0 < r["sampled_coverage"] < 1, r
        assert r["sampled_cycles_extrapolated"] > r["cycles"], r


def sampled_exact_equals_full():
    # A plan whose single interval covers the entire run reproduces the
    # full detailed run bit-identically; only wall time and the
    # sampled_* rollup columns may differ.
    exact = jsonl(run(rix("run", spec("sampled_exact.json")),
                      RIX_JOBS=2).stdout)
    full = jsonl(run(rix("run", spec("sampled_exact_full.json")),
                     RIX_JOBS=2).stdout)

    def drop(r):
        return {k: v for k, v in r.items()
                if k != "wall_s" and not k.startswith("sampled")}
    assert [drop(r) for r in exact] == [drop(r) for r in full], \
        "sampled exact run diverged from full detailed run"
    for r in exact:
        assert r["sampled_exact"] == 1


def sampled_speedup():
    # The >=2x acceptance bar is for RIX_SCALE>=8; at scale 4 this only
    # proves the fast-forward path is faster, with slack for noisy
    # shared hosts.
    recs = jsonl(run(bench("sampled"), RIX_JOBS=1, RIX_SCALE=4,
                     RIX_BENCH="mcf,gcc,bzip2").stdout)
    agg = recs[-1]
    assert agg["bench"] == "aggregate"
    assert agg["speedup"] > 1.5, agg
    print("sampled speedup %.2fx" % agg["speedup"])


def functional():
    # The bare emulator executes the same instruction stream as the
    # detailed core: its per-workload instruction counts equal the
    # committed scale-4 trajectory's retired counts, aggregate included.
    recs = jsonl(run(bench("functional"), RIX_SCALE=4).stdout)
    assert len(recs) >= 2 and recs[-1]["bench"] == "aggregate", recs
    assert all(r["insts"] > 0 and r["kips"] > 0 for r in recs), recs
    retired = {r["bench"]: r["retired"]
               for r in jsonl(committed_throughput())}
    assert {r["bench"]: r["insts"] for r in recs} == retired


def raw_word_decode_confined():
    # decode() in isa/decoded.cc is the only code allowed to parse raw
    # 64-bit instruction words; a second parser would be a semantics
    # fork waiting to drift.
    hits = []
    for d, _, names in os.walk(os.path.join(SRC, "src")):
        for n in sorted(names):
            p = os.path.join(d, n)
            for i, line in enumerate(read(p).splitlines(), 1):
                hit = "%s:%d:%s" % (os.path.relpath(p, SRC), i, line)
                if "bits(word" in line and "isa/decoded.cc" not in hit:
                    hits.append(hit)
    assert not hits, ("raw instruction-word parsing outside "
                      "isa/decoded.cc:\n" + "\n".join(hits))


def fuzz_blind():
    # 200 seeded random programs x the built-in 4-point config panel,
    # each checked at retirement by the DIVA oracle; a divergence exits
    # non-zero and writes a reproducer.
    rec = last_json(run(rix("fuzz", "--seeds", "200", "--out",
                            "fuzz_repro.txt"), RIX_JOBS=2).stdout)
    assert rec["divergences"] == 0, rec
    assert rec["points"] >= 4 and rec["runs"] == 200 * rec["points"], rec
    assert rec["truncated"] == 0, rec
    assert rec["fault_injected"] == 0, rec
    assert not os.path.exists("fuzz_repro.txt"), "unexpected reproducer"


def fuzz_guided():
    # Coverage-guided campaign with fixed seeds: the summary (simulated
    # fields only) and the journaled corpus are bit-identical for any
    # job count, and a second campaign over the same corpus reloads
    # every entry and keeps the first campaign's coverage.
    def campaign(jobs, corpus, repro):
        return last_json(run(rix("fuzz", "--guided", "--seeds", "60",
                                 "--corpus", corpus, "--out", repro),
                             RIX_JOBS=jobs).stdout)
    j1 = campaign(1, "corpus_j1", "guided_repro_j1.txt")
    j2 = campaign(2, "corpus_j2", "guided_repro_j2.txt")
    assert j1 == j2, \
        f"guided campaign diverged across job counts:\n{j1}\n{j2}"
    assert j1["guided"] == 1 and j1["divergences"] == 0, j1
    assert j1["coverage_bits"] > 0 and j1["corpus_entries"] > 0, j1
    assert j1["runs"] == 60 * j1["points"], j1
    assert tree("corpus_j1") == tree("corpus_j2"), "corpora differ"
    again = campaign(2, "corpus_j1", "guided_repro_reuse.txt")
    assert again["corpus_loaded"] == j1["corpus_entries"], (j1, again)
    assert again["coverage_bits"] >= j1["coverage_bits"], (j1, again)


def gate():
    # A fresh gate sweep's store is simulated-field bit-identical to the
    # committed baseline. A spec change invalidates the baseline loudly
    # (exit 3, spec hash mismatch): regenerate it with the new binary
    # and commit it alongside the spec.
    gate_sweep("gate_fresh.rixstore")
    run(rix("compare", "--require-complete",
            os.path.join(SRC, "examples", "baselines",
                         "gate_baseline.rixstore"),
            "gate_fresh.rixstore"))


def compare_forged_divergence():
    # Forge the failure the gate exists to catch: one bit of the core
    # stats block flipped in every record. Frames are u32 len +
    # u32 crc32(payload) + payload; the first frame (offset 12) is the
    # header, the rest are records with the core counter block at
    # payload offset 64.
    gate_sweep("gate_fresh.rixstore")
    data = bytearray(read("gate_fresh.rixstore", "rb"))
    off, n = 12, 0
    while off + 8 <= len(data):
        ln, _ = struct.unpack_from("<II", data, off)
        if n > 0:
            payload = data[off + 8:off + 8 + ln]
            payload[64] ^= 1
            struct.pack_into("<I", data, off + 4,
                             zlib.crc32(bytes(payload)) & 0xffffffff)
            data[off + 8:off + 8 + ln] = payload
        off += 8 + ln
        n += 1
    with open("gate_diverged.rixstore", "wb") as f:
        f.write(bytes(data))
    p = run(rix("compare", "gate_fresh.rixstore", "gate_diverged.rixstore"),
            rc=2)
    assert "DIVERGENCE" in p.stderr, p.stderr


def trace():
    # `rix trace` is deterministic, and its O3PipeView file holds
    # exactly the requested retire window with a monotone staircase.
    args = ("trace", "mcf", "--scale", "1", "--start", "1000",
            "--count", "20000", "--out")
    summary = json.loads(run(rix(*args, "t1.kanata")).stdout)
    run(rix(*args, "t2.kanata"))
    assert read("t1.kanata", "rb") == read("t2.kanata", "rb"), \
        "two traces of one run differ"
    insts, cur = [], None
    for line in read("t1.kanata").splitlines():
        parts = line.split(":")
        assert parts[0] == "O3PipeView", line
        if parts[1] == "fetch":
            cur = {"fetch": int(parts[2]), "seq": int(parts[5])}
            insts.append(cur)
        elif parts[1] == "retire":
            cur["retire"] = int(parts[2])
        else:
            cur[parts[1]] = int(parts[2])
    assert len(insts) == summary["events"], (len(insts), summary)
    retired = [i for i in insts if i["retire"] > 0]
    assert len(retired) == 20000 == summary["traced_retired"]
    # The window is the retire stream's [1000, 21000) slice: retire
    # cycles never decrease across the file.
    last = 0
    for i in retired:
        assert i["retire"] >= last, i
        last = i["retire"]
    for i in insts:
        stages = [i[s] for s in ("fetch", "decode", "rename", "dispatch",
                                 "issue", "complete")]
        assert stages == sorted(stages), i
        assert i["retire"] == 0 or i["retire"] >= i["complete"], i


def trace_spec_block():
    (rec,) = jsonl(run(rix("run", spec("traced_mcf.json")),
                       RIX_JOBS=1).stdout)
    retire_lines = [l for l in read("traced_mcf.kanata").splitlines()
                    if re.match(r"O3PipeView:retire:[1-9]", l)]
    assert len(retire_lines) == 20000, len(retire_lines)
    rows = jsonl(read("traced_mcf_metrics.jsonl"))
    assert rows and all("retired" in r and "interval" in r for r in rows)
    # profile: true arms the host-phase profiler; its fields ride the
    # rendered report (and only then).
    assert rec["host_detailed_sim_s"] > 0, rec
    assert sum(r["retired"] for r in rows) == rec["retired"], rec


# ---- serve ----

def serve_smoke():
    loads = ["gzip", "mcf", "crafty", "bzip2", "gcc"]
    requests = "".join(
        json.dumps({"op": "run", "id": i, "workload": loads[i % 5],
                    "max_retired": 20000}) + "\n" for i in range(100))
    with Daemon("serve_smoke", ["--jobs", "2", "--queue", "128"]) as d:
        runs = jsonl(d.submit(stdin=requests))
        # Counters read in quiescence, after every run completed (stats
        # requests are answered inline and would otherwise race the
        # queue).
        stats = json.loads(d.submit('{"op": "stats"}'))
        assert len(runs) == 100, len(runs)
        assert all(r["status"] == "ok" and r["retired"] > 0 for r in runs)
        assert stats["completed"] == 100 and stats["jobs_ok"] == 100, stats
        assert stats["overloaded"] == 0 and stats["malformed"] == 0, stats
        assert stats["prog_cache_hits"] >= 95, stats  # 5 cold builds
        # Per-op latency distributions and the host-phase profile ride
        # the stats row (the profiler is always armed under rix serve).
        assert stats["lat_run_samples"] == 100, stats
        assert 0 < stats["lat_run_p50_us"] <= stats["lat_run_p99_us"], stats
        assert stats["host_detailed_sim_s"] > 0, stats
        assert stats["host_serve_request_s"] > 0, stats
        # Identical requests simulate identically through the cache.
        by_id = {r["id"]: r for r in runs}
        for i in range(5, 100):
            assert by_id[i]["cycles"] == by_id[i % 5]["cycles"], i
        d.shutdown()


def diagnostics():
    # Every failure is a non-zero exit with a diagnostic on stderr and
    # an empty stdout (never partial JSON).
    p = run(rix("serve", "/nonexistent-dir/rix.sock"), rc=None)
    assert p.returncode != 0 and p.stdout == "", p
    assert len(p.stderr.splitlines()) == 1, p.stderr
    assert "cannot bind" in p.stderr, p.stderr
    p = run(rix("submit", "/tmp/no-daemon-here.sock", '{"op": "ping"}'),
            rc=1)
    assert p.stdout == "" and "cannot connect" in p.stderr, p
    p = run(rix("run", "/tmp/missing_spec.json"), rc=None)
    assert p.returncode != 0 and p.stdout == "", p
    # A figure spec missing a config label its table reads fails at
    # parse time: `rix validate` names the label, and `rix run` exits
    # before any job runs (every job would write a metrics file).
    fig4 = json.loads(read(spec("fig4.json")))
    fig4["workloads"] = ["gcc", "gzip"]
    fig4["configs"][0]["label"] = "baseline"
    fig4["metrics"] = {"every": 100000, "out": "no_base_metrics.jsonl"}
    with open("fig4_no_base.json", "w") as f:
        json.dump(fig4, f)
    for cmd in ("validate", "run"):
        p = run(rix(cmd, "fig4_no_base.json"), rc=1)
        assert p.stdout == "" and "labeled 'base'" in p.stderr, (cmd, p)
    assert not glob.glob("no_base_metrics.jsonl*"), "a job ran"
    # --explore takes plain digits, like every other count.
    for pct in (" 50", "+50", "-0", "101"):
        p = run(rix("fuzz", "--explore", pct), rc=2)
        assert p.stdout == "", (pct, p.stdout)
        assert "--explore wants a percentage" in p.stderr, (pct, p.stderr)
    # So do `rix run --scale` and the `rix serve` flags; a rejected
    # daemon leaves no socket behind.
    for bad in ("0", "abc", "4x"):
        p = run(rix("run", "--scale", bad, spec("gate.json")), rc=1)
        assert p.stdout == "", (bad, p.stdout)
        assert "rix run --scale" in p.stderr, (bad, p.stderr)
    sock = "/tmp/rix_diagnostics_%d.sock" % os.getpid()
    for flag, bad in (("--queue", "0"), ("--cache-bytes", "garbage")):
        p = run(rix("serve", sock, flag, bad), rc=1)
        assert "rix serve " + flag in p.stderr, (flag, p.stderr)
        assert not os.path.exists(sock), "socket left behind"

    # A failed write of a render or a trace is an exit 1 with one
    # diagnostic line naming the destination, and nothing on stdout.
    def write_failed(p, dest):
        assert not p.stdout, p.stdout
        lines = [l for l in p.stderr.splitlines() if "write failed" in l]
        assert len(lines) == 1 and dest in lines[0], p.stderr

    write_failed(run(rix("run", "--out", "/dev/full", spec("gate.json")),
                     rc=1), "/dev/full")
    with open("/dev/full", "w") as full:
        p = subprocess.run(rix("run", spec("gate.json")), stdout=full,
                           stderr=subprocess.PIPE, text=True,
                           env=rix_env({}), timeout=COMMAND_TIMEOUT_S)
    assert p.returncode == 1, p
    write_failed(p, "'stdout'")
    run(rix("run", "--store", "gate.rixstore", spec("gate.json")))
    write_failed(run(rix("resume", "--out", "/dev/full", "gate.rixstore"),
                     rc=1), "/dev/full")
    write_failed(run(rix("trace", "gzip", "--count", "1000", "--out",
                         "/dev/full"), rc=1), "/dev/full")
    with open("traced_full.json", "w") as f:
        json.dump({"name": "traced_full", "workloads": ["gzip"],
                   "max_retired": 20000,
                   "configs": [{"label": "base"}],
                   "trace": {"count": 1000, "out": "/dev/full"}}, f)
    write_failed(run(rix("run", "traced_full.json"), rc=1), "/dev/full")


# ---- fault ----

def kill9_resume():
    # Kill a journaled sweep once at least one record is committed,
    # then prove `rix resume` finishes exactly the remaining jobs and
    # the merged store is simulated-field bit-identical to an
    # uninterrupted run.
    gate_sweep("gate_fresh.rixstore")
    p = subprocess.Popen(rix("run", "--store", "kill9.rixstore",
                             spec("gate.json")),
                         stdout=subprocess.DEVNULL,
                         env=rix_env({"RIX_JOBS": 1}))
    try:
        while True:
            try:
                size = os.path.getsize("kill9.rixstore")
            except FileNotFoundError:
                size = 0
            if size > 1500 or p.poll() is not None:
                break
            time.sleep(0.002)
    finally:
        killed = p.poll() is None
        if killed:
            p.send_signal(signal.SIGKILL)
        p.wait()
    if killed:
        print("killed mid-sweep at %d bytes" % size)
    else:
        print("sweep finished before the kill landed; "
              "resume degenerates to a no-op render")
    resumed = run(rix("resume", "kill9.rixstore"))
    print(resumed.stderr, end="")
    run(rix("compare", "--require-complete", "gate_fresh.rixstore",
            "kill9.rixstore"))
    # The rendered document carries every job of the grid exactly once.
    with open(spec("gate.json")) as f:
        grid = json.load(f)
    jobs = len(grid["workloads"]) * len(grid["configs"])
    rows = jsonl(resumed.stdout)
    assert len(rows) == jobs, (len(rows), jobs)
    keys = {(r["workload"], r["config"]) for r in rows}
    assert len(keys) == jobs, keys
    assert all(r["status"] == "ok" and r["retired"] > 0 for r in rows)


def serve_fault_drill():
    # Injected hangs, crashes and transients through the runtime
    # JobInject channel: the watchdog reaps hangs, retries recover
    # transients, and the daemon survives all of it.
    with Daemon("serve_fault_drill", ["--jobs", "2", "--allow-inject"],
                RIX_TIMEOUT_MS=2000, RIX_RETRIES=2) as d:
        out = d.submit(
            '{"op": "run", "id": "ok1", "workload": "gzip", '
            '"max_retired": 50000}',
            '{"op": "run", "id": "crash", "workload": "mcf", '
            '"inject": "crash"}',
            '{"op": "run", "id": "hang", "workload": "mcf", '
            '"inject": "hang", "timeout_ms": 200, "retries": 0}',
            '{"op": "run", "id": "flaky", "workload": "gzip", '
            '"inject": "transient", "max_retired": 50000}',
            '{"op": "run", "id": "ok2", "workload": "gzip", '
            '"max_retired": 50000}',
            rc=3)  # some requests failed => submit says so
        by_id = {r["id"]: r for r in jsonl(out)}
        assert by_id["ok1"]["status"] == "ok" and \
            by_id["ok2"]["status"] == "ok"
        assert by_id["crash"]["status"] == "crash"
        assert by_id["hang"]["status"] == "timeout", by_id["hang"]
        assert by_id["flaky"]["status"] == "ok" and \
            by_id["flaky"]["attempts"] == 2
        # Poisoned neighbours do not perturb healthy simulated numbers.
        assert by_id["ok1"]["cycles"] == by_id["ok2"]["cycles"]
        d.shutdown()  # it survived everything above and still drains


# ---- fault-inject (a -DRIX_FAULT_INJECT=ON build only) ----

def fault_fuzz_blind():
    # The planted ADDQ fault makes the campaign fail loudly, with a
    # minimized, replayable reproducer.
    run(rix("fuzz", "--seeds", "10", "--out", "fault_repro.txt"), rc=1,
        RIX_JOBS=2)
    repro = read("fault_repro.txt")
    assert repro, "empty reproducer"
    assert "DIVA divergence (value)" in repro
    assert "# replay:" in repro


def fault_fuzz_guided():
    # Same seed budget as the blind run: the guided campaign also lands
    # on the planted fault, but it runs the whole budget and collapses
    # the repeated hits to a handful of distinct fingerprints.
    rec = last_json(run(rix("fuzz", "--guided", "--seeds", "10", "--out",
                            "fault_guided_repro.txt"), rc=1,
                        RIX_JOBS=2).stdout)
    repro = read("fault_guided_repro.txt")
    assert repro, "empty reproducer"
    assert "# fingerprint:" in repro
    assert "# failure kind:" in repro
    assert "# minimized failure kind:" in repro
    assert rec["guided"] == 1 and rec["fault_injected"] == 1, rec
    assert rec["divergences"] == 1, rec
    assert rec["failures"] >= 1, rec
    assert 1 <= rec["unique_failures"] <= rec["failures"], rec
    # The fault fires on nearly every program, so the dedupe actually
    # collapses something.
    assert rec["failures"] > rec["unique_failures"], rec


DRILLS = {f.__name__: f for f in (
    throughput, zero_overhead, validate_specs, fig5_jobs_identical,
    scenario_sweeps, paper_claims, sampled_smoke, sampled_exact_equals_full,
    sampled_speedup, functional, raw_word_decode_confined, fuzz_blind,
    fuzz_guided, gate, compare_forged_divergence, trace, trace_spec_block,
    serve_smoke, diagnostics, kill9_resume, serve_fault_drill,
    fault_fuzz_blind, fault_fuzz_guided)}


def main():
    global BUILD, SRC
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("drill", choices=sorted(DRILLS))
    ap.add_argument("--build", required=True, help="cmake build tree")
    ap.add_argument("--src", required=True, help="source tree")
    a = ap.parse_args()
    BUILD, SRC = os.path.realpath(a.build), os.path.realpath(a.src)
    here = os.path.realpath(os.getcwd())
    assert here != BUILD and os.path.commonpath([here, BUILD]) == BUILD, \
        "run a drill from its own directory under --build"
    for name in os.listdir(here):
        p = os.path.join(here, name)
        if os.path.isdir(p) and not os.path.islink(p):
            shutil.rmtree(p)
        else:
            os.unlink(p)
    DRILLS[a.drill]()
    print("cli.%s OK" % a.drill)


if __name__ == "__main__":
    sys.exit(main())
