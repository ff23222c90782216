#!/usr/bin/env python3
"""Stage split of one hostprof sample file.

  python3 tools/hostprof/report.py hostprof.<pid>.out BINARY [--json]

The sample file comes from sampler.cc (LD_PRELOAD it into BINARY). Each
sampled PC is mapped through the recorded /proc/self/maps to an offset
in BINARY, then through BINARY's ELF load segments to a link-time
address, then to the function holding it (`nm -C -S`). stages.tsv, next
to this script, maps function names to pipeline stages and substrates:
the first row whose regular expression matches the demangled name
wins. Samples outside BINARY (libc, libstdc++, the vDSO) are counted
but not split. Functions no row matches print by name under "other".

--json prints one object instead: samples, in_binary, mapped_frac
(share of in-binary samples that map to a stage), the per-stage
shares and the unmapped functions.
"""

import argparse
import bisect
import collections
import json
import os
import re
import struct
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def read_samples(path):
    """(maps rows, pcs) from a sampler output file."""
    maps, pcs = [], []
    section = None
    with open(path) as f:
        for line in f:
            if line.startswith("# hostprof maps"):
                section = "maps"
            elif line.startswith("# hostprof samples"):
                section = "pcs"
            elif section == "maps":
                maps.append(line.split())
            elif section == "pcs" and line.strip():
                pcs.append(int(line, 16))
    if section != "pcs":
        sys.exit("report.py: %s is not a complete hostprof file" % path)
    return maps, pcs


def binary_ranges(maps, binary):
    """[(start, end, file offset)] of BINARY's mappings."""
    real = os.path.realpath(binary)
    out = []
    for row in maps:
        if len(row) >= 6 and os.path.realpath(row[5]) == real:
            start, end = (int(x, 16) for x in row[0].split("-"))
            out.append((start, end, int(row[2], 16)))
    return out


def load_segments(binary):
    """[(file offset, file size, vaddr)] of BINARY's PT_LOAD segments
    (64-bit little-endian ELF)."""
    with open(binary, "rb") as f:
        head = f.read(64)
        if head[:4] != b"\x7fELF" or head[4] != 2 or head[5] != 1:
            sys.exit("report.py: %s is not a 64-bit little-endian ELF" % binary)
        phoff, = struct.unpack_from("<Q", head, 32)
        phentsize, phnum = struct.unpack_from("<HH", head, 54)
        segs = []
        for i in range(phnum):
            f.seek(phoff + i * phentsize)
            p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack(
                "<IIQQQQ", f.read(40))
            if p_type == 1:  # PT_LOAD
                segs.append((p_offset, p_filesz, p_vaddr))
    return segs


def symbols(binary):
    """Sorted [(addr, size, name)] of BINARY's code symbols."""
    out = subprocess.run(["nm", "-C", "-S", "--defined-only", binary],
                         capture_output=True, text=True, check=True).stdout
    syms = []
    for line in out.splitlines():
        m = re.match(r"^([0-9a-f]+) (?:([0-9a-f]+) )?([tTwWiI]) (.*)$", line)
        if m:
            syms.append((int(m.group(1), 16), int(m.group(2) or "0", 16),
                         m.group(4)))
    syms.sort()
    return syms


def stage_table(path):
    rows = []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            stage, pattern = line.split("\t", 1)
            rows.append((stage, re.compile(pattern)))
    return rows


def function_of(pc, ranges, segs, syms, starts):
    for start, end, off in ranges:
        if start <= pc < end:
            file_off = pc - start + off
            break
    else:
        return None  # not in BINARY
    for p_offset, p_filesz, p_vaddr in segs:
        if p_offset <= file_off < p_offset + p_filesz:
            vaddr = file_off - p_offset + p_vaddr
            break
    else:
        return "?"
    i = bisect.bisect_right(starts, vaddr) - 1
    if i < 0:
        return "?"
    addr, size, name = syms[i]
    if size and vaddr >= addr + size:
        return "?"
    return name


def split(sample_file, binary, table_file):
    # The sampler writes its file when the profiled process exits, so a
    # newer BINARY was relinked since, and its addresses would resolve
    # the samples to the wrong functions.
    if os.path.getmtime(binary) > os.path.getmtime(sample_file):
        sys.exit("report.py: %s is newer than %s; profile it again"
                 % (binary, sample_file))
    maps, pcs = read_samples(sample_file)
    ranges = binary_ranges(maps, binary)
    segs = load_segments(binary)
    syms = symbols(binary)
    starts = [s[0] for s in syms]
    table = stage_table(table_file)

    funcs = collections.Counter()
    outside = 0
    for pc in pcs:
        name = function_of(pc, ranges, segs, syms, starts)
        if name is None:
            outside += 1
        else:
            funcs[name] += 1

    stages = collections.Counter()
    by_stage = collections.defaultdict(collections.Counter)
    unmapped = collections.Counter()
    for name, n in funcs.items():
        stage = next((s for s, rx in table if rx.search(name)), None)
        if stage is None:
            unmapped[name] += n
        else:
            stages[stage] += n
            by_stage[stage][name] += n
    in_binary = sum(funcs.values())
    return {
        "samples": len(pcs),
        "in_binary": in_binary,
        "outside_binary": outside,
        "mapped_frac": (sum(stages.values()) / in_binary) if in_binary else 0.0,
        "stages": {s: n / in_binary for s, n in stages.most_common()},
        "stage_samples": dict(stages.most_common()),
        "top": {s: by_stage[s].most_common(3) for s in stages},
        "unmapped": unmapped.most_common(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("samples", help="hostprof.<pid>.out")
    ap.add_argument("binary", help="the profiled executable")
    ap.add_argument("--json", action="store_true")
    a = ap.parse_args()
    r = split(a.samples, a.binary, os.path.join(HERE, "stages.tsv"))
    if a.json:
        print(json.dumps(r))
        return
    print("%d samples, %d in %s, %d outside it; %.1f%% of in-binary "
          "samples map to a stage" % (r["samples"], r["in_binary"],
                                      a.binary, r["outside_binary"],
                                      100 * r["mapped_frac"]))
    for stage, frac in r["stages"].items():
        top = ", ".join("%s %d" % (n, c) for n, c in r["top"][stage])
        print("  %-16s %5.1f%%  %s" % (stage, 100 * frac, top))
    if r["unmapped"]:
        other = sum(n for _, n in r["unmapped"])
        print("  %-16s %5.1f%%" % ("other", 100 * other / r["in_binary"]))
        for name, n in r["unmapped"][:15]:
            print("      %5d  %s" % (n, name))


if __name__ == "__main__":
    main()
