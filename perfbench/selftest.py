#!/usr/bin/env python3
"""Self-tests of the benchmark itself. Run from the root of a source tree:

    python3 perfbench/selftest.py

Builds the binaries if needed (through run.py) and checks that:
  1. the paper reference table matches EXPERIMENTS.md's Fig. 3 / Fig. 5 rows;
  2. a run fed a deliberately broken conservation input is reported failed;
  3. the exact per-layer counts and model values repeat bit-for-bit across
     two traced runs of different lengths, on every workload;
  4. the traced run's layer self times sum to its total;
  5. an end-to-end run reports every BENCHMARK.json metric, never 0;
  6. run.py, in a directory holding only BENCHMARK.json and perfbench/,
     exits non-zero without printing a result.
Takes a few minutes; tcp_paper dominates.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench")
FAILURES = []


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        FAILURES.append(what)


def bench_binary(traced, *args):
    name = "perfbench_traced" if traced else "perfbench"
    out = subprocess.run([os.path.join(BUILD, name)] + list(args),
                         capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError("%s %s: exit %d\n%s"
                           % (name, " ".join(args), out.returncode, out.stderr))
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_py(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py"] + list(args),
                          cwd=cwd, capture_output=True, text=True, timeout=900)


def experiments_rows():
    """{(figure, series, clients): (paper ops/s, paper %UDP or None)}."""
    rows, fig = {}, None
    with open(os.path.join(ROOT, "EXPERIMENTS.md")) as f:
        for line in f:
            m = re.match(r"## (Figure \d+)", line)
            if m:
                fig = m.group(1)
                continue
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if fig and len(cells) == 6 and cells[1].isdigit():
                pct = cells[5].rstrip("%")
                rows[(fig, cells[0], int(cells[1]))] = (
                    float(cells[3].replace(" ", "")),
                    float(pct) if pct else None)
    return rows


def test_paper_reference():
    ref = bench_binary(False, "--paper-reference")
    rows = experiments_rows()
    series = {"tcp50": "TCP 50 ops/conn", "tcp_persistent": "TCP persistent"}
    for c in ref["cells"]:
        name = series[c["cell"].rsplit("_", 1)[0]]
        ops, pct = rows[(c["figure"], name, c["clients"])]
        check(ops == c["tcp_ops_per_s"] and round(c["pct_udp"], 1) == pct,
              "paper reference %s = %s %s at %d clients (%.0f ops/s, %.1f%%)"
              % (c["cell"], c["figure"], name, c["clients"], ops, pct))
        udp, _ = rows[("Figure 3", "UDP", c["clients"])]
        check(udp == c["udp_ops_per_s"],
              "paper UDP bar for %s is Fig. 3's %d-client UDP row"
              % (c["cell"], c["clients"]))
    udp1000, _ = rows[("Figure 3", "UDP", 1000)]
    check(udp1000 == ref["udp_1000_ops_per_s"],
          "UDP anchor is Fig. 3's 1000-client UDP row (%.0f ops/s)" % udp1000)


def test_broken_input():
    r = bench_binary(False, "--workload", "udp_steady", "--seed", "1",
                     "--seconds", "1", "--break-conservation")
    check(not r["correct"] and r["failed"] == r["attempted"] > 0
          and any("udpSent" in v for v in r["violations"]),
          "broken conservation input is reported failed (%d of %d calls)"
          % (r["failed"], r["attempted"]))


def test_exact_repeat(workload, meta):
    exact = [n for n, m in meta["per_layer"].items() if m["exact"]]
    a, b = (bench_binary(True, "--workload", workload, "--seed", "2",
                         "--seconds", s) for s in ("1", "8"))
    for r in (a, b):
        t = r["trace"]
        check(sum(t["layer_self_ns"].values()) == t["total_ns"] > 0,
              "%s: layer self times sum to the traced total (%d ns)"
              % (workload, t["total_ns"]))
        check(r["correct"], "%s: traced run correct %s"
              % (workload, r["violations"][:2]))
    diff = [n for n in exact if a["metrics"][n] != b["metrics"][n]]
    check(not diff, "%s: %d exact metrics repeat across runs of %d and %d "
          "repetitions %s" % (workload, len(exact), a["repetitions"],
                              b["repetitions"], diff))


def test_end_to_end(bench):
    out = run_py(ROOT, "--workload", "udp_steady", "--seed", "1",
                 "--seconds", "2", "--trace", "0")
    check(out.returncode == 0, "run.py end-to-end run exits 0")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    want = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    check(set(res) == {"correct", "attempted", "failed", "metrics"}
          and got == want and res["correct"],
          "result line has exactly the end-to-end metrics, with units")
    check(all(v["value"] > 0 for v in res["metrics"].values()),
          "no end-to-end metric is 0")


def test_stripped_directory():
    tmp = os.path.join(BUILD, "selftest-stripped")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
    shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_py(tmp, "--workload", "udp_steady", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    shutil.rmtree(tmp, ignore_errors=True)
    check(out.returncode != 0 and not out.stdout.strip(),
          "without the simulator sources run.py fails and prints no result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        meta = json.load(f)
    check(set(meta["per_layer"]) == {m["name"] for m in bench["per_layer"]},
          "metrics.json maps every per-layer metric to end-to-end metrics")
    test_end_to_end(bench)  # also builds the binaries
    test_paper_reference()
    test_broken_input()
    for w in bench["workloads"]:
        test_exact_repeat(w["name"], meta)
    test_stripped_directory()
    print("%d failure(s)" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
