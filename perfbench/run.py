#!/usr/bin/env python3
"""Host-cost benchmark of the siprox simulator.

Run from the root of a source tree:

    python3 perfbench/run.py --workload udp_steady --seed 1 --seconds 30 --trace 0

It builds the simulator from ../src together with the benchmark binaries
(perfbench/CMakeLists.txt) under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs one workload, and prints:

  * one JSON line with the full, self-describing record (workload, seed,
    build, source digest, repetitions, checks, every metric, and with
    --trace 1 the per-layer span totals);
  * one "name value unit" line per metric;
  * last, the result line {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured
untraced. --trace 1 reports its per-layer metrics, from a separate build
whose layer entry points are wrapped at link time.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Each run must end within this many seconds of the build finishing.
RUN_LIMIT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def source_digest():
    """SHA-256 over the simulator and benchmark sources, in path order."""
    h = hashlib.sha256()
    for top in ("src", os.path.relpath(HERE, ROOT)):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".hh", ".txt", ".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_group(cmd, timeout=None, **kw):
    """Run @cmd in its own process group; on timeout or any exception
    (SIGTERM included), kill the whole group and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        raise
    return proc.returncode, out, err


def build(build_dir):
    """Configure once, then build both binaries (a no-op when current)."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
        steps.append(["cmake", "--build", build_dir, "--parallel", jobs])
        for cmd in steps:
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            if run_group(cmd, stdout=log, stderr=subprocess.STDOUT)[0]:
                log.close()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)


def run_bench(binary, args, deadline):
    try:
        code, out, err = run_group(
            [binary] + args, timeout=max(1.0, deadline - time.monotonic()),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail("%s exceeded the run time limit" % binary)
    sys.stderr.write(err)
    if code != 0:
        fail("%s exited with code %d" % (binary, code))
    lines = [l for l in out.splitlines() if l.startswith("{")]
    if not lines:
        fail("%s printed no record" % binary)
    return json.loads(lines[-1])


def on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, on_signal)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    if a.workload not in names:
        fail("unknown workload %r (have %s)" % (a.workload, ", ".join(names)))
    if not os.path.exists(os.path.join(ROOT, "src", "workload", "scenario.hh")):
        fail("simulator sources (src/) not found next to %s" % HERE)

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    build(build_dir)
    deadline = time.monotonic() + RUN_LIMIT_S

    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", repr(a.seconds)]
    if a.trace:
        binary = os.path.join(build_dir, "perfbench_traced")
        args += ["--spans", os.path.join(results, "spans-%s.csv" % a.workload)]
        wanted = bench["per_layer"]
    else:
        binary = os.path.join(build_dir, "perfbench")
        wanted = bench["end_to_end"]
    record = run_bench(binary, args, deadline)

    meta = load_json(os.path.join(HERE, "metrics.json"))
    record.update({
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "why": next(w["why"] for w in bench["workloads"]
                    if w["name"] == a.workload),
        "held_out_seed": meta["held_out_seed"],
        "layer_to_end_to_end": {m["name"]: meta["per_layer"].get(m["name"])
                                for m in bench["per_layer"]} if a.trace else {},
    })
    with open(os.path.join(results, "%s-seed%d-trace%d.json"
                           % (a.workload, a.seed, a.trace)), "w") as f:
        json.dump(record, f, indent=1)

    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("%s did not report %s in %s" % (binary, m["name"], m["unit"]))
        metrics[m["name"]] = got

    print(json.dumps(record, sort_keys=True))
    for name, m in metrics.items():
        print("%-34s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": bool(record["correct"]),
                      "attempted": int(record["attempted"]),
                      "failed": int(record["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
