#!/usr/bin/env python3
"""Gate CI on hot-path perf regressions.

Usage: check_perf.py CHECKED_IN.json FRESH.json

Compares the micro-benchmarks of a fresh perf_harness run (its
"current" section) against the checked-in BENCH_hotpath.json. The
reference for each metric is max(baseline, current) from the
checked-in file: "baseline" pins the pre-rework numbers, "current"
the last recorded state, and a micro is allowed to sit wherever the
slower of the two puts it, plus headroom.

Fails (exit 1) when a micro regresses by more than REGRESSION_SLACK
(10%) over its reference:
  - ns_per_op_min: the fastest of the harness's repeated trials of a
    micro (a single wall-clock shot failed this gate on unchanged code;
    the minimum of several does not swing with a busy neighbour). The
    10% rides on top of the slower of the two recorded minimums; a
    section recorded before trials existed contributes its single-shot
    ns_per_op instead.
  - allocs_per_op: allocation count (deterministic, counted by the
    harness's interposed operator new; an extra +0.5 absolute slack
    absorbs amortized-growth rounding)

Also gates each sweep against the checked-in "current" sweep of the
same name (the baseline's pre-rework counts would make no gate):
  - events: simulated events, a function of simulated behaviour only,
    so it must equal the reference exactly
  - allocs_per_op: the same 10% + 0.5 budget as the micros

Also gates peak RSS: the harness records getrusage peak_rss_kb per
section, and the fresh run's footprint may not exceed the slower of
the checked-in baseline/current values by more than RSS_SLACK (10%).
Memory regressions rarely show in ns_per_op — a leaked or oversized
retained pool costs wall time only at the 100k-phone scale, so the
footprint needs its own gate. The per-phone footprint (the growth of
peak RSS between two UDP fleet sizes, phone_footprint.kb_per_phone) is
gated the same way: it is what sets the RSS of the 100k-phone rung,
and the whole-process peak above hides it behind the 100k-AOR cluster.
So is its coroutine-frame part (the growth of the fleets'
mem.framePoolPeakBytes per phone added, phone_footprint.
frame_kb_per_phone), which no allocator or page-size noise blurs.

Micros present in only one file are reported but never fail the run,
so adding a new benchmark does not require regenerating the baseline
in the same commit. Smoke-mode fresh runs (SIPROX_PERF_SMOKE=1) are
skipped: their iteration counts are too small to gate on.

Every run prints the full delta table — metric, reference, fresh
value, % change, verdict — not just the failures, so a CI log answers
"how close are we to the budget" without rerunning anything.
"""

import json
import sys

REGRESSION_SLACK = 0.10
ALLOC_ABS_SLACK = 0.5
RSS_SLACK = 0.10


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_perf: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def micros(doc, section):
    return doc.get(section, {}).get("micros", {})


def sweeps(doc, section):
    return doc.get(section, {}).get("sweeps", {})


def min_ns(m):
    """Fastest trial of a micro; older single-shot records have only
    ns_per_op."""
    return m.get("ns_per_op_min", m.get("ns_per_op"))


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    checked = load(sys.argv[1])
    fresh = load(sys.argv[2])

    if fresh.get("smoke"):
        print("check_perf: fresh run is smoke mode; nothing to gate")
        return

    ref_base = micros(checked, "baseline")
    ref_cur = micros(checked, "current")
    measured = micros(fresh, "current")

    print(f"  {'metric':38s} {'reference':>10s} {'fresh':>10s} "
          f"{'delta':>8s} {'allowed':>10s}  verdict")
    failures = []

    def row(metric, ref, got, allowed, exact=False):
        ok = got == allowed if exact else got <= allowed
        verdict = "ok" if ok else ("MISMATCH" if exact else "REGRESSION")
        delta = (got - ref) / ref if ref > 0.0 else 0.0
        print(f"  {metric:38s} {ref:10.1f} {got:10.1f} "
              f"{delta:+8.1%} {allowed:10.1f}  {verdict}")
        if not ok:
            failures.append(
                f"{metric}: {got:.1f} {'!=' if exact else '>'} allowed "
                f"{allowed:.1f} (ref {ref:.1f} {delta:+.1%})")

    for name, m in sorted(measured.items()):
        refs = [r[name] for r in (ref_base, ref_cur) if name in r]
        if not refs:
            print(f"  {name:38s} new micro, no reference — skipped")
            continue
        for key, get, abs_slack in (
                ("ns_per_op_min", min_ns, 0.0),
                ("allocs_per_op", lambda r: r.get("allocs_per_op"),
                 ALLOC_ABS_SLACK)):
            got = get(m)
            ref = max((get(r) or 0.0 for r in refs), default=0.0)
            if got is None or ref <= 0.0:
                continue
            row(f"{name}.{key}", ref, got,
                ref * (1.0 + REGRESSION_SLACK) + abs_slack)

    ref_sweeps = sweeps(checked, "current")
    for name, s in sorted(sweeps(fresh, "current").items()):
        ref = ref_sweeps.get(name)
        if ref is None:
            print(f"  {name:38s} new sweep, no reference — skipped")
            continue
        if "events" in s and "events" in ref:
            ref_ev = float(ref["events"])
            row(f"{name}.events", ref_ev, float(s["events"]), ref_ev,
                exact=True)
        if "allocs_per_op" in s and ref.get("allocs_per_op", 0.0) > 0.0:
            ref_al = ref["allocs_per_op"]
            row(f"{name}.allocs_per_op", ref_al, s["allocs_per_op"],
                ref_al * (1.0 + REGRESSION_SLACK) + ALLOC_ABS_SLACK)

    got_rss = fresh.get("current", {}).get("peak_rss_kb")
    ref_rss = max(
        (checked.get(s, {}).get("peak_rss_kb", 0)
         for s in ("baseline", "current")),
        default=0)
    if got_rss is not None and ref_rss > 0:
        row("peak_rss_kb", float(ref_rss), float(got_rss),
            ref_rss * (1.0 + RSS_SLACK))

    def per_phone(doc, section, key):
        return doc.get(section, {}).get("phone_footprint", {}).get(key)

    for key in ("kb_per_phone", "frame_kb_per_phone"):
        got_kb = per_phone(fresh, "current", key)
        ref_kb = max((v for v in (per_phone(checked, s, key)
                                  for s in ("baseline", "current"))
                      if v is not None), default=0.0)
        if got_kb is not None and ref_kb > 0:
            row(f"phone_footprint.{key}", ref_kb, got_kb,
                ref_kb * (1.0 + RSS_SLACK))

    if failures:
        print(f"\ncheck_perf: {len(failures)} regression(s) over "
              f"budget:", file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        sys.exit(1)
    print("check_perf: all micros and sweeps within budget")


if __name__ == "__main__":
    main()
