#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark results.

    bench/e2e/compare.py A B

A and B are each a directory of result files written by
`run.sh --out FILE` (or a single such file): A is the baseline (the
parent commit), B the change. Run them as alternating pairs (A, B, A, B,
...) and name the files so that they sort in run order; the i-th file of
A is paired with the i-th file of B. Every run of a workload must have
run the same op counts; the script refuses to compare runs that did not.

For every workload and every end-to-end metric (BENCHMARK.json
end_to_end, plus the workload-specific metrics of bounds.json) it prints
each side's median and quartiles, the share of pairs B wins, and a
verdict:

  REGRESSION    B's median is worse than A's by more than the bound
  unresolved    A's own IQR is wider than the bound, and not every run
                of B beats every run of A
  better        as "unresolved", but every run of B beats every run of A
  GAIN          B wins at least 9 of 10 pairs and the medians differ by
                more than A's IQR
  ok            within the bound

A bound is a share of A's median, raised to the metric's absolute floor
where bounds.json gives one. The exit code is 1 when any metric
regresses or any run failed its correctness gates, and 2 when the runs
cannot be compared.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def refuse(msg):
    print(f"compare.py: {msg}", file=sys.stderr)
    sys.exit(2)


def load_runs(path):
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith(".json"))
    runs = []
    for f in files:
        with open(f) as fh:
            runs.append((os.path.basename(f), json.load(fh)))
    if not runs:
        refuse(f"no result files in {path}")
    return runs


def load_specs():
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "bounds.json")) as fh:
        extra = json.load(fh)
    floors = extra.get("floors", {})
    specs = []  # (name, unit, better, bound, floor, workloads or None)
    for m in bench["end_to_end"]:
        specs.append((m["name"], m["unit"], m["better"], m["bound"],
                      floors.get(m["name"], 0.0), None))
    for m in extra["workload_metrics"]:
        specs.append((m["name"], m["unit"], m["better"], m["bound"],
                      floors.get(m["name"], 0.0), set(m["workloads"])))
    return specs


def check_same_work(runs, workloads):
    """Exits 2 unless every run of each workload ran the same op counts."""
    for w in workloads:
        counts = {r["workloads"][w]["provenance"]["ops"]
                  for _, r in runs if w in r["workloads"]}
        if len(counts) > 1:
            refuse(f"{w} runs differ in op counts "
                   f"({' / '.join(sorted(counts))}); rerun both sides "
                   "with the same --seconds and --smoke")


def values(runs, workload, metric):
    out = []
    for _, r in runs:
        w = r["workloads"].get(workload)
        if w is None:
            continue
        for section in ("end_to_end", "workload_metrics"):
            if metric in w[section]:
                out.append(w[section][metric]["value"])
    return out


def quartiles(v):
    med = statistics.median(v)
    if len(v) < 2:
        return med, med, med
    q = statistics.quantiles(v, n=4)
    return med, q[0], q[2]


def verdict(a, b, better, bound, floor):
    a_med, a_q1, a_q3 = quartiles(a)
    b_med, _, _ = quartiles(b)
    sign = 1 if better == "lower" else -1
    worse = sign * (b_med - a_med)  # > 0: B is worse
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    win_rate = wins / len(pairs) if pairs else 0.0
    allowed = max(bound * abs(a_med), floor)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if a_q3 - a_q1 > allowed:
        return ("better" if all_better else "unresolved"), win_rate
    if worse > allowed:
        return "REGRESSION", win_rate
    if worse < 0 and win_rate >= 0.9 and -worse > (a_q3 - a_q1):
        return "GAIN", win_rate
    return "ok", win_rate


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    a_runs, b_runs = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    specs = load_specs()
    failed = False
    for side, runs in (("A", a_runs), ("B", b_runs)):
        for name, r in runs:
            for w, res in r["workloads"].items():
                if not res["correct"]:
                    failed = True
                    print(f"{side} {name} {w}: correctness gate failed: "
                          f"{res['gate_failures']}")
    in_b = {w for _, r in b_runs for w in r["workloads"]}
    workloads = []
    for _, r in a_runs:
        workloads += [w for w in r["workloads"]
                      if w in in_b and w not in workloads]
    check_same_work(a_runs + b_runs, workloads)
    print(f"A = {sys.argv[1]} ({len(a_runs)} runs), "
          f"B = {sys.argv[2]} ({len(b_runs)} runs)")
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':22} {'A median [q1, q3]':>32} "
              f"{'B median [q1, q3]':>32} {'change':>8} {'B wins':>7} "
              f"{'bound':>6}  verdict")
        for name, unit, better, bound, floor, only in specs:
            if only is not None and w not in only:
                continue
            a, b = values(a_runs, w, name), values(b_runs, w, name)
            if not a or not b:
                continue
            v, win_rate = verdict(a, b, better, bound, floor)
            failed = failed or v == "REGRESSION"
            am, aq1, aq3 = quartiles(a)
            bm, bq1, bq3 = quartiles(b)
            change = (bm - am) / am if am else 0.0
            print(f"  {name:22} {am:11.4g} [{aq1:8.4g}, {aq3:8.4g}] "
                  f"{bm:11.4g} [{bq1:8.4g}, {bq3:8.4g}] {change:+8.1%} "
                  f"{win_rate:7.0%} {bound:6.0%}  {v}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
