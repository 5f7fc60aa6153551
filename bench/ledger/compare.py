#!/usr/bin/env python3
"""Compares two sets of ledger runs (run.py --out records), A then B:

    python3 bench/ledger/compare.py A1.json A2.json ... -- B1.json B2.json ...

A directory stands for every *.json in it, in name order. For each
(workload, metric) it prints both sides' median and quartiles, how much
worse B's median is (negative: better), the share of pairs (A[i], B[i])
that B wins, and a verdict against the BENCHMARK.json bound:

  better      B wins >= 90% of the pairs and the medians differ by more
              than A's quartile spread;
  worse       B's median is worse than A's by more than the bound (or, for
              a per-layer metric, which has none, B loses >= 90% of the
              pairs by more than A's spread);
  unresolved  neither, but a side's quartile spread is wider than the
              bound, so "unchanged" would not be shown;
  unchanged   otherwise.

Exact metrics (simulated values and counts) must repeat bit for bit; any
that do not are listed. Exits nonzero when a run failed or an end-to-end
verdict is "worse". Pair runs by alternating the two commits.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load(paths):
    runs = []
    for p in map(Path, paths):
        files = sorted(p.glob("*.json")) if p.is_dir() else [p]
        runs += [json.loads(f.read_text()) for f in files]
    return runs


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0]
    q = statistics.quantiles(vals, n=4)
    return q[0], q[2]


def verdict(a, b, lower_is_better, bound):
    sign = 1.0 if lower_is_better else -1.0
    a_med, b_med = statistics.median(a), statistics.median(b)
    a_lo, a_hi = quartiles(a)
    b_lo, b_hi = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) < 0 for x, y in pairs) / len(pairs)
    losses = sum(sign * (y - x) > 0 for x, y in pairs) / len(pairs)
    change = sign * (b_med - a_med)  # > 0 is worse
    spread = a_hi - a_lo
    if bound is not None and change > bound * abs(a_med):
        v = "worse"
    elif bound is None and losses >= 0.9 and change > spread:
        v = "worse"
    elif wins >= 0.9 and -change > spread:
        v = "better"
    elif bound is not None and max(a_hi - a_lo, b_hi - b_lo) > bound * abs(
            a_med) and not all(sign * (y - x) < 0 for x in a for y in b):
        v = "unresolved"
    else:
        v = "unchanged"
    return {"a": (a_med, a_lo, a_hi), "b": (b_med, b_lo, b_hi),
            "wins": wins, "change": change, "verdict": v}


def main(argv):
    if "--" not in argv:
        sys.exit(__doc__)
    cut = argv.index("--")
    a_runs, b_runs = load(argv[:cut]), load(argv[cut + 1:])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    sides = defaultdict(lambda: ([], []))
    for i, runs in enumerate((a_runs, b_runs)):
        for run in runs:
            sides[run["workload"]][i].append(run)

    status = 0
    for name, run in ((n, r) for n, (a, b) in sides.items() for r in a + b):
        if not run["correct"] or run["failed"]:
            print(f"{name}: run seed={run['seed']} failed "
                  f"({run['failed']} of {run['attempted']} cells)")
            status = 1

    not_identical = []
    for workload, (a, b) in sorted(sides.items()):
        if not a or not b:
            print(f"{workload}: runs on one side only; skipped")
            continue
        print(f"\n{workload}: A {len(a)} runs, B {len(b)} runs")
        print(f"  {'metric':28} {'A median [q1, q3]':>34} "
              f"{'B median [q1, q3]':>34} {'worse by':>8} {'B wins':>6}  "
              "verdict")
        names = [n for n in spec if all(n in r["metrics"] for r in a + b)]
        for n in names:
            av = [r["metrics"][n]["value"] for r in a]
            bv = [r["metrics"][n]["value"] for r in b]
            exact = a[0]["metrics"][n]["exact"]
            if exact and len(set(av + bv)) == 1:
                print(f"  {n:28} {av[0]:>34.6g}   bit-identical in all runs")
                continue
            v = verdict(av, bv, spec[n]["better"] == "lower",
                        spec[n].get("bound"))
            rel = (v["change"] / abs(v["a"][0]) * 100) if v["a"][0] else 0.0
            fmt = "{:.6g} [{:.6g}, {:.6g}]"
            print(f"  {n:28} {fmt.format(*v['a']):>34} "
                  f"{fmt.format(*v['b']):>34} {rel:+7.2f}% "
                  f"{v['wins']:6.0%}  {v['verdict']}")
            if exact:
                not_identical.append(f"{workload} {n}")
            if v["verdict"] == "worse" and "bound" in spec[n]:
                status = 1

    print("\nexact metrics not bit-identical across all runs: " +
          (", ".join(not_identical) if not_identical else "none"))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
