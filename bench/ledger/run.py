#!/usr/bin/env python3
"""The end-to-end ledger: one command per workload (README.md).

    python3 bench/ledger/run.py --workload fig4 [--seed N] [--seconds S]
        [--trace 0|1] [--scale F] [--fault-seed N] [--out FILE]
        [--host-trace FILE]

Builds the e2e_ledger harness from source (this directory is a standalone
CMake project; the build tree is .bench_build/ledger at the repository
root), runs the workload in its own subprocess under a watchdog, and gates
the result:

  * every cell's checksum must equal the committed one (checksums.json) or,
    for a (program, scale) with none committed, agree across policies;
  * every cell's simulated exports (metrics and trace JSON) must be
    bit-identical in every pass, traced or not;
  * in a traced run, the four timed layers must cover >= 98% of each cell.

It prints every metric as `name value unit` and ends with one JSON line
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics, or
with --trace 1 the per-layer ones. It exits nonzero when a cell fails or a
check does not hold. Only the standard library is used.
"""

import argparse
import glob
import json
import math
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "ledger"

# Metrics read from the host clock. Every other metric, simulated or a
# count, must repeat exactly.
HOST_CLOCK = {
    "wall_s", "setup_s", "accesses_per_s", "peak_rss_mb", "core.setup_s",
    "core.export_s", "gc.host_s", "mutator.host_s", "host.cpu_util",
    "host.trace_overhead",
}

# The paper's Fig 4 times normalized to DRAM-only, (Unmanaged, Panthera),
# as quoted in bench/fig4_overall.cpp.
PAPER_FIG4_TIME = {
    "PR": (1.25, 1.11), "KM": (1.15, 0.91), "LR": (1.15, 0.99),
    "TC": (1.37, 1.24), "CC": (1.18, 0.96), "SSSP": (1.15, 1.01),
    "BC": (1.25, 1.08),
}

MIN_COVERAGE = 0.98


class Fatal(Exception):
    """A check failed: the run's numbers cannot be trusted."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_harness():
    if not (ROOT / "src" / "workloads" / "Workloads.h").is_file():
        log(f"run.py: no Panthera sources under {ROOT / 'src'}")
        sys.exit(2)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append(["cmake", "--build", str(BUILD), "--target", "e2e_ledger",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: building e2e_ledger failed")
            sys.exit(2)
    return BUILD / "e2e_ledger"


def baseline_wall(workload):
    """Median committed wall_s of the workload (baseline/), or None."""
    walls = []
    for path in glob.glob(str(HERE / "baseline" / "*" / "*.json")):
        with open(path) as f:
            run = json.load(f)
        if (run["workload"] == workload and run["scale"] == 1
                and "wall_s" in run["metrics"]):
            walls.append(run["metrics"]["wall_s"]["value"])
    return statistics.median(walls) if walls else None


def run_harness(cmd, pass_limit):
    """Runs the harness, killing it when a pass (or the set-up before the
    first one) outlasts pass_limit seconds. Returns (events, killed, rc)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            process_group=0)
    lines = queue.Queue()

    def pump():
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    reader = threading.Thread(target=pump)
    reader.start()
    events, killed = [], False
    deadline = time.monotonic() + pass_limit
    while True:
        try:
            line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
        except queue.Empty:
            os.killpg(proc.pid, signal.SIGKILL)
            killed = True
            break
        if line is None:
            break
        event = json.loads(line)
        events.append(event)
        if event["type"] in ("pass_start", "pass_end"):
            deadline = time.monotonic() + pass_limit
    proc.wait()
    reader.join()
    return events, killed, proc.returncode


def cell_id(cell):
    return f"{cell['program']}/{cell['policy']}"


def checksum_key(cell):
    return f"{cell['program']}@{cell['scale']:g}"


def gate(events, committed):
    """Counts attempted and failed cell runs; raises Fatal when simulated
    results differ between passes or traced cells are not covered."""
    attempted = failed = 0
    reference = dict(committed)
    digests = {}
    for event in events:
        if event["type"] == "pass_start":
            attempted += event["cells"]
            failed += event["cells"]  # credited back as cells finish clean
        if event["type"] != "cell":
            continue
        key = checksum_key(event)
        reference.setdefault(key, event["checksum"])
        if not event["ok"]:
            log(f"cell {cell_id(event)} failed: {event['error']}")
        elif event["checksum"] != reference[key]:
            log(f"cell {cell_id(event)} checksum {event['checksum']} != "
                f"{reference[key]}")
        else:
            failed -= 1
        first = digests.setdefault(cell_id(event), event)
        if event["digest"] != first["digest"]:
            raise Fatal(f"{cell_id(event)}: simulated exports of pass "
                        f"{event['pass']} (traced={event['traced']}) differ "
                        f"from pass {first['pass']} "
                        f"(traced={first['traced']})")
        if event["traced"]:
            host = event["host"]
            covered = host["setup_s"] + host["run_s"] + host["export_s"]
            if covered < MIN_COVERAGE * host["cell_s"]:
                raise Fatal(f"{cell_id(event)}: timed layers cover "
                            f"{covered / host['cell_s']:.3f} of the cell")
    return attempted, failed


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def pass_sum(passes, fn):
    """Median over passes of the per-pass sum of fn(cell)."""
    return statistics.median(sum(fn(c) for c in p["cells"]) for p in passes)


def fig4_norms(sims):
    """Geomean-normalized time/energy of each policy to DRAM-only and the
    mean |measured - paper| over the Unmanaged and Panthera times."""
    by = {(c["program"], c["policy"]): s for c, s in sims}
    programs = [p for p in PAPER_FIG4_TIME if (p, "dram") in by]
    if not programs:
        return {k: 0.0 for k in ("pan_time_norm", "pan_energy_norm",
                                 "fig4_time_err", "ref.unm_time_norm",
                                 "ref.unm_energy_norm")}

    def norm(policy, key):
        return [by[(p, policy)][key] / by[(p, "dram")][key] for p in programs]

    unm_t, pan_t = norm("unmanaged", "time.total_ns"), norm("panthera",
                                                            "time.total_ns")
    err = [abs(m - PAPER_FIG4_TIME[p][i])
           for i, ts in enumerate((unm_t, pan_t))
           for p, m in zip(programs, ts)]
    return {
        "pan_time_norm": geomean(pan_t),
        "pan_energy_norm": geomean(norm("panthera", "energy.total_joules")),
        "fig4_time_err": sum(err) / len(err),
        "ref.unm_time_norm": geomean(unm_t),
        "ref.unm_energy_norm": geomean(norm("unmanaged",
                                            "energy.total_joules")),
    }


def compute_metrics(events):
    passes = []
    for event in events:
        if event["type"] == "pass_start":
            passes.append({"traced": event["traced"], "cells": [],
                           "expected": event["cells"]})
        elif event["type"] == "cell":
            passes[-1]["cells"].append(event)
        elif event["type"] == "pass_end":
            passes[-1].update(wall_s=event["wall_s"], cpu_s=event["cpu_s"])
    for p in passes:
        p["done"] = "wall_s" in p and len(p["cells"]) == p["expected"]
    untraced = [p for p in passes if p["done"] and not p["traced"]]
    traced = [p for p in passes if p["done"] and p["traced"]]
    if not untraced:
        raise Fatal("no complete pass")
    end = next(e for e in events if e["type"] == "end")

    # Sum in one fixed order: --seed shuffles the cells, and a float sum in
    # another order can differ in the last bit.
    sims = sorted(((c, c["sim"]) for c in untraced[0]["cells"]),
                  key=lambda cs: cell_id(cs[0]))
    subject = [s for c, s in sims if c["subject"]]

    def total(key, cells=subject):
        return sum(s.get(key, 0.0) for s in cells)

    accesses = total("memsim.cache_hits", [s for _, s in sims]) + total(
        "memsim.cache_misses", [s for _, s in sims])
    wall = statistics.median(p["wall_s"] for p in untraced)
    m = {
        "wall_s": wall,
        "setup_s": statistics.median(
            e["setup_s"] for e in events if e["type"] == "setup"),
        "accesses_per_s": accesses / wall,
        "peak_rss_mb": end["peak_rss_mb"],
        "sim_time_ms": total("time.total_ns") / 1e6,
        "sim_gc_ms": total("time.gc_ns") / 1e6,
        "energy_j": total("energy.total_joules"),
        "gc_max_pause_ms": max(
            max(s.get("gc.minor.pause_ns.max", 0.0),
                s.get("gc.major.pause_ns.max", 0.0)) for s in subject) / 1e6,
        "host.cpu_util": statistics.median(
            p["cpu_s"] / p["wall_s"] for p in untraced),
    }
    if traced:
        # Each traced pass follows an untraced pass over the same cell
        # order; the ratio within a pair cancels the machine's slow drift.
        pairs = [(u, t) for u, t in zip(passes[::2], passes[1::2])
                 if u["done"] and t["done"]]
        m.update({
            "core.setup_s": pass_sum(traced, lambda c: c["host"]["setup_s"]),
            "core.export_s": pass_sum(traced,
                                      lambda c: c["host"]["export_s"]),
            "gc.host_s": pass_sum(traced, lambda c: c["host"]["gc_s"]),
            "mutator.host_s": pass_sum(
                traced, lambda c: c["host"]["run_s"] - c["host"]["gc_s"]),
            "host.gc_calls": pass_sum(traced,
                                      lambda c: c["host"]["gc_calls"]),
            "host.safepoints": pass_sum(traced,
                                        lambda c: c["host"]["safepoints"]),
            "host.trace_overhead": statistics.median(
                t["wall_s"] / u["wall_s"] for u, t in pairs) - 1.0,
        })

    hits, misses = total("memsim.cache_hits"), total("memsim.cache_misses")
    placed = sum(total(f"cluster.tasks.{k}")
                 for k in ("process_local", "any", "delayed_fallbacks"))
    launched = total("cluster.speculation.launched")
    m.update({
        "gc.minor_pause_ms": total("gc.minor.pause_ns.sum") / 1e6,
        "gc.major_pause_ms": total("gc.major.pause_ns.sum") / 1e6,
        "gc.major_mark_ms": total("gc.major.mark_ns.sum") / 1e6,
        "gc.major_compact_ms": total("gc.major.compact_ns.sum") / 1e6,
        "gc.minor_drain_ms": total("gc.minor.drain_ns.sum") / 1e6,
        "gc.minor_dram_to_young_ms":
            total("gc.minor.dram_to_young_ns.sum") / 1e6,
        "gc.minor_nvm_to_young_ms":
            total("gc.minor.nvm_to_young_ns.sum") / 1e6,
        "memsim.accesses": accesses,
        "memsim.llc_hit_ratio": hits / (hits + misses),
        "memsim.dram_reads": total("memsim.dram.line_reads"),
        "memsim.dram_writes": total("memsim.dram.line_writes"),
        "memsim.nvm_reads": total("memsim.nvm.line_reads"),
        "memsim.nvm_writes": total("memsim.nvm.line_writes"),
        "memsim.hotness_samples": total("memsim.hotness.samples"),
        "memsim.pages_to_dram": total("memsim.migration.pages_to_dram"),
        "memsim.migration_bytes": total("memsim.migration.bytes_copied"),
        "rdd.tasks": total("engine.tasks"),
        "rdd.task_attempts": total("engine.task_attempts"),
        "rdd.shuffle_records": total("engine.shuffle_records"),
        "rdd.shuffle_spills": total("engine.shuffle_spills"),
        "rdd.rdds_evicted_to_disk": total("engine.rdds_evicted_to_disk"),
        "cluster.remote_fetches": total("cluster.fetch.remote_blocks"),
        "cluster.remote_kb": total("cluster.fetch.remote_bytes") / 1024,
        "cluster.zero_copy_fetches": total("cluster.fetch.zero_copy_blocks"),
        "cluster.network_ms": total("cluster.net.time_ns") / 1e6,
        "cluster.process_local_ratio":
            total("cluster.tasks.process_local") / placed if placed else 0.0,
        "cluster.spec_launched": launched,
        "cluster.spec_won":
            total("cluster.speculation.wins") / launched if launched else 0.0,
        "cluster.spec_wasted_ms": total("cluster.speculation.wasted_ns") / 1e6,
    })
    for kind in ("materialize", "shuffle", "reduce", "action"):
        m[f"rdd.self_ms.{kind}"] = total(f"rdd.self_ns.{kind}") / 1e6
    for key in ("gc.minor_gcs", "gc.major_gcs", "gc.bytes_promoted",
                "gc.eager_promotions", "gc.cards_scanned", "gc.rdds_migrated",
                "memsim.prefetched_misses", "heap.objects_allocated",
                "heap.bytes_allocated", "heap.ref_stores",
                "heap.arrays_pretenured", "heap.emergency_gcs",
                "heap.pressure_evictions", "analysis.monitored_calls",
                "analysis.dram_tagged", "analysis.nvm_tagged"):
        m[key] = total(key)
    m.update(fig4_norms(sims))
    facts = {
        "threads": end["threads"], "build_type": end["build_type"],
        "compiler": end["compiler"],
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "checksums": {cell_id(c): c["checksum"] for c, _ in sims},
    }
    return m, facts


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def main(argv):
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=1,
                        help="orders the cells of each pass")
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--fault-seed", type=int, default=7)
    parser.add_argument("--out", help="write the full record as JSON here")
    parser.add_argument("--host-trace",
                        help="traced runs: chrome-trace JSON of host spans")
    parser.add_argument("--harness", help="prebuilt e2e_ledger to run")
    args = parser.parse_args(argv)

    exe = Path(args.harness) if args.harness else build_harness()
    cmd = [str(exe), f"--workload={args.workload}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--scale={args.scale}", f"--fault-seed={args.fault_seed}",
           f"--seed={args.seed}"]
    if args.host_trace:
        cmd.append(f"--host-trace={args.host_trace}")
    base = baseline_wall(args.workload)
    pass_limit = 3 * base * max(args.scale, 0.1) + 5 if base else 120.0
    with open(HERE / "checksums.json") as f:
        committed = json.load(f)

    events, killed, rc = run_harness(cmd, pass_limit)
    correct = True
    attempted, failed = 0, 0
    metrics, facts = {}, {}
    try:
        if killed:
            log(f"run.py: killed after a pass outlasted {pass_limit:.1f} s "
                "(3x the committed baseline wall)")
        elif rc:
            log(f"run.py: e2e_ledger exited with {rc}")
        attempted, failed = gate(events, committed)
        if killed or rc:
            correct = False
        else:
            metrics, facts = compute_metrics(events)
    except Fatal as e:
        log(f"FATAL: {e}")
        correct = False
    correct = correct and failed == 0

    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    for name in sorted(metrics, key=list(units).index):
        print(f"{name} {metrics[name]!r} {units[name]}")
    shown = bench["per_layer"] if args.trace else bench["end_to_end"]
    result = {
        "correct": correct, "attempted": max(attempted, 1), "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in shown if m["name"] in metrics},
    }
    if args.out:
        record = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "scale": args.scale, "fault_seed": args.fault_seed,
            "nproc": os.cpu_count(), "commit": commit(), **facts,
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {
                name: {"value": v, "unit": units[name],
                       "exact": name not in HOST_CLOCK}
                for name, v in metrics.items()},
        }
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
