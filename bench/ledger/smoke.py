#!/usr/bin/env python3
"""ledger_smoke: every workload at --scale 0.1 through run.py, one untraced
and one traced pass each (run.py's gates: committed checksums, policy
agreement, traced/untraced simulated identity, layer coverage). Checks
each result line and --out record against BENCHMARK.json.

    python3 bench/ledger/smoke.py [--harness PATH]
"""

import argparse
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def check(ok, what):
    if not ok:
        raise SystemExit(f"ledger_smoke: {what}")


def is_number(v):
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def smoke(workload, bench, harness, out_dir):
    out = Path(out_dir) / f"{workload}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--scale", "0.1", "--seconds", "0", "--trace", "1",
           "--out", str(out)]
    if harness:
        cmd.append(f"--harness={harness}")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    check(proc.returncode == 0, f"{workload}: run.py exited "
          f"{proc.returncode}\n{proc.stdout}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0,
          f"{workload}: correct={result['correct']} "
          f"failed={result['failed']}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{workload}: attempted={result['attempted']}")
    want = {m["name"]: m["unit"] for m in bench["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == want, f"{workload}: per-layer metrics differ from "
          f"BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    check(all(is_number(v["value"]) for v in result["metrics"].values()),
          f"{workload}: non-numeric metric value")

    record = json.loads(out.read_text())
    for key in ("nproc", "threads", "build_type", "compiler", "commit",
                "scale", "fault_seed"):
        check(key in record, f"{workload}: --out record lacks {key}")
    for m in bench["end_to_end"]:
        value = record["metrics"].get(m["name"], {}).get("value")
        check(is_number(value) and value > 0,
              f"{workload}: end-to-end {m['name']} = {value}")
    print(f"ledger_smoke: {workload} ok ({result['attempted']} cells)")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--harness", help="prebuilt e2e_ledger")
    args = parser.parse_args()
    bench = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory() as out_dir:
        for w in bench["workloads"]:
            smoke(w["name"], bench, args.harness, out_dir)


if __name__ == "__main__":
    main()
