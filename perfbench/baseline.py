#!/usr/bin/env python3
"""Repeat the benchmark over seeds and record medians, quartiles and spread.

    python3 perfbench/baseline.py --workloads cold-build --seeds 1 2 3 4 5
    python3 perfbench/baseline.py --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/baseline.json

For each workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (Q3 - Q1) / median, next to the metric's bound in
``BENCHMARK.json``.  Every run must pass its output checks; the script
exits 1 otherwise, or when a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=400)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    report = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload:
            report[parts[1]] = float(parts[2])
    return json.loads(lines[-1]), report


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, default=None, help="write the summary as JSON")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        metrics: dict = {}
        reports: dict = {}
        for seed in args.seeds:
            result, report = run_once(workload, seed, args.seconds, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: output check failed", file=sys.stderr)
                ok = False
            for name, payload in result["metrics"].items():
                metrics.setdefault(name, []).append(payload["value"])
            for name, value in report.items():
                reports.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={p['value']:.4g}" for n, p in result["metrics"].items()), flush=True)
        entry = {"metrics": {}, "report": {}}
        for name, values in metrics.items():
            stats = summarize(values)
            stats["bound"] = bounds[name]
            entry["metrics"][name] = stats
            flag = "" if stats["spread"] <= bounds[name] or name == "setup_s" else "  OVER BOUND"
            if flag:
                ok = False
            print(f"  {workload:<14} {name:<12} median {stats['median']:.4g}  "
                  f"q1 {stats['q1']:.4g}  q3 {stats['q3']:.4g}  spread {stats['spread']:.4f}"
                  f"  (bound {bounds[name]}){flag}")
        for name, values in reports.items():
            if len(values) >= 2:
                entry["report"][name] = summarize(values)
        summary["workloads"][workload] = entry
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
