#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny-scale smoke run and its gates.

    python3 perfbench/selftest.py

* ``BENCHMARK.json`` and ``layers.json`` name the same per-layer metrics.
* Every workload runs at scale 0.04, untraced and traced, passes its
  output checks and reports exactly the metrics ``BENCHMARK.json`` names;
  together the traced runs load every layer.
* A wrong expected digest (cold-build) and a wrong expected report
  (warm-battery) each make the run fail with a non-zero ``failed`` and
  exit code 1, so the gates mean what they say.
* Without the program's source the benchmark exits non-zero and prints
  no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCALE = "0.04"


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    command = [sys.executable, "perfbench/run.py", "--scale", SCALE, "--seconds", "1", *args]
    out = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)
    return out.returncode, out.stdout


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers = json.loads((BENCH_DIR / "layers.json").read_text(encoding="utf-8"))
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    per_layer = {m["name"] for m in spec["per_layer"]}
    expect(per_layer == set(layers["per_layer"]), "layers.json maps every per-layer metric")
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    nonzero_layers: set = set()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, names in (("0", end_to_end), ("1", per_layer)):
            code, stdout = bench("--workload", workload, "--seed", "1", "--trace", trace)
            result = result_of(stdout) if code == 0 else {}
            expect(
                code == 0 and result.get("correct") is True and result["failed"] == 0,
                f"{workload} --trace {trace} passes its checks at scale {SCALE}",
            )
            metrics = result.get("metrics", {})
            expect(set(metrics) == names, f"{workload} --trace {trace} reports every metric")
            if trace == "0":
                expect(all(p["value"] > 0 for p in metrics.values()),
                       f"{workload}: end-to-end metrics are non-zero")
            nonzero_layers |= {n for n, p in metrics.items() if p["value"] and trace == "1"}
    # Counters that are legitimately 0 at every workload on a healthy run.
    may_be_zero = {"cache.builds", "vectorized.fallback_packs", "engine.fast.pools_fallback",
                   "service.ingest.shed", "service.deadline_exceeded",
                   "client.ingest_retries", "wal.compact_s"}
    missing = per_layer - nonzero_layers - may_be_zero
    expect(not missing, f"traced runs measure every layer (never measured: {sorted(missing)})")

    work = BENCH_DIR / ".work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wrong_digests = work / "wrong_digests.json"
        wrong_digests.write_text(json.dumps({"dataset-A": "0" * 64}), encoding="utf-8")
        code, stdout = bench("--workload", "cold-build", "--seed", "1",
                             "--trace", "0", "--golden-digests", str(wrong_digests))
        expect(code == 1 and result_of(stdout)["failed"] > 0,
               "a wrong expected digest fails cold-build")
        wrong_report = work / "wrong_report.txt"
        wrong_report.write_text("=== fig6: not the report ===\n", encoding="utf-8")
        code, stdout = bench("--workload", "warm-battery", "--seed", "1",
                             "--trace", "0", "--golden-report", str(wrong_report))
        expect(code == 1 and result_of(stdout)["failed"] > 0,
               "a wrong expected report fails warm-battery")
        bare = work / "bare"
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "results"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        code, stdout = bench("--workload", "cold-build", "--seed", "1", "--trace", "0", cwd=bare)
        expect(code != 0 and not stdout.strip(), "without the program: non-zero exit, no result")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"\n{len(failures)} failure(s)" if failures else "\nself-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
