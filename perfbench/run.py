#!/usr/bin/env python3
"""The repository benchmark: three workloads, driven from outside the program.

    python3 perfbench/run.py --workload cold-build --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/layers.json``):

* ``cold-build`` builds datasets A, B and C one after another into an
  empty ``DatasetCache``: workload generation, the engine, GBT, the
  mempool and the cache write.
* ``warm-battery`` runs the 16 paper experiments through
  ``repro-audit run all`` against a cache that set-up filled, once with
  ``--jobs 1`` and once with ``--jobs nproc``: cache load, columnar
  decode, ``ChainArrays`` packing, the metric kernels, the runner pool.
* ``service-mixed`` serves dataset C's observer context with
  ``repro-audit serve``; one thread replays the chain while another runs
  a closed-loop tx/pool/status query mix, then an open loop at a fixed
  rate once ingest is done.

Every workload checks its outputs (golden digests and reports, cold vs
warm, ``--jobs 1`` vs ``--jobs nproc``, service vs batch oracle) and
counts each failed operation or check.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the job untraced and then traced
(``REPRO_AUDIT_TRACE=1`` plus the layer timers of ``child.py``) and
reports the per-layer split, the unattributed remainder ``other_s`` and
``obs.overhead_pct``.  Human-readable lines come first; the last line of
standard output is one JSON object.  The exit code is 1 when a check
fails, 2 when the program cannot be found or a run breaks.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
SPEC_PATH = ROOT / "BENCHMARK.json"
GOLDEN_DIGESTS = ROOT / "tests" / "golden" / "engine_digests_scale01.json"
GOLDEN_REPORT = ROOT / "tests" / "golden" / "battery_scale01.txt"

WORKLOADS = ("cold-build", "warm-battery", "service-mixed")
#: Every workload uses the A/B/C scenarios' default seeds, the inputs the
#: golden fixtures pin.  At scale 0.1 the dataset seed alone moves the
#: build work up to 3x (B: 2.1-9.5 s, cache 112-207 MB over seeds 0-5),
#: so seed-varied datasets would measure the seed, not the code;
#: ``--seed`` picks the service's query sample instead.
DATASET_SEEDS = {"A": 2019_02_20, "B": 2019_06_01, "C": 2020_01_01}
GOLDEN_SCALE = 0.1
GOLDEN_IDS = ("fig6", "fig7", "table2", "table3", "table4")
#: Set-ups repeated per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Measured repetitions of the battery pair and of the service ingest
#: (each on a fresh server); ``job_s`` is their median.  One run of either
#: varies by about a quarter on a shared 2-core VM; two fit the time budget.
JOB_REPEATS = 2
#: Open-loop request rate after ingest: 1000 requests in a 10 s run leave
#: ten samples beyond the p99.
QUERY_RATE = 100.0
QUERY_MIX = ("tx", "pool", "status")
#: How many sampled txids are compared against the batch oracle.
ORACLE_TXIDS = 20
#: Wall-clock limit for one program process.
CHILD_TIMEOUT = 150.0
NPROC = len(os.sched_getaffinity(0))


class BenchError(RuntimeError):
    """A run broke (not an output mismatch): no result is printed."""


# ----------------------------------------------------------------------
# Bookkeeping
# ----------------------------------------------------------------------
class Tally:
    """Operations and output checks attempted, and which failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def ops(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{failed}/{attempted} {what} failed")


def percentile(values: list, q: int) -> float:
    """Nearest-rank percentile (integer ``q``) of a non-empty list."""
    ordered = sorted(values)
    rank = -(-q * len(ordered) // 100)  # ceil(q/100 * n) in integers
    return ordered[max(rank, 1) - 1]


def _ms(values: list) -> float:
    return 1000.0 * percentile(values, 50) if values else 0.0


# ----------------------------------------------------------------------
# Program processes
# ----------------------------------------------------------------------
@dataclass
class Child:
    """One finished program process."""

    returncode: int
    stdout: str
    seconds: float
    rss_mb: float

    def last_json(self) -> dict:
        lines = self.stdout.strip().splitlines()
        if self.returncode != 0 or not lines:
            raise BenchError(f"program process exited {self.returncode}")
        return json.loads(lines[-1])


class Runner:
    """Starts program processes from a per-run work directory."""

    def __init__(self, work: Path) -> None:
        self.log = work / "program.log"

    def env(self, trace: bool, obs_out: Optional[Path] = None) -> dict:
        env = dict(os.environ)
        for name in ("REPRO_AUDIT_TRACE", "REPRO_AUDIT_SCALAR", "REPRO_AUDIT_CHECK"):
            env.pop(name, None)
        env["PYTHONPATH"] = str(SRC)
        env["PERFBENCH_SPAWN_T"] = repr(time.time())
        if trace:
            env["REPRO_AUDIT_TRACE"] = "1"
        if obs_out is not None:
            env["PERFBENCH_OBS_OUT"] = str(obs_out)
        return env

    def popen(self, args: list, trace: bool = False, stdout=None, obs_out=None):
        with open(self.log, "ab") as log:
            return subprocess.Popen(
                [sys.executable, *args],
                stdout=stdout if stdout is not None else log,
                stderr=log,
                env=self.env(trace, obs_out),
                cwd=ROOT,
            )

    @staticmethod
    def reap(process: subprocess.Popen, timeout: float = CHILD_TIMEOUT) -> tuple[int, float]:
        """Wait for ``process`` (killing it after ``timeout``); exit code and
        peak RSS in MB of it and every descendant it waited for."""
        guard = threading.Timer(timeout, process.kill)
        guard.start()
        try:
            if process.stdout is not None:
                # Read to EOF first, so a full pipe cannot block the child.
                process.output = process.stdout.read()
                process.stdout.close()
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            guard.cancel()
        process.returncode = os.waitstatus_to_exitcode(status)
        return process.returncode, usage.ru_maxrss / 1024.0

    def run(self, args: list, trace: bool = False, obs_out=None) -> Child:
        start = time.perf_counter()
        process = self.popen(args, trace, stdout=subprocess.PIPE, obs_out=obs_out)
        code, rss = self.reap(process)
        out = process.output.decode("utf-8", "replace")
        return Child(code, out, time.perf_counter() - start, rss)

    def child(self, *args, trace: bool = False, obs_out=None) -> Child:
        return self.run([str(CHILD), *map(str, args)], trace, obs_out)


def repeat_for(seconds: float, job: Callable[[int], dict], at_least: int = 1) -> list[dict]:
    """Run ``job`` ``at_least`` times and until ``seconds`` have been measured."""
    results = []
    start = time.perf_counter()
    while len(results) < at_least or time.perf_counter() - start < seconds:
        results.append(job(len(results)))
    return results


def median_of(results: list[dict], key: str) -> float:
    return statistics.median(result[key] for result in results)


# ----------------------------------------------------------------------
# Per-layer extraction from a repro.obs snapshot
# ----------------------------------------------------------------------
class Snap:
    """Read helpers over one obs snapshot (program spans + bench.* timers)."""

    def __init__(self, snap: Optional[dict]) -> None:
        snap = snap or {}
        self.counters = snap.get("counters", {})
        self.gauges = snap.get("gauges", {})
        self.spans = snap.get("spans", {})

    def count(self, name: str) -> int:
        return int(self.counters.get(name, 0))

    def span_s(self, name: str) -> float:
        return float(self.spans.get(name, {}).get("total_seconds", 0.0))

    def timer_s(self, name: str, kind: str = "total") -> float:
        return self.count(f"bench.{name}.{kind}_ns") / 1e9

    def timers(self, prefix: str, kind: str = "total") -> dict:
        pattern = re.compile(rf"^bench\.({re.escape(prefix)}.+)\.{kind}_ns$")
        found = {}
        for name, value in self.counters.items():
            match = pattern.match(name)
            if match:
                found[match.group(1)] = value / 1e9
        return found

    def self_total_s(self) -> float:
        """Time covered by the layer timers: the sum of their self times."""
        return sum(self.timers("", "self").values())


def layer_metrics(snap: Snap) -> dict:
    """Every per-layer metric one traced program process can report."""
    spans = snap.spans
    mine = spans.get("engine.mine_block", {})
    values = {
        "process.startup_s": snap.count("bench.process.startup_ns") / 1e9,
        "workload.generate_s": snap.timer_s("workload.generate"),
        "workload.planned_txs": snap.count("bench.workload.generate.size"),
        "engine.produce_s": snap.span_s("engine.run") - snap.span_s("engine.curate"),
        "engine.curate_s": snap.span_s("engine.curate"),
        "engine.mine_block.count": int(mine.get("count", 0)),
        "engine.mine_block.max_ms": 1000.0 * float(mine.get("max_seconds", 0.0)),
        "engine.blocks_committed": snap.count("engine.blocks.committed"),
        "engine.txs_committed": snap.count("engine.txs.committed"),
        "engine.fast.pools_fallback": snap.count("engine.fast.pools_fallback"),
        "gbt.template_s": snap.span_s("gbt.ancestor_template")
        + snap.span_s("gbt.greedy_template"),
        "gbt.packages_rescored": snap.count("gbt.packages.rescored"),
        "mempool.admitted": snap.count("mempool.pending.admitted"),
        "mempool.rbf_replacements": snap.count("mempool.rbf_replacements"),
        "columnar.save_s": snap.timer_s("columnar.save"),
        "columnar.bytes": snap.count("bench.columnar.save.size"),
        "io.save_s": snap.timer_s("io.save"),
        "io.gzip_bytes": snap.count("bench.io.save.size"),
        "cache.store_s": snap.timer_s("cache.store"),
        "columnar.open_s": snap.timer_s("columnar.open"),
        # load_columnar minus the ColumnStore opens inside it
        "columnar.decode_s": snap.timer_s("columnar.load", "self"),
        "cache.hits": snap.count("cache.hits"),
        "cache.builds": snap.count("cache.builds"),
        "vectorized.pack_s": snap.timer_s("vectorized.pack", "self")
        + snap.timer_s("vectorized.pack_columnar", "self"),
        "vectorized.mmap_packs": snap.count("vectorized.chain_arrays.mmap"),
        "vectorized.fallback_packs": snap.count("vectorized.chain_arrays.fallback"),
        "service.fold_s": snap.span_s("service.fold"),
        "wal.append_s": snap.timer_s("wal.append"),
        "wal.compact_s": snap.timer_s("wal.compact"),
        "service.query_s": snap.span_s("service.query"),
        "service.ingest.shed": snap.count("service.ingest.shed"),
        "service.queue_depth.max": float(
            snap.gauges.get("bench.service.queue_depth.max", 0.0)
        ),
        "service.deadline_exceeded": snap.count("service.deadline_exceeded"),
    }
    for name in DATASET_SEEDS:
        values[f"cache.load_s.{name}"] = snap.timer_s(f"cache.load.{name}")
    for method in (
        "self_interest_table",
        "ppe_distribution",
        "violation_stats_multi",
        "commit_delays",
        "scam_table",
        "dark_fee_sweep",
    ):
        values[f"audit.{method}_s"] = snap.timer_s(f"audit.{method}")
    for name, seconds in snap.timers("experiment.").items():
        values[f"{name}_s"] = seconds
    return values


def read_obs(path: Path) -> Snap:
    try:
        return Snap(json.loads(path.read_text(encoding="utf-8")))
    except (OSError, ValueError) as exc:
        raise BenchError(f"no obs snapshot at {path.name}: {exc}") from exc


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Context:
    def __init__(self, workload: str, args: argparse.Namespace, work: Path) -> None:
        self.workload = workload
        self.args = args
        self.scale = args.scale
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.work = work
        self.runner = Runner(work)
        self.tally = Tally()
        self.e2e: dict = {}
        self.layers: dict = {}
        #: Workload-specific end-to-end figures, printed with their units.
        self.report: list[tuple[str, float, str]] = []
        self.info: dict = {}

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def inputs(self) -> Path:
        """The cache of A/B/C that set-up fills, kept across runs.

        The datasets are pure functions of (scale, seed, code), and each
        checkout builds its own, so later runs of the same checkout skip
        the 15 s fill; it is cold-build's job, measured there.
        """
        from repro.datasets.cache import CacheKey, DatasetCache

        directory = BENCH_DIR / ".work" / f"inputs-scale{self.scale:g}"
        cache = DatasetCache(directory)
        missing = [
            name for name, seed in DATASET_SEEDS.items()
            if not cache.path_for(CacheKey(f"dataset-{name}", self.scale, seed)).exists()
        ]
        if missing:
            seeds = ",".join(f"{name}={DATASET_SEEDS[name]}" for name in missing)
            fill = self.runner.child(
                "build", "--scale", self.scale, "--seeds", seeds, "--cache-dir", directory
            ).last_json()
            self.info["inputs_fill_s"] = fill["total_s"]
        return directory

    def time_setup(self, once: Callable[[], float]) -> None:
        self.e2e["setup_s"] = statistics.median(once() for _ in range(SETUP_REPEATS))

    def overhead(self, untraced_s: float, traced_s: float) -> None:
        self.layers["obs.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def cold_build(ctx: Context) -> None:
    seeds = DATASET_SEEDS
    ctx.info["dataset_seeds"] = seeds
    seeds_arg = ",".join(f"{k}={v}" for k, v in seeds.items())
    golden = ctx.args.golden_digests
    if golden is None and ctx.scale == GOLDEN_SCALE:
        golden = GOLDEN_DIGESTS

    def build(index: int, trace: bool = False) -> dict:
        cache_dir = ctx.fresh_dir(f"cache-{index}")
        child = ctx.runner.child(
            "build", "--scale", ctx.scale, "--seeds", seeds_arg,
            "--cache-dir", cache_dir, trace=trace,
        )
        payload = child.last_json()
        ctx.tally.check(payload["builds"] == len(seeds), "cold build hit a warm cache")
        return {
            "job_s": payload["total_s"],
            "rss_mb": child.rss_mb,
            "cache_dir": cache_dir,
            "payload": payload,
        }

    if not ctx.trace:
        probe = ["-c", "import repro.datasets.builder"]
        ctx.time_setup(lambda: ctx.runner.run(probe).seconds)
    runs = repeat_for(ctx.seconds, build)
    last = runs[-1]
    cold = last["payload"]["digests"]
    for run in runs[:-1]:
        for name in seeds:
            ctx.tally.check(
                run["payload"]["digests"][name] == cold[name],
                f"dataset {name}: repeated cold builds differ",
            )
    if golden is not None:
        expected = json.loads(Path(golden).read_text(encoding="utf-8"))
        for name in seeds:
            ctx.tally.check(
                expected.get(f"dataset-{name}") == cold[name],
                f"dataset {name}: digest differs from {Path(golden).name}",
            )
    else:  # no fixture at this scale: a warm reload must reproduce the build
        warm = ctx.runner.child(
            "build", "--scale", ctx.scale, "--seeds", seeds_arg,
            "--cache-dir", last["cache_dir"],
        ).last_json()
        ctx.tally.check(warm["builds"] == 0, "warm reload rebuilt a dataset")
        for name in seeds:
            ctx.tally.check(
                warm["digests"][name] == cold[name],
                f"dataset {name}: warm-reload digest differs from the cold build",
            )
    cache_bytes = dir_bytes(last["cache_dir"])
    job_s = median_of(runs, "job_s")
    ctx.e2e["job_s"] = job_s
    ctx.e2e["peak_rss_mb"] = max(run["rss_mb"] for run in runs)
    ctx.report += [("build_s", job_s, "s"), ("cache_bytes", cache_bytes, "bytes")]
    for name, seconds in last["payload"]["seconds"].items():
        ctx.report.append((f"build_s.{name}", seconds, "s"))
    if ctx.trace:
        traced = build(len(runs), trace=True)
        snap = Snap(traced["payload"]["obs"])
        ctx.layers.update(layer_metrics(snap))
        ctx.layers["other_s"] = traced["job_s"] - snap.self_total_s()
        ctx.overhead(job_s, traced["job_s"])


def _report_blocks(report: str) -> dict:
    blocks = re.split(r"\n\n(?==== )", report.rstrip("\n"))
    found = {}
    for block in blocks:
        match = re.match(r"=== (\w+):", block)
        if match:
            found[match.group(1)] = block
    return found


def warm_battery(ctx: Context) -> None:
    from repro.analysis.experiments import EXPERIMENTS

    ids = list(EXPERIMENTS)
    jobs_par = NPROC
    ctx.info["dataset_seeds"] = dict(DATASET_SEEDS)
    ctx.info["jobs"] = [1, jobs_par]
    golden = ctx.args.golden_report
    if golden is None and ctx.scale == GOLDEN_SCALE:
        golden = GOLDEN_REPORT
    cache_dir = ctx.inputs()
    if not ctx.trace:
        ctx.time_setup(lambda: ctx.runner.child("cli", "list").seconds)

    def battery(jobs: int, tag: str, trace: bool = False) -> dict:
        out = ctx.work / f"report-{tag}.txt"
        obs_out = ctx.work / f"obs-{tag}.json" if trace else None
        child = ctx.runner.child(
            "cli", "run", "all", "--scale", ctx.scale, "--cache-dir", cache_dir,
            "--jobs", jobs, "--out", out, trace=trace, obs_out=obs_out,
        )
        # Exit code 1 also means "shape checks failed", which some
        # experiments do at small scales; raising is checked below.
        ctx.tally.check(child.returncode in (0, 1), f"battery --jobs {jobs} crashed")
        report = out.read_text(encoding="utf-8") if out.exists() else ""
        blocks = _report_blocks(report)
        ctx.tally.check(
            list(blocks) == ids and "[ERROR] experiment raised" not in report,
            f"battery --jobs {jobs}: an experiment raised or is missing",
        )
        stats = re.search(r"(\d+) hit\(s\), \d+ miss\(es\), (\d+) build\(s\)", child.stdout)
        ctx.tally.check(
            stats is not None and stats.group(2) == "0",
            f"battery --jobs {jobs} rebuilt a dataset",
        )
        return {"seconds": child.seconds, "rss_mb": child.rss_mb, "report": report,
                "blocks": blocks, "obs": obs_out}

    def pair(index: int, trace: bool = False) -> dict:
        seq = battery(1, f"seq-{index}", trace)
        par = battery(jobs_par, f"par-{index}", trace)
        ctx.tally.check(
            seq["report"] == par["report"],
            f"--jobs 1 and --jobs {jobs_par} reports differ",
        )
        if golden is not None:
            expected = Path(golden).read_text(encoding="utf-8")
            got = "\n\n".join(seq["blocks"].get(i, "") for i in GOLDEN_IDS) + "\n"
            ctx.tally.check(got == expected, f"report blocks differ from {Path(golden).name}")
        return {"seq": seq, "par": par, "job_s": seq["seconds"] + par["seconds"],
                "battery_s": seq["seconds"], "battery_par_s": par["seconds"],
                "rss_mb": max(seq["rss_mb"], par["rss_mb"])}

    runs = repeat_for(ctx.seconds, pair, at_least=JOB_REPEATS)
    job_s = median_of(runs, "job_s")
    ctx.e2e["job_s"] = job_s
    ctx.e2e["peak_rss_mb"] = max(run["rss_mb"] for run in runs)
    ctx.report += [
        ("battery_s", median_of(runs, "battery_s"), "s"),
        ("battery_par_s", median_of(runs, "battery_par_s"), "s"),
    ]
    if ctx.trace:
        traced = pair(len(runs), trace=True)
        seq, par = read_obs(traced["seq"]["obs"]), read_obs(traced["par"]["obs"])
        ctx.layers.update(layer_metrics(seq))
        ctx.layers["other_s"] = (
            traced["seq"]["seconds"]
            - seq.count("bench.process.startup_ns") / 1e9
            - seq.self_total_s()
        )
        ctx.layers["runner.dataset_loads"] = sum(
            calls for name, calls in par.counters.items()
            if re.match(r"^bench\.cache\.(load|build)\.[^.]+\.calls$", name)
        )
        experiments = sum(par.timers("experiment.").values())
        ctx.layers["runner.idle_s"] = (
            jobs_par * par.timer_s("runner.battery") - experiments
        )
        ctx.overhead(job_s, traced["job_s"])


def _counting_client(port: int):
    """An ``AuditClient`` on ``port`` that counts its retries."""
    from repro.service.client import AuditClient

    class CountingClient(AuditClient):
        retries = 0

        def _sleep_for(self, attempt, hint):
            self.retries += 1
            super()._sleep_for(attempt, hint)

    return CountingClient("127.0.0.1", port)


class Server:
    """``repro-audit serve`` in its own process, via ``child.py``."""

    def __init__(self, ctx: Context, dataset_file: Path, tag: str, trace: bool):
        wal_dir = ctx.fresh_dir(f"wal-{tag}")
        port_file = ctx.work / f"port-{tag}"
        start = time.perf_counter()
        self.process = ctx.runner.popen(
            [str(CHILD), "cli", "serve", "--dataset", str(dataset_file),
             "--wal-dir", str(wal_dir), "--port-file", str(port_file)],
            trace=trace,
        )
        try:
            self.port = self._wait_port(port_file)
            self._wait_ready()
        except BaseException:
            self.process.kill()
            self.process.wait()
            raise
        self.startup_s = time.perf_counter() - start
        self.rss_mb = 0.0

    def _alive(self) -> None:
        if self.process.poll() is not None:
            raise BenchError(f"server exited early ({self.process.returncode})")

    def _wait_port(self, port_file: Path) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            self._alive()
            try:
                text = port_file.read_text().strip()
            except FileNotFoundError:
                text = ""
            if text:
                return int(text)
            time.sleep(0.005)
        raise BenchError("server never wrote its port")

    def get(self, path: str, timeout: float = 10.0) -> tuple[int, dict]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            connection.close()

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            self._alive()
            try:
                if self.get("/readyz", timeout=1.0)[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise BenchError("server never became ready")

    def stop(self) -> None:
        if self.process.returncode is None:
            self.process.send_signal(signal.SIGINT)
            _, self.rss_mb = Runner.reap(self.process, timeout=20.0)


class _QueryMix:
    """The reader side of service-mixed: one client cycling tx/pool/status."""

    def __init__(self, port: int, sample: list, pools: list) -> None:
        self.client = _counting_client(port)
        self.sample = sample
        self.pools = pools
        self.index = 0

    def next(self) -> str:
        """Send the next query of the mix; returns its kind."""
        kind = QUERY_MIX[self.index % len(QUERY_MIX)]
        turn = self.index // len(QUERY_MIX)
        self.index += 1
        if kind == "tx":
            self.client.query_tx(self.sample[turn % len(self.sample)])
        elif kind == "pool":
            self.client.query_pool(self.pools[turn % len(self.pools)])
        else:
            self.client.status()
        return kind


def _ingest(server: Server, feed: list, mix: _QueryMix) -> dict:
    """Replay ``feed`` from a second thread while ``mix`` runs a closed loop."""
    from repro.service.client import ServiceUnavailable

    client = _counting_client(server.port)
    done = threading.Event()
    ingest: dict = {"error": None, "applied": None}

    def replay() -> None:
        start = time.perf_counter()
        try:
            client.stream(feed)
            ingest["applied"] = client.wait_applied(feed[-1][0])["applied_height"]
        except ServiceUnavailable as exc:
            ingest["error"] = str(exc)
        finally:
            ingest["seconds"] = time.perf_counter() - start
            done.set()

    latencies: list = []
    failures = attempted = 0
    thread = threading.Thread(target=replay, name="ingest")
    thread.start()
    while not done.is_set():
        began = time.perf_counter()
        attempted += 1
        try:
            mix.next()
            latencies.append(time.perf_counter() - began)
        except ServiceUnavailable:
            failures += 1
    thread.join()
    return dict(ingest, latencies=latencies, failures=failures, attempted=attempted,
                retries=client.retries)


def _open_loop(mix: _QueryMix, seconds: float) -> dict:
    """Request i is due at start + i / rate; latency counts from the due
    time, so a stall also delays the requests queued behind it."""
    from repro.service.client import ServiceUnavailable

    latencies: list = []
    by_kind: dict = {kind: [] for kind in QUERY_MIX}
    late = 0.0
    failures = 0
    total = int(QUERY_RATE * seconds)
    start = time.perf_counter()
    for i in range(total):
        due = start + i / QUERY_RATE
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
        late = max(late, time.perf_counter() - due)
        try:
            kind = mix.next()
        except ServiceUnavailable:
            failures += 1
            continue
        latency = time.perf_counter() - due
        latencies.append(latency)
        by_kind[kind].append(latency)
    return {"latencies": latencies, "by_kind": by_kind, "late_s": late,
            "failures": failures, "attempted": total}


def service_mixed(ctx: Context) -> None:
    from repro.core.audit import Auditor, stream_blocks
    from repro.datasets.io import load_dataset
    from repro.service.server import pool_answer, tx_answer

    ctx.info["dataset_seeds"] = {"C": DATASET_SEEDS["C"]}
    ctx.info["query_rate"] = QUERY_RATE
    dataset_file = next(ctx.inputs().glob("dataset-C-*.json.gz"))
    dataset = load_dataset(dataset_file)
    feed = list(stream_blocks(dataset))
    rng = random.Random(ctx.seed)
    committed = sorted(t for t, r in dataset.tx_records.items() if r.commit_height is not None)
    pending = sorted(t for t, r in dataset.tx_records.items() if r.commit_height is None)
    sample = rng.sample(committed, min(200, len(committed)))
    pools = [estimate.pool for estimate in dataset.hash_rates()]

    # Untraced: SETUP_REPEATS fresh servers time set-up; the last
    # JOB_REPEATS of them each ingest the chain.  Traced: one untraced
    # ingest for the overhead baseline, then the traced round.
    if ctx.trace:
        rounds = [("untraced", False, True), ("traced", True, True)]
    else:
        rounds = [(f"server-{i}", False, i >= SETUP_REPEATS - JOB_REPEATS)
                  for i in range(SETUP_REPEATS)]
    servers: list = []
    ingests: list = []
    try:
        for position, (tag, traced, ingests_chain) in enumerate(rounds):
            server = Server(ctx, dataset_file, tag, traced)
            servers.append(server)
            if not ingests_chain:
                server.stop()
                continue
            mix = _QueryMix(server.port, sample, pools)
            ingest = _ingest(server, feed, mix)
            ingest["traced"] = traced
            ingests.append(ingest)
            ctx.tally.check(
                ingest["error"] is None and ingest["applied"] == feed[-1][0],
                f"ingest did not apply the chain: {ingest['error']}",
            )
            ctx.tally.ops(ingest["attempted"], ingest["failures"], "queries during ingest")
            if position == len(rounds) - 1:
                after = _open_loop(mix, ctx.seconds)
                ctx.tally.ops(after["attempted"], after["failures"], "open-loop queries")
                # Output check: the service's answers equal the batch oracle's.
                oracle = Auditor(dataset)
                for txid in sample[:ORACLE_TXIDS] + pending[:2] + ["never-seen-txid"]:
                    got = mix.client.query_tx(txid)["answer"]
                    ctx.tally.check(
                        got == json.loads(json.dumps(tx_answer(oracle, txid))),
                        f"/query/tx/{txid[:12]} differs from the batch oracle",
                    )
                for pool in pools:
                    got = mix.client.query_pool(pool)["answer"]
                    ctx.tally.check(
                        got == json.loads(json.dumps(pool_answer(oracle, pool))),
                        f"/query/pool/{pool} differs from the batch oracle",
                    )
                if traced:
                    code, payload = server.get("/obs")
                    snap = Snap(payload.get("obs") if code == 200 else None)
            server.stop()
    finally:
        for server in servers:
            if server.process.returncode is None:
                server.process.kill()
                server.process.wait()

    during = [latency for ingest in ingests for latency in ingest["latencies"]]
    ingest_s = statistics.median(i["seconds"] for i in ingests if not i["traced"])
    ctx.e2e["job_s"] = ingest_s
    ctx.e2e["peak_rss_mb"] = max(server.rss_mb for server in servers)
    if not ctx.trace:
        ctx.e2e["setup_s"] = statistics.median(server.startup_s for server in servers)
    ctx.report += [
        ("ingest_blocks_per_s", len(feed) / ingest_s, "1/s"),
        ("ingest_query_p50_ms", _ms(during), "ms"),
        ("query_p50_ms", _ms(after["latencies"]), "ms"),
        ("query_p99_ms", 1000.0 * percentile(after["latencies"], 99), "ms"),
        ("ingest_queries", len(during), "count"),
        ("open_loop_queries", len(after["latencies"]), "count"),
    ]
    if ctx.trace:
        traced_s = ingests[-1]["seconds"]
        ctx.layers.update(layer_metrics(snap))
        busy = snap.span_s("service.fold") + snap.timer_s("wal.append") + snap.timer_s("wal.compact")
        ctx.layers["other_s"] = traced_s - busy
        for kind in QUERY_MIX:
            ctx.layers[f"client.{kind}_ms.p50"] = _ms(after["by_kind"][kind])
        ctx.layers["client.ingest_retries"] = ingests[-1]["retries"]
        ctx.layers["loadgen.late_ms.max"] = 1000.0 * after["late_s"]
        ctx.overhead(ingest_s, traced_s)


JOBS = {"cold-build": cold_build, "warm-battery": warm_battery, "service-mixed": service_mixed}


# ----------------------------------------------------------------------
# Environment record and output
# ----------------------------------------------------------------------
def source_commit() -> str:
    """The git commit, or a digest of ``src/`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    hasher = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        hasher.update(str(path.relative_to(SRC)).encode())
        hasher.update(path.read_bytes())
    return "src-sha256:" + hasher.hexdigest()[:16]


def environment(ctx: Context) -> dict:
    import numpy

    record = {
        "workload": ctx.workload,
        "trace": int(ctx.trace),
        "nproc": NPROC,
        "scale": ctx.scale,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "jobs": 1,
        "query_rate": None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": source_commit(),
    }
    record.update(ctx.info)
    return record


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def run_workload(workload: str, args: argparse.Namespace, spec: dict) -> dict:
    """Run one workload; print its figures and return its result object."""
    work = BENCH_DIR / ".work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(workload, args, work)
    try:
        JOBS[workload](ctx)
        env = environment(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    section = "per_layer" if ctx.trace else "end_to_end"
    values = ctx.layers if ctx.trace else ctx.e2e
    metrics = {}
    for metric in spec[section]:
        name = metric["name"]
        # A per-layer metric absent from a trace is a layer this workload
        # does not load.
        value = values.get(name, 0 if ctx.trace else None)
        if value is None:
            raise BenchError(f"{workload} produced no {name}")
        metrics[name] = {"value": value, "unit": metric["unit"]}
    error_rate = ctx.tally.failed / max(1, ctx.tally.attempted)
    for problem in ctx.tally.problems:
        print(f"CHECK FAILED [{workload}]: {problem}")
    print("# env " + json.dumps(env, sort_keys=True))
    rows = [("setup_s", ctx.e2e.get("setup_s"), "s"),
            ("peak_rss_mb", ctx.e2e.get("peak_rss_mb"), "MB"),
            ("error_rate", error_rate, "ratio")] + ctx.report
    for name, value, unit in rows:
        if value is not None:
            print(f"{workload:<14} {name:<22} {value:>16.6g} {unit}")
    if ctx.trace:  # the layers this workload loads; the JSON carries all
        for name in sorted(n for n, v in ctx.layers.items() if v):
            print(f"{workload:<14} {name:<36} {ctx.layers[name]:>16.6g}")
    result = {
        "correct": ctx.tally.failed == 0,
        "attempted": ctx.tally.attempted,
        "failed": ctx.tally.failed,
        "metrics": metrics,
    }
    record = dict(env, result=result, report={n: v for n, v, _ in rows if v is not None})
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    with open(results_dir / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return result


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or 'all' to run the three in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=GOLDEN_SCALE,
                        help="dataset scale (golden checks apply at 0.1)")
    parser.add_argument("--golden-digests", type=Path, default=None,
                        help="expected per-block txid digests (any scale)")
    parser.add_argument("--golden-report", type=Path, default=None,
                        help="expected golden report blocks (any scale)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        try:
            results[workload] = run_workload(workload, args, spec)
        except (BenchError, OSError, ValueError, KeyError) as exc:
            print(f"error: {workload}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
