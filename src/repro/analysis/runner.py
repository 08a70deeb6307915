"""Parallel experiment executor and the cold/warm benchmark harness.

``run_battery`` executes a list of experiment ids either in-process
(``jobs=1``) or on a process pool, with three guarantees:

* **deterministic assembly** — outcomes come back in the requested
  (paper) order regardless of completion order, and the assembled
  report contains no timing data, so a parallel run's report is
  byte-identical to the sequential one;
* **degradation tolerance** — an experiment that raises is recorded as
  a failed :class:`ExperimentOutcome` (in the same report slot) and the
  rest of the battery keeps running, mirroring the fault-tolerant audit
  pipeline;
* **single-build datasets** — workers share one persistent
  :class:`~repro.datasets.cache.DatasetCache` directory, whose
  first-builder-wins lockfile means each dataset is simulated at most
  once no matter how many workers race for it.

``run_bench`` times the cold/warm × sequential/parallel grid on fresh
cache directories and returns the measurements as a JSON-ready dict
(the committed ``BENCH_runner.json`` baseline).
"""

from __future__ import annotations

import json
import math
import multiprocessing
import shutil
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from .. import obs
from ..core.ppe import clear_prediction_cache
from ..datasets.builder import clear_memory_cache
from ..datasets.cache import CacheStats, DatasetCache
from .base import DEFAULT_SCALE, DataContext, ExperimentResult
from .experiments import ALL_RUNNERS, run_experiment


@dataclass
class ExperimentOutcome:
    """One experiment's result (or failure) plus its execution record."""

    experiment_id: str
    wall_time: float
    result: Optional[ExperimentResult] = None
    error: Optional[str] = None
    cache: CacheStats = field(default_factory=CacheStats)
    #: Metrics recorded while this experiment ran (tracing only) — a
    #: snapshot delta, so a pool worker's contribution can be merged
    #: back into the parent's registry.
    obs: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.result is not None

    @property
    def all_passed(self) -> bool:
        return self.ok and self.result.all_passed

    def report(self) -> str:
        """This outcome's report block (timing-free, so reports from
        sequential and parallel runs are byte-identical)."""
        if self.ok:
            return self.result.report()
        return (
            f"=== {self.experiment_id}: FAILED ===\n"
            f"[ERROR] experiment raised: {self.error}"
        )


@dataclass
class BatteryResult:
    """A full battery run: outcomes in request order plus totals."""

    outcomes: list[ExperimentOutcome]
    jobs: int
    scale: float
    total_wall: float

    def report(self) -> str:
        """The assembled report, in the order the ids were requested."""
        return "\n\n".join(outcome.report() for outcome in self.outcomes)

    def failed(self) -> list[ExperimentOutcome]:
        """Outcomes that raised (not merely failed shape checks)."""
        return [o for o in self.outcomes if not o.ok]

    def failing_checks(self) -> list[ExperimentOutcome]:
        """Outcomes that ran but have failing shape checks."""
        return [o for o in self.outcomes if o.ok and not o.result.all_passed]

    @property
    def all_ok(self) -> bool:
        return all(o.all_passed for o in self.outcomes)

    def cache_stats(self) -> CacheStats:
        """Dataset-cache counters aggregated over every outcome."""
        total = CacheStats()
        for outcome in self.outcomes:
            total.hits += outcome.cache.hits
            total.misses += outcome.cache.misses
            total.builds += outcome.cache.builds
            total.lock_waits += outcome.cache.lock_waits
            total.evictions += outcome.cache.evictions
            total.stale_reclaims += outcome.cache.stale_reclaims
        return total

    def timing_table(self) -> str:
        """Per-experiment wall times (printed separately from the report)."""
        width = max(len(o.experiment_id) for o in self.outcomes) if self.outcomes else 8
        lines = [f"--- timing (jobs={self.jobs}, scale={self.scale:g}) ---"]
        for outcome in self.outcomes:
            status = "ok" if outcome.ok else "RAISED"
            if outcome.ok and not outcome.result.all_passed:
                status = "checks-failed"
            lines.append(
                f"{outcome.experiment_id:<{width}}  "
                f"{outcome.wall_time:7.2f}s  {status}"
            )
        lines.append(f"{'total':<{width}}  {self.total_wall:7.2f}s")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Per-process contexts, so experiments running in the same worker share
#: in-memory datasets exactly like a sequential run does.
_WORKER_CONTEXTS: dict[tuple[float, Optional[str]], DataContext] = {}


def _context_for(scale: float, cache_dir: Optional[str]) -> DataContext:
    key = (scale, cache_dir)
    ctx = _WORKER_CONTEXTS.get(key)
    if ctx is None:
        cache = DatasetCache(cache_dir) if cache_dir is not None else None
        ctx = DataContext(scale=scale, cache=cache)
        _WORKER_CONTEXTS[key] = ctx
    return ctx


def run_one(
    experiment_id: str,
    scale: float,
    cache_dir: Optional[str] = None,
    timeout: Optional[float] = None,
) -> ExperimentOutcome:
    """Run one experiment in this process; never raises.

    This is the unit of work a pool worker executes; ``run_battery``
    with ``jobs=1`` calls it directly so both modes share one code path.

    With ``timeout`` the experiment executes in a watchdog subprocess
    that is killed on overrun; the cell comes back failed (isolated,
    like a raising experiment) instead of hanging the battery.
    """
    if timeout is not None:
        return _run_one_guarded(experiment_id, scale, cache_dir, timeout)
    ctx = _context_for(scale, cache_dir)
    before = ctx.cache.stats.snapshot() if ctx.cache is not None else None
    obs_before = obs.snapshot() if obs.is_enabled() else None
    start = time.perf_counter()
    try:
        with obs.span("runner.experiment"):
            result = run_experiment(experiment_id, ctx)
        error = None
        obs.counter("runner.experiments.ok")
    except Exception as exc:  # degradation tolerance: record, don't raise
        result = None
        error = f"{type(exc).__name__}: {exc}"
        obs.counter("runner.experiments.raised")
    wall = time.perf_counter() - start
    cache_delta = (
        ctx.cache.stats.delta(before) if before is not None else CacheStats()
    )
    obs_delta = (
        obs.delta(obs_before, obs.snapshot()) if obs_before is not None else None
    )
    return ExperimentOutcome(
        experiment_id=experiment_id,
        wall_time=wall,
        result=result,
        error=error,
        cache=cache_delta,
        obs=obs_delta,
    )


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork shares the parent's loaded modules (fast start); fall back to
    # spawn where fork is unavailable.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _watchdog_child(pipe, experiment_id: str, scale: float, cache_dir) -> None:
    """Child body of the timeout watchdog: run, then ship the outcome."""
    try:
        pipe.send(run_one(experiment_id, scale, cache_dir))
    finally:
        pipe.close()


def _run_one_guarded(
    experiment_id: str, scale: float, cache_dir: Optional[str], timeout: float
) -> ExperimentOutcome:
    """Run one experiment under a wall-clock guard, never raising.

    The experiment executes in a fresh child process (fork-preferring,
    so in-memory dataset caches stay warm); if no outcome arrives within
    ``timeout`` seconds the child is killed and the cell is marked
    failed.  ProcessPoolExecutor workers are non-daemonic, so this
    nests cleanly under ``jobs > 1``.
    """
    ctx = _pool_context()
    receiver, sender = ctx.Pipe(duplex=False)
    process = ctx.Process(
        target=_watchdog_child,
        args=(sender, experiment_id, scale, cache_dir),
    )
    start = time.perf_counter()
    process.start()
    sender.close()
    outcome: Optional[ExperimentOutcome] = None
    died_early = False
    if receiver.poll(timeout):
        # The pipe is readable: either an outcome or an EOF from a
        # child that died before shipping one.
        try:
            outcome = receiver.recv()
        except (EOFError, OSError):
            died_early = True
    receiver.close()
    wall = time.perf_counter() - start
    if outcome is not None:
        process.join(timeout=5.0)
        # The child recorded into its own forked registry; fold its
        # delta into ours (the pool path then propagates outcome.obs
        # to the pool parent exactly once, as for an unguarded cell).
        obs.merge(outcome.obs)
        return outcome
    if died_early:
        process.join(timeout=5.0)
        error = f"worker process died (exit code {process.exitcode})"
    else:
        obs.counter("runner.experiments.timeout")
        process.terminate()
        process.join(timeout=5.0)
        if process.is_alive():
            process.kill()
            process.join(timeout=5.0)
        error = f"timed out after {timeout:g}s (killed)"
    return ExperimentOutcome(
        experiment_id=experiment_id, wall_time=wall, error=error
    )


def run_battery(
    experiment_ids: Sequence[str],
    scale: float = DEFAULT_SCALE,
    jobs: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    timeout: Optional[float] = None,
) -> BatteryResult:
    """Run ``experiment_ids`` and assemble outcomes in request order.

    ``jobs > 1`` fans the experiments out over a process pool; dataset
    builds are coordinated through the shared cache directory so each
    dataset is simulated at most once.  A failure in one experiment
    never aborts the rest; with ``timeout`` set, neither does a hang.
    """
    ids = list(experiment_ids)
    unknown = [eid for eid in ids if eid not in ALL_RUNNERS]
    if unknown:
        known = ", ".join(ALL_RUNNERS)
        raise KeyError(
            f"unknown experiment(s) {', '.join(unknown)}; known: {known}"
        )
    cache_dir = str(cache_dir) if cache_dir is not None else None
    start = time.perf_counter()
    if jobs <= 1 or len(ids) <= 1:
        outcomes = [run_one(eid, scale, cache_dir, timeout) for eid in ids]
    else:
        outcomes = [None] * len(ids)
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(ids)), mp_context=_pool_context()
        ) as pool:
            futures = {
                pool.submit(run_one, eid, scale, cache_dir, timeout): index
                for index, eid in enumerate(ids)
            }
            for future in as_completed(futures):
                index = futures[future]
                try:
                    outcomes[index] = future.result()
                    # A pool worker recorded into its own process-local
                    # registry; fold its contribution into ours.
                    obs.merge(outcomes[index].obs)
                except Exception as exc:  # worker process died
                    outcomes[index] = ExperimentOutcome(
                        experiment_id=ids[index],
                        wall_time=0.0,
                        error=f"worker failed: {type(exc).__name__}: {exc}",
                    )
    total = time.perf_counter() - start
    return BatteryResult(
        outcomes=list(outcomes), jobs=jobs, scale=scale, total_wall=total
    )


# ----------------------------------------------------------------------
# Generic shard executor
# ----------------------------------------------------------------------
@dataclass
class ShardOutcome:
    """One shard's result (or failure) from :func:`run_sharded`."""

    index: int
    wall_time: float
    value: Optional[object] = None
    error: Optional[str] = None
    #: obs snapshot delta recorded while the shard ran (tracing only);
    #: already merged into the parent registry by ``run_sharded``.
    obs: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _run_shard(worker: Callable, cell: object, index: int) -> ShardOutcome:
    """Execute one shard in this process; never raises."""
    obs_before = obs.snapshot() if obs.is_enabled() else None
    start = time.perf_counter()
    try:
        value, error = worker(cell), None
    except Exception as exc:  # failure isolation: record, don't raise
        value, error = None, f"{type(exc).__name__}: {exc}"
        obs.counter("runner.shards.raised")
    wall = time.perf_counter() - start
    obs_delta = (
        obs.delta(obs_before, obs.snapshot()) if obs_before is not None else None
    )
    return ShardOutcome(
        index=index, wall_time=wall, value=value, error=error, obs=obs_delta
    )


def run_sharded(
    cells: Sequence[object],
    worker: Callable[[object], object],
    jobs: int = 1,
) -> list[ShardOutcome]:
    """Run picklable ``worker(cell)`` units across the process pool.

    The generic fan-out under independent scenario cells (pools ×
    policies × seeds) and dataset builds: outcomes come back **in cell
    order** regardless of completion order, a shard that raises is
    isolated into its slot instead of aborting the rest, and each pool
    worker's obs delta is merged into the parent registry at join — so
    a traced sharded run accounts metrics exactly like a sequential
    one.  ``worker`` must be a module-level function (it crosses the
    process boundary by reference).
    """
    cells = list(cells)
    if jobs <= 1 or len(cells) <= 1:
        return [_run_shard(worker, cell, i) for i, cell in enumerate(cells)]
    outcomes: list[Optional[ShardOutcome]] = [None] * len(cells)
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(cells)), mp_context=_pool_context()
    ) as pool:
        futures = {
            pool.submit(_run_shard, worker, cell, index): index
            for index, cell in enumerate(cells)
        }
        for future in as_completed(futures):
            index = futures[future]
            try:
                outcome = future.result()
                # The shard recorded into its own process-local obs
                # registry; fold its contribution into ours.
                obs.merge(outcome.obs)
            except Exception as exc:  # worker process died
                outcome = ShardOutcome(
                    index=index,
                    wall_time=0.0,
                    error=f"worker failed: {type(exc).__name__}: {exc}",
                )
            outcomes[index] = outcome
    return list(outcomes)


# ----------------------------------------------------------------------
# Benchmark harness
# ----------------------------------------------------------------------
def _reset_process_caches() -> None:
    """Drop every in-process memo so a bench cell measures the disk cache."""
    clear_memory_cache()
    clear_prediction_cache()
    _WORKER_CONTEXTS.clear()


def _bench_cell(
    ids: Sequence[str], scale: float, jobs: int, cache_dir: str
) -> tuple[dict, BatteryResult]:
    _reset_process_caches()
    obs_before = obs.snapshot() if obs.is_enabled() else None
    battery = run_battery(ids, scale=scale, jobs=jobs, cache_dir=cache_dir)
    stats = battery.cache_stats()
    cell = {
        "wall_seconds": round(battery.total_wall, 4),
        "jobs": jobs,
        "ok": battery.all_ok,
        "raised": [o.experiment_id for o in battery.failed()],
        "failing_checks": [o.experiment_id for o in battery.failing_checks()],
        "cache": {
            "hits": stats.hits,
            "misses": stats.misses,
            "builds": stats.builds,
            "lock_waits": stats.lock_waits,
        },
        "per_experiment_seconds": {
            o.experiment_id: round(o.wall_time, 4) for o in battery.outcomes
        },
    }
    if obs_before is not None:
        cell["obs"] = obs.delta(obs_before, obs.snapshot())
    return cell, battery


def run_bench(
    experiment_ids: Sequence[str],
    scale: float = 0.2,
    jobs: int = 4,
    work_dir: Optional[Union[str, Path]] = None,
) -> dict:
    """Time cold/warm × sequential/parallel batteries on fresh caches.

    Each mode gets its own empty cache directory: the *cold* cell pays
    for every simulation (and populates the cache), the *warm* cell
    re-runs against the populated cache.  In-process memos are cleared
    between cells so warm timings measure the disk cache, not leftover
    objects.  Each cell carries its ``obs`` metrics snapshot (tracing is
    enabled for the duration of the bench), so the committed
    ``BENCH_runner.json`` also documents what the substrate *did* —
    blocks mined, templates built, cache traffic.  Returns the
    JSON-ready measurement document.
    """
    ids = list(experiment_ids)
    measurements: dict[str, dict] = {}
    reports: dict[str, str] = {}
    with obs.tracing():
        for mode, mode_jobs in (("sequential", 1), ("parallel", jobs)):
            cache_dir = tempfile.mkdtemp(
                prefix=f"repro-bench-{mode}-",
                dir=str(work_dir) if work_dir is not None else None,
            )
            try:
                for phase in ("cold", "warm"):
                    cell, battery = _bench_cell(ids, scale, mode_jobs, cache_dir)
                    measurements[f"{phase}_{mode}"] = cell
                    reports[f"{phase}_{mode}"] = battery.report()
            finally:
                shutil.rmtree(cache_dir, ignore_errors=True)
    _reset_process_caches()

    def wall(name: str) -> float:
        return measurements[name]["wall_seconds"]

    document = {
        "benchmark": "runner",
        "experiments": ids,
        "scale": scale,
        "jobs": jobs,
        "measurements": measurements,
        "speedups": {
            "warm_over_cold_sequential": round(
                wall("cold_sequential") / max(wall("warm_sequential"), 1e-9), 2
            ),
            "warm_over_cold_parallel": round(
                wall("cold_parallel") / max(wall("warm_parallel"), 1e-9), 2
            ),
            "parallel_over_sequential_cold": round(
                wall("cold_sequential") / max(wall("cold_parallel"), 1e-9), 2
            ),
            "parallel_over_sequential_warm": round(
                wall("warm_sequential") / max(wall("warm_parallel"), 1e-9), 2
            ),
        },
        "reports_byte_identical": {
            "parallel_vs_sequential_warm": reports["warm_parallel"]
            == reports["warm_sequential"],
            "warm_vs_cold_sequential": reports["warm_sequential"]
            == reports["cold_sequential"],
        },
    }
    return document


# ----------------------------------------------------------------------
# Scalar-vs-vectorized metrics benchmark
# ----------------------------------------------------------------------
def _timed(fn: Callable[[], object], repeats: int) -> tuple[float, object]:
    """(best wall time over ``repeats``, last result)."""
    best = math.inf
    result: object = None
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _rows_equal(scalar_rows, fast_rows) -> bool:
    """Row-level equality with NaN-tolerant SPPE comparison."""
    if len(scalar_rows) != len(fast_rows):
        return False
    for a, b in zip(scalar_rows, fast_rows):
        if (
            a.owner_pool != b.owner_pool
            or a.target_pool != b.target_pool
            or a.test != b.test
            or a.tx_count != b.tx_count
        ):
            return False
        if a.sppe != b.sppe and not (
            math.isnan(a.sppe) and math.isnan(b.sppe)
        ):
            return False
    return True


# ----------------------------------------------------------------------
# Scalar-vs-vectorized engine (block production) benchmark
# ----------------------------------------------------------------------
#: The engine-vectorization acceptance gate: the fast path must produce
#: blocks at least this many times faster than the scalar oracle on the
#: dataset-C analogue.  Applied only at ``scale >= ENGINE_GATE_SCALE`` —
#: below that, fixed per-run overhead (array packing, policy
#: compilation) dominates and the ratio is not meaningful.
ENGINE_GATE_SPEEDUP = 10.0
ENGINE_GATE_SCALE = 0.3
ENGINE_GATE_DATASET = "dataset-C"


def _serialize_observers(result) -> dict[str, str]:
    """Canonical JSON blob per observer — the byte-identity artefacts."""
    from ..datasets.io import dataset_to_dict

    return {
        name: json.dumps(
            dataset_to_dict(dataset), separators=(",", ":"), sort_keys=True
        )
        for name, dataset in sorted(result.datasets_by_observer.items())
    }


def _engine_run(
    factory, repeats: int, scalar: bool
) -> tuple[float, dict, dict[str, str]]:
    """Best-of-``repeats`` block-production seconds for one engine loop.

    Production time is the ``engine.run`` span minus the ``engine.curate``
    span: admission, template building, the mining race and chain append
    — excluding dataset curation, which is identical for both loops.
    Returns (best seconds, counters from the best run, observer blobs).
    """
    best = math.inf
    counters: dict = {}
    blobs: dict[str, str] = {}
    for _ in range(max(repeats, 1)):
        with obs.tracing(reset=True):
            result = factory().run(scalar=scalar)
            snapshot = obs.snapshot()
        spans = snapshot.get("spans", {})
        production = spans.get("engine.run", {}).get(
            "total_seconds", 0.0
        ) - spans.get("engine.curate", {}).get("total_seconds", 0.0)
        if production < best:
            best = production
            counters = snapshot.get("counters", {})
        blobs = _serialize_observers(result)
    return best, counters, blobs


def run_engine_bench(scale: float = ENGINE_GATE_SCALE, repeats: int = 2) -> dict:
    """Time the scalar engine loop against the vectorized fast path.

    Runs the dataset-A and dataset-C scenario analogues at ``scale`` on
    both loops (``scalar=True`` vs the default fast path) and
    reports best-of-``repeats`` block-production times.  Two gates:

    * **byte identity** (always): every observer's serialized dataset
      must match between the modes, cell by cell;
    * **speedup** (only when ``scale >= ENGINE_GATE_SCALE``): dataset C
      must clear :data:`ENGINE_GATE_SPEEDUP` on production time.
    """
    from ..simulation.scenarios import dataset_a_scenario, dataset_c_scenario

    factories = {
        "dataset-A": lambda: dataset_a_scenario(scale=scale),
        "dataset-C": lambda: dataset_c_scenario(scale=scale),
    }
    cells: dict[str, dict] = {}
    for name, factory in factories.items():
        scalar_seconds, _, scalar_blobs = _engine_run(factory, repeats, True)
        fast_seconds, counters, fast_blobs = _engine_run(factory, repeats, False)
        blocks = int(counters.get("engine.blocks.committed", 0))
        cells[name] = {
            "scalar_production_seconds": round(scalar_seconds, 4),
            "fast_production_seconds": round(fast_seconds, 4),
            "speedup": round(scalar_seconds / max(fast_seconds, 1e-9), 2),
            "identical": scalar_blobs == fast_blobs,
            "blocks_committed": blocks,
            "fast_blocks_per_second": round(
                blocks / max(fast_seconds, 1e-9), 2
            ),
            "scalar_blocks_per_second": round(
                blocks / max(scalar_seconds, 1e-9), 2
            ),
            "fast_path_engaged": (
                counters.get("engine.fast.pools_compiled", 0) > 0
                and counters.get("engine.fast.pools_fallback", 0) == 0
            ),
        }
    gate_applies = scale >= ENGINE_GATE_SCALE
    return {
        "benchmark": "engine",
        "scale": scale,
        "repeats": repeats,
        "cells": cells,
        "gate": {
            "dataset": ENGINE_GATE_DATASET,
            "min_speedup": ENGINE_GATE_SPEEDUP,
            "applies": gate_applies,
        },
        "all_identical": all(c["identical"] for c in cells.values()),
        "all_fast_path_engaged": all(
            c["fast_path_engaged"] for c in cells.values()
        ),
        "speedup_ok": (
            not gate_applies
            or cells[ENGINE_GATE_DATASET]["speedup"] >= ENGINE_GATE_SPEEDUP
        ),
    }


def run_adversaries_bench(
    scale: float = 0.08,
    kinds: Sequence[str] = ("fifo", "sandwich", "censor-for-rent", "selfish"),
    repeats: int = 1,
) -> dict:
    """Time adversary-zoo lineups on both substrates and the sweep itself.

    Two sections:

    * **cells** — for each zoo ``kind``, best-of-``repeats`` block
      production seconds on the scalar vs fast loop with the byte-identity
      gate; zoo *template* policies are unknown to the fast path's
      policy compiler, so these cells also record whether the
      compiled-policy-program fallback actually engaged (the selfish
      lineup keeps honest templates and must *not* fall back);
    * **sweep** — cold vs cache-warm wall time of a one-seed detection
      matrix over the same kinds plus the honest row, with the
      honest-row false-positive bound as the gate.
    """
    from ..simulation.scenarios import adversary_scenario
    from .ext_adversaries import sweep_detection_matrix

    cells: dict[str, dict] = {}
    for kind in kinds:
        factory = lambda: adversary_scenario(kind, scale=scale)  # noqa: E731
        scalar_seconds, _, scalar_blobs = _engine_run(factory, repeats, True)
        fast_seconds, counters, fast_blobs = _engine_run(factory, repeats, False)
        cells[kind] = {
            "scalar_production_seconds": round(scalar_seconds, 4),
            "fast_production_seconds": round(fast_seconds, 4),
            "identical": scalar_blobs == fast_blobs,
            "fallback_pools": int(
                counters.get("engine.fast.pools_fallback", 0)
            ),
            "compiled_pools": int(
                counters.get("engine.fast.pools_compiled", 0)
            ),
        }

    sweep_kinds = ("honest",) + tuple(kinds)
    sweep_seconds: dict[str, float] = {}
    matrix = None
    with tempfile.TemporaryDirectory(prefix="repro-adv-bench-") as tmp:
        cache = DatasetCache(tmp)
        for phase in ("cold", "warm"):
            clear_memory_cache()
            started = time.perf_counter()
            matrix = sweep_detection_matrix(
                scale=scale,
                kinds=sweep_kinds,
                seeds=(11,),
                intensities=(1.0,),
                cache=cache,
            )
            sweep_seconds[phase] = round(time.perf_counter() - started, 3)
    honest_fpr = {c.test: c.rate for c in matrix.row("honest")}
    template_kinds = [k for k in kinds if k != "selfish"]
    return {
        "benchmark": "adversaries",
        "scale": scale,
        "repeats": repeats,
        "cells": cells,
        "sweep": {
            "kinds": list(sweep_kinds),
            "cold_seconds": sweep_seconds["cold"],
            "warm_seconds": sweep_seconds["warm"],
            "honest_fpr": honest_fpr,
            "alpha": matrix.alpha,
        },
        "all_identical": all(c["identical"] for c in cells.values()),
        "fallback_exercised": all(
            cells[k]["fallback_pools"] > 0 for k in template_kinds
        ),
        "honest_fpr_ok": all(
            rate <= matrix.alpha for rate in honest_fpr.values()
        ),
    }


def run_metrics_bench(
    scale: float = 0.3,
    cache_dir: Optional[Union[str, Path]] = None,
    repeats: int = 2,
) -> dict:
    """Time the scalar oracle against the vectorized metrics core.

    Builds (or loads) the dataset-C analogue at ``scale`` and times the
    Table 2 per-pool SPPE sweep, the chain-wide PPE distribution, and
    the Fig 6 violation grid twice: through the named scalar reference
    functions and through the :class:`Auditor`.  Vectorized timings are
    reported twice: *cold* (first call on a fresh auditor — pays for
    packing the chain into arrays) and *warm* (arrays cached); the
    headline ``speedup`` compares the scalar best against the vectorized
    cold time, i.e. it already amortises nothing.  Each cell also checks
    the two substrates produced identical results.
    """
    from ..core.audit import Auditor, self_interest_table_reference
    from ..core.ppe import chain_ppe
    from ..core.violations import analyze_snapshot
    from ..datasets.builder import build_dataset_c

    import numpy as np

    cache = DatasetCache(cache_dir) if cache_dir is not None else DatasetCache()
    dataset = build_dataset_c(scale=scale, cache=cache)
    cells: dict[str, dict] = {}

    def cell(
        name: str,
        reference: Callable[[Auditor], object],
        run: Callable[[Auditor], object],
        same: Callable[[object, object], bool],
    ) -> None:
        auditor = Auditor(dataset)
        scalar_seconds, scalar_result = _timed(
            lambda: reference(auditor), repeats
        )
        auditor = Auditor(dataset)
        start = time.perf_counter()
        fast_result = run(auditor)
        cold = time.perf_counter() - start
        warm, fast_result = _timed(lambda: run(auditor), repeats)
        cells[name] = {
            "scalar_seconds": round(scalar_seconds, 4),
            "vectorized_cold_seconds": round(cold, 4),
            "vectorized_warm_seconds": round(warm, 4),
            "speedup": round(scalar_seconds / max(cold, 1e-9), 2),
            "warm_speedup": round(scalar_seconds / max(warm, 1e-9), 2),
            "identical": bool(same(scalar_result, fast_result)),
        }

    epsilons = (0.0, 10.0, 600.0)

    def violation_grid_reference(auditor: Auditor) -> dict:
        views = auditor.snapshot_views(rng=np.random.default_rng(30))
        return {
            epsilon: [analyze_snapshot(view, epsilon) for view in views]
            for epsilon in epsilons
        }

    cell(
        "table2_sppe_sweep",
        self_interest_table_reference,
        lambda auditor: auditor.self_interest_table(),
        _rows_equal,
    )
    cell(
        "ppe_distribution",
        lambda auditor: chain_ppe(auditor.dataset.chain),
        lambda auditor: auditor.ppe_distribution(),
        lambda a, b: a == b,
    )
    cell(
        "fig6_violation_grid",
        violation_grid_reference,
        lambda auditor: auditor.violation_stats_multi(
            epsilons, rng=np.random.default_rng(30)
        ),
        lambda a, b: a == b,
    )
    return {
        "benchmark": "metrics",
        "dataset": "dataset_c",
        "scale": scale,
        "repeats": repeats,
        "cells": cells,
        "table2_speedup": cells["table2_sppe_sweep"]["speedup"],
        "all_identical": all(c["identical"] for c in cells.values()),
        # Warm-vs-warm: the scalar timings are best-of-N, so per-block
        # memos built by earlier repeats make them effectively warm; the
        # fair "never slower" gate compares against vectorized warm.
        "vectorized_never_slower": all(
            c["warm_speedup"] >= 1.0 for c in cells.values()
        ),
    }


# ----------------------------------------------------------------------
# Columnar-dataset benchmark (cold sharded builds / warm mmap loads)
# ----------------------------------------------------------------------
def _build_dataset_shard(cell) -> dict:
    """Pool worker: build one of the A/B/C analogues through the cache."""
    from ..datasets import builder as dataset_builder

    name, scale, cache_dir = cell
    build = {
        "A": dataset_builder.build_dataset_a,
        "B": dataset_builder.build_dataset_b,
        "C": dataset_builder.build_dataset_c,
    }[name]
    cache = DatasetCache(cache_dir)
    start = time.perf_counter()
    dataset = build(scale=scale, cache=cache)
    seconds = time.perf_counter() - start
    return {
        "dataset": name,
        "build_seconds": round(seconds, 3),
        "blocks": dataset.block_count,
        "records": dataset.tx_count,
        "snapshots": len(dataset.snapshots),
        "columnar_attached": dataset.columnar is not None,
    }


def run_datasets_bench(
    scale: float = 1.0,
    jobs: int = 4,
    battery_ids: Optional[Sequence[str]] = None,
    work_dir: Optional[Union[str, Path]] = None,
) -> dict:
    """Benchmark the columnar dataset pipeline end to end.

    Four sections over one fresh cache directory:

    * **cold** — the A/B/C analogues built once each, sharded across
      the process pool (``jobs``), every entry persisted in both
      formats with the on-disk sizes recorded;
    * **warm** — the same datasets re-loaded from the populated cache
      (in-process memos cleared first), which must come back through
      the memory-mapped sidecar;
    * **chain_arrays / table2_warm** — packing cost via mmap vs the
      object-graph walk on dataset C, then a warm Table 2 sweep with
      the ``vectorized.chain_arrays.*`` counters, gating that the
      zero-copy path engaged and **zero** fallbacks occurred;
    * **battery** — a full paper battery at ``scale`` against the warm
      cache (scenario-only datasets still build cold inside it).

    Gates: interchange **byte identity** for every dataset loaded back
    from the columnar store, the mmap path engaging with no fallback on
    the warm sweep, and the battery completing.
    """
    import gzip

    import numpy as np

    from ..core.audit import Auditor
    from ..core.vectorized import ChainArrays
    from ..datasets import builder as dataset_builder
    from ..datasets.builder import disk_cache_key
    from ..datasets.columnar import columnar_sidecar
    from ..datasets.io import dataset_to_dict
    from ..simulation.scenarios import (
        dataset_a_scenario,
        dataset_b_scenario,
        dataset_c_scenario,
    )
    from .experiments import EXPERIMENTS

    ids = list(battery_ids) if battery_ids is not None else list(EXPERIMENTS)
    scenarios = {
        "A": dataset_a_scenario(scale=scale),
        "B": dataset_b_scenario(scale=scale),
        "C": dataset_c_scenario(scale=scale),
    }
    cache_root = tempfile.mkdtemp(
        prefix="repro-bench-datasets-",
        dir=str(work_dir) if work_dir is not None else None,
    )
    try:
        with obs.tracing():
            # -- cold: shard the three builds across the pool ----------
            _reset_process_caches()
            cells = [(name, scale, cache_root) for name in ("A", "B", "C")]
            started = time.perf_counter()
            outcomes = run_sharded(cells, _build_dataset_shard, jobs=jobs)
            cold_wall = time.perf_counter() - started
            cache = DatasetCache(cache_root)
            cold: dict[str, dict] = {}
            for (name, _, _), outcome in zip(cells, outcomes):
                entry = (
                    dict(outcome.value)
                    if outcome.ok
                    else {"dataset": name, "error": outcome.error}
                )
                path = cache.path_for(disk_cache_key(scenarios[name]))
                sidecar = columnar_sidecar(path)
                if path.exists():
                    entry["gzip_bytes"] = path.stat().st_size
                if sidecar.exists():
                    entry["columnar_bytes"] = sidecar.stat().st_size
                cold[name] = entry

            # -- warm: loads must come back memory-mapped --------------
            _reset_process_caches()
            builders = {
                "A": dataset_builder.build_dataset_a,
                "B": dataset_builder.build_dataset_b,
                "C": dataset_builder.build_dataset_c,
            }
            warm: dict[str, dict] = {}
            datasets: dict[str, object] = {}
            for name, build in builders.items():
                started = time.perf_counter()
                dataset = build(scale=scale, cache=cache)
                seconds = time.perf_counter() - started
                datasets[name] = dataset
                warm[name] = {
                    "load_seconds": round(seconds, 3),
                    "mmap_attached": dataset.columnar is not None,
                }

            # -- byte identity: columnar round-trip == gzip interchange
            byte_identity: dict[str, bool] = {}
            for name, dataset in datasets.items():
                path = cache.path_for(disk_cache_key(scenarios[name]))
                with gzip.open(path, "rb") as handle:
                    interchange = handle.read()
                serialized = json.dumps(
                    dataset_to_dict(dataset), separators=(",", ":")
                ).encode("utf-8")
                byte_identity[name] = serialized == interchange

            # -- packing: mmap vs object graph on dataset C ------------
            dataset_c = datasets["C"]
            mmap_seconds, packed_mmap = _timed(
                lambda: ChainArrays.from_dataset(dataset_c), 1
            )
            object_seconds, packed_objects = _timed(
                lambda: ChainArrays.from_blocks(
                    dataset_c.chain, dataset_c.block_pools
                ),
                1,
            )
            packs_identical = (
                packed_mmap.txids == packed_objects.txids
                and np.array_equal(
                    packed_mmap.fee_rates, packed_objects.fee_rates
                )
                and np.array_equal(
                    packed_mmap.predicted_rank, packed_objects.predicted_rank
                )
            )

            # -- warm Table 2 with the pack-path counters --------------
            obs_before = obs.snapshot()
            table2_seconds, _ = _timed(
                lambda: Auditor(dataset_c).self_interest_table(), 1
            )
            pack_counters = obs.delta(obs_before, obs.snapshot()).get(
                "counters", {}
            )
            mmap_packs = int(
                pack_counters.get("vectorized.chain_arrays.mmap", 0)
            )
            fallback_packs = int(
                pack_counters.get("vectorized.chain_arrays.fallback", 0)
            )

            # -- a full paper battery against the warm cache -----------
            battery_cell, _ = _bench_cell(ids, scale, jobs, cache_root)
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
    _reset_process_caches()

    gates = {
        "byte_identical": all(byte_identity.values()),
        "mmap_engaged": mmap_packs > 0 and fallback_packs == 0,
        "battery_ok": not battery_cell["raised"],
    }
    return {
        "benchmark": "datasets",
        "scale": scale,
        "jobs": jobs,
        "experiments": ids,
        "cold": {
            "wall_seconds": round(cold_wall, 3),
            "sharded": jobs > 1 and len(cells) > 1,
            "datasets": cold,
        },
        "warm": warm,
        "byte_identity": byte_identity,
        "chain_arrays": {
            "mmap_pack_seconds": round(mmap_seconds, 4),
            "object_pack_seconds": round(object_seconds, 4),
            "speedup": round(object_seconds / max(mmap_seconds, 1e-9), 2),
            "identical": bool(packs_identical),
        },
        "table2_warm": {
            "seconds": round(table2_seconds, 4),
            "mmap_packs": mmap_packs,
            "fallback_packs": fallback_packs,
        },
        "battery": battery_cell,
        "gates": gates,
    }
