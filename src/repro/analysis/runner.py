"""Parallel experiment executor and the generic shard executor.

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

``run_sharded`` is the same fan-out for arbitrary picklable work
units (scenario cells, dataset builds).  The benchmark suites that time
both live in :mod:`repro.bench`.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from .. import obs
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
