"""The benchmark suites behind ``repro-audit bench``.

:data:`SUITES` maps each suite name to ``(run, default_scale)``.  Every
``run(ids, scale, jobs)`` returns one document shape: ``scale``,
``jobs`` (the worker processes the suite used; 1 for the in-process
suites), ``nproc`` (``os.cpu_count()``), the suite's measurements, and
``gates: {name: bool}``.  The CLI merges the documents into
``{suite: document}`` and fails on any false gate; EXPERIMENTS.md
lists each suite's gates.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import shutil
import tempfile
import threading
import time
from typing import Callable, Sequence

import numpy as np

from . import obs
from .analysis import runner
from .analysis.ext_adversaries import sweep_detection_matrix
from .core.audit import Auditor, self_interest_table_reference, stream_blocks
from .core.ppe import chain_ppe, clear_prediction_cache
from .core.vectorized import ChainArrays
from .core.violations import analyze_snapshot
from .datasets.builder import (
    build_dataset,
    build_dataset_a,
    build_dataset_c,
    clear_memory_cache,
    disk_cache_key,
)
from .datasets.cache import DatasetCache
from .datasets.columnar import columnar_sidecar
from .datasets.io import dataset_to_dict
from .simulation.scenarios import (
    adversary_scenario,
    dataset_a_scenario,
    dataset_b_scenario,
    dataset_c_scenario,
)

_SCENARIOS = {
    "A": dataset_a_scenario,
    "B": dataset_b_scenario,
    "C": dataset_c_scenario,
}

#: The engine-vectorization acceptance gate: the fast path must produce
#: blocks at least this many times faster than the scalar oracle on the
#: dataset-C analogue.  Applied only at ``scale >= ENGINE_GATE_SCALE`` —
#: below that, fixed per-run overhead (array packing, policy
#: compilation) dominates and the ratio is not meaningful.
ENGINE_GATE_SPEEDUP = 10.0
ENGINE_GATE_SCALE = 0.3
ENGINE_GATE_DATASET = "dataset-C"

#: Zoo kinds timed on both engine loops; all but ``selfish`` use
#: template policies the fast path cannot compile.
ADVERSARY_KINDS = ("fifo", "sandwich", "censor-for-rent", "selfish")


def _reset_process_caches() -> None:
    """Drop every in-process memo so a bench cell measures the disk cache."""
    clear_memory_cache()
    clear_prediction_cache()
    runner._WORKER_CONTEXTS.clear()


def _document(scale: float, jobs: int, gates: dict, **measurements) -> dict:
    return {
        "scale": scale,
        "jobs": jobs,
        "nproc": os.cpu_count(),
        **measurements,
        "gates": gates,
    }


def _ratio(slow: float, fast: float) -> float:
    return round(slow / max(fast, 1e-9), 2)


def _timed(fn: Callable[[], object], repeats: int) -> tuple[float, object]:
    """(best wall time over ``repeats``, last result)."""
    best = math.inf
    result: object = None
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


# ----------------------------------------------------------------------
# runner: the battery over cold/warm × sequential/parallel
# ----------------------------------------------------------------------
def _battery_cell(
    ids: Sequence[str], scale: float, jobs: int, cache_dir: str
) -> tuple[dict, str]:
    """One traced battery after a memo reset: (cell, assembled report)."""
    _reset_process_caches()
    obs_before = obs.snapshot()
    battery = runner.run_battery(ids, scale=scale, jobs=jobs, cache_dir=cache_dir)
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
        "obs": obs.delta(obs_before, obs.snapshot()),
    }
    return cell, battery.report()


def bench_runner(ids: Sequence[str], scale: float, jobs: int) -> dict:
    """Time cold/warm × sequential/parallel batteries on fresh caches.

    Each mode gets its own empty cache directory: the *cold* cell pays
    for every simulation (and populates the cache), the *warm* cell
    re-runs against the populated cache.  In-process memos are cleared
    between cells so warm timings measure the disk cache, not leftover
    objects.  Tracing is on throughout, so each cell carries the obs
    delta of what the substrate did.  Gates: the warm parallel report
    is byte-identical to the warm sequential one, and the warm
    sequential report to the cold one.
    """
    measurements: dict[str, dict] = {}
    reports: dict[str, str] = {}
    with obs.tracing():
        for mode, mode_jobs in (("sequential", 1), ("parallel", jobs)):
            cache_dir = tempfile.mkdtemp(prefix=f"repro-bench-{mode}-")
            try:
                for phase in ("cold", "warm"):
                    name = f"{phase}_{mode}"
                    measurements[name], reports[name] = _battery_cell(
                        ids, scale, mode_jobs, cache_dir
                    )
            finally:
                shutil.rmtree(cache_dir, ignore_errors=True)
    _reset_process_caches()

    def speedup(slow: str, fast: str) -> float:
        return _ratio(
            measurements[slow]["wall_seconds"], measurements[fast]["wall_seconds"]
        )

    return _document(
        scale,
        jobs,
        {
            "parallel_vs_sequential_warm": reports["warm_parallel"]
            == reports["warm_sequential"],
            "warm_vs_cold_sequential": reports["warm_sequential"]
            == reports["cold_sequential"],
        },
        experiments=list(ids),
        measurements=measurements,
        speedups={
            "warm_over_cold_sequential": speedup(
                "cold_sequential", "warm_sequential"
            ),
            "warm_over_cold_parallel": speedup("cold_parallel", "warm_parallel"),
            "parallel_over_sequential_cold": speedup(
                "cold_sequential", "cold_parallel"
            ),
            "parallel_over_sequential_warm": speedup(
                "warm_sequential", "warm_parallel"
            ),
        },
    )


# ----------------------------------------------------------------------
# metrics: scalar oracles vs the vectorized audit kernels
# ----------------------------------------------------------------------
def _rows_equal(scalar_rows, fast_rows) -> bool:
    """Row-level equality with NaN-tolerant SPPE comparison."""

    def key(row) -> tuple:
        return (row.owner_pool, row.target_pool, row.test, row.tx_count)

    return len(scalar_rows) == len(fast_rows) and all(
        key(a) == key(b)
        and (a.sppe == b.sppe or (math.isnan(a.sppe) and math.isnan(b.sppe)))
        for a, b in zip(scalar_rows, fast_rows)
    )


def bench_metrics(ids: Sequence[str], scale: float, jobs: int) -> dict:
    """Time the scalar oracle against the vectorized metrics core.

    Builds (or loads, through the default dataset cache) the dataset-C
    analogue at ``scale`` and times the Table 2 per-pool SPPE sweep, the
    chain-wide PPE distribution, and the Fig 6 violation grid twice:
    through the named scalar reference functions and through the
    :class:`Auditor`.  Vectorized timings are reported twice: *cold*
    (first call on a fresh auditor — pays for packing the chain into
    arrays) and *warm* (arrays cached); the headline ``speedup``
    compares the scalar best against the vectorized cold time, i.e. it
    already amortises nothing.  Each cell also checks the two
    substrates produced identical results.
    """
    repeats = 2
    dataset = build_dataset_c(scale=scale, cache=DatasetCache())
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
            "speedup": _ratio(scalar_seconds, cold),
            "warm_speedup": _ratio(scalar_seconds, warm),
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
    return _document(
        scale,
        1,
        {
            "all_identical": all(c["identical"] for c in cells.values()),
            # Warm-vs-warm: the scalar timings are best-of-N, so per-block
            # memos built by earlier repeats make them effectively warm;
            # the fair "never slower" gate compares against vectorized warm.
            "vectorized_never_slower": all(
                c["warm_speedup"] >= 1.0 for c in cells.values()
            ),
        },
        dataset="dataset_c",
        repeats=repeats,
        cells=cells,
        table2_speedup=cells["table2_sppe_sweep"]["speedup"],
    )


# ----------------------------------------------------------------------
# engine / adversaries: the scalar engine loop vs the fast path
# ----------------------------------------------------------------------
def _serialize_observers(result) -> dict[str, str]:
    """Canonical JSON blob per observer — the byte-identity artefacts."""
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


def _scalar_vs_fast(factory, repeats: int) -> tuple[dict, dict]:
    """One scenario on both engine loops: (cell, the fast run's counters).

    The cell holds each loop's best production seconds and whether every
    observer's serialized dataset is byte-identical between them.
    """
    scalar_seconds, _, scalar_blobs = _engine_run(factory, repeats, True)
    fast_seconds, counters, fast_blobs = _engine_run(factory, repeats, False)
    cell = {
        "scalar_production_seconds": round(scalar_seconds, 4),
        "fast_production_seconds": round(fast_seconds, 4),
        "identical": scalar_blobs == fast_blobs,
    }
    return cell, counters


def bench_engine(ids: Sequence[str], scale: float, jobs: int) -> dict:
    """Time the scalar engine loop against the vectorized fast path.

    Runs the dataset-A and dataset-C scenario analogues at ``scale`` on
    both loops (``scalar=True`` vs the default fast path).  Gates: every
    observer's dataset is byte-identical between the loops, every pool
    compiled onto the fast path, and (only when ``scale >=
    ENGINE_GATE_SCALE``) dataset C clears :data:`ENGINE_GATE_SPEEDUP` on
    production time.
    """
    repeats = 2
    factories = {
        "dataset-A": lambda: dataset_a_scenario(scale=scale),
        "dataset-C": lambda: dataset_c_scenario(scale=scale),
    }
    cells: dict[str, dict] = {}
    for name, factory in factories.items():
        cell, counters = _scalar_vs_fast(factory, repeats)
        scalar_seconds = cell["scalar_production_seconds"]
        fast_seconds = cell["fast_production_seconds"]
        blocks = int(counters.get("engine.blocks.committed", 0))
        cells[name] = {
            **cell,
            "speedup": _ratio(scalar_seconds, fast_seconds),
            "blocks_committed": blocks,
            "fast_blocks_per_second": _ratio(blocks, fast_seconds),
            "scalar_blocks_per_second": _ratio(blocks, scalar_seconds),
            "fast_path_engaged": (
                counters.get("engine.fast.pools_compiled", 0) > 0
                and counters.get("engine.fast.pools_fallback", 0) == 0
            ),
        }
    gate_applies = scale >= ENGINE_GATE_SCALE
    return _document(
        scale,
        1,
        {
            "all_identical": all(c["identical"] for c in cells.values()),
            "all_fast_path_engaged": all(
                c["fast_path_engaged"] for c in cells.values()
            ),
            "speedup_ok": (
                not gate_applies
                or cells[ENGINE_GATE_DATASET]["speedup"] >= ENGINE_GATE_SPEEDUP
            ),
        },
        repeats=repeats,
        cells=cells,
        gate={
            "dataset": ENGINE_GATE_DATASET,
            "min_speedup": ENGINE_GATE_SPEEDUP,
            "applies": gate_applies,
        },
    )


def bench_adversaries(ids: Sequence[str], scale: float, jobs: int) -> dict:
    """Time adversary-zoo lineups on both engine loops and the sweep.

    * **cells** — each of :data:`ADVERSARY_KINDS` on the scalar vs fast
      loop with the byte-identity gate; zoo *template* policies are
      unknown to the fast path's policy compiler, so these cells also
      record whether the compiled-policy-program fallback engaged (the
      selfish lineup keeps honest templates and must *not* fall back);
    * **sweep** — cold vs cache-warm wall time of a one-seed detection
      matrix over the same kinds plus the honest row, with the
      honest-row false-positive bound as a gate.
    """
    repeats = 1
    cells: dict[str, dict] = {}
    for kind in ADVERSARY_KINDS:
        cell, counters = _scalar_vs_fast(
            lambda: adversary_scenario(kind, scale=scale), repeats
        )
        cells[kind] = {
            **cell,
            "fallback_pools": int(counters.get("engine.fast.pools_fallback", 0)),
            "compiled_pools": int(counters.get("engine.fast.pools_compiled", 0)),
        }

    sweep_kinds = ("honest",) + ADVERSARY_KINDS
    sweep_seconds: dict[str, float] = {}
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
    return _document(
        scale,
        1,
        {
            "all_identical": all(c["identical"] for c in cells.values()),
            "fallback_exercised": all(
                cells[kind]["fallback_pools"] > 0
                for kind in ADVERSARY_KINDS
                if kind != "selfish"
            ),
            "honest_fpr_ok": all(
                rate <= matrix.alpha for rate in honest_fpr.values()
            ),
        },
        repeats=repeats,
        cells=cells,
        sweep={
            "kinds": list(sweep_kinds),
            "cold_seconds": sweep_seconds["cold"],
            "warm_seconds": sweep_seconds["warm"],
            "honest_fpr": honest_fpr,
            "alpha": matrix.alpha,
        },
    )


# ----------------------------------------------------------------------
# datasets: cold sharded builds / warm mmap loads
# ----------------------------------------------------------------------
def _build_dataset_shard(cell) -> dict:
    """Pool worker: build one of the A/B/C analogues through the cache."""
    name, scale, cache_dir = cell
    start = time.perf_counter()
    dataset = build_dataset(
        _SCENARIOS[name](scale=scale), cache=DatasetCache(cache_dir)
    )
    seconds = time.perf_counter() - start
    return {
        "dataset": name,
        "build_seconds": round(seconds, 3),
        "blocks": dataset.block_count,
        "records": dataset.tx_count,
        "snapshots": len(dataset.snapshots),
        "columnar_attached": dataset.columnar is not None,
    }


def bench_datasets(ids: Sequence[str], scale: float, jobs: int) -> dict:
    """Benchmark the columnar dataset pipeline end to end.

    Four sections over one fresh cache directory:

    * **cold** — the A/B/C analogues built once each, sharded across
      ``jobs`` pool workers, every entry persisted in both formats with
      the on-disk sizes recorded;
    * **warm** — the same datasets re-loaded from the populated cache
      (in-process memos cleared first), which must come back through
      the memory-mapped sidecar;
    * **chain_arrays / table2_warm** — packing cost via mmap vs the
      object-graph walk on dataset C, then a warm Table 2 sweep with
      the ``vectorized.chain_arrays.*`` counters;
    * **battery** — the ``ids`` battery at ``scale`` on ``jobs`` workers
      against the warm cache (scenario-only datasets still build cold
      inside it).

    Gates: interchange **byte identity** for every dataset loaded back
    from the columnar store, the mmap path engaging with **zero**
    fallbacks on the warm sweep, and the battery raising nothing.
    """
    scenarios = {name: make(scale=scale) for name, make in _SCENARIOS.items()}
    cache_root = tempfile.mkdtemp(prefix="repro-bench-datasets-")
    try:
        with obs.tracing():
            # -- cold: shard the three builds across the pool ----------
            _reset_process_caches()
            cells = [(name, scale, cache_root) for name in _SCENARIOS]
            started = time.perf_counter()
            outcomes = runner.run_sharded(cells, _build_dataset_shard, jobs=jobs)
            cold_wall = time.perf_counter() - started
            cache = DatasetCache(cache_root)
            paths = {
                name: cache.path_for(disk_cache_key(scenario))
                for name, scenario in scenarios.items()
            }
            cold: dict[str, dict] = {}
            for (name, _, _), outcome in zip(cells, outcomes):
                entry = (
                    dict(outcome.value)
                    if outcome.ok
                    else {"dataset": name, "error": outcome.error}
                )
                sidecar = columnar_sidecar(paths[name])
                if paths[name].exists():
                    entry["gzip_bytes"] = paths[name].stat().st_size
                if sidecar.exists():
                    entry["columnar_bytes"] = sidecar.stat().st_size
                cold[name] = entry

            # -- warm: loads must come back memory-mapped, and their
            # -- columnar round trip must equal the gzip interchange
            _reset_process_caches()
            warm: dict[str, dict] = {}
            byte_identity: dict[str, bool] = {}
            loaded: dict[str, object] = {}
            for name, scenario in scenarios.items():
                started = time.perf_counter()
                dataset = loaded[name] = build_dataset(scenario, cache=cache)
                seconds = time.perf_counter() - started
                warm[name] = {
                    "load_seconds": round(seconds, 3),
                    "mmap_attached": dataset.columnar is not None,
                }
                with gzip.open(paths[name], "rb") as handle:
                    interchange = handle.read()
                serialized = json.dumps(
                    dataset_to_dict(dataset), separators=(",", ":")
                ).encode("utf-8")
                byte_identity[name] = serialized == interchange

            # -- packing: mmap vs object graph on dataset C ------------
            dataset_c = loaded["C"]
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
            packs = obs.delta(obs_before, obs.snapshot()).get("counters", {})
            mmap_packs = int(packs.get("vectorized.chain_arrays.mmap", 0))
            fallback_packs = int(packs.get("vectorized.chain_arrays.fallback", 0))

            # -- the battery against the warm cache --------------------
            battery_cell, _ = _battery_cell(ids, scale, jobs, cache_root)
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
    _reset_process_caches()

    return _document(
        scale,
        jobs,
        {
            "byte_identical": all(byte_identity.values()),
            "mmap_engaged": mmap_packs > 0 and fallback_packs == 0,
            "battery_ok": not battery_cell["raised"],
        },
        experiments=list(ids),
        cold={
            "wall_seconds": round(cold_wall, 3),
            "sharded": jobs > 1 and len(cells) > 1,
            "datasets": cold,
        },
        warm=warm,
        byte_identity=byte_identity,
        chain_arrays={
            "mmap_pack_seconds": round(mmap_seconds, 4),
            "object_pack_seconds": round(object_seconds, 4),
            "speedup": _ratio(object_seconds, mmap_seconds),
            "identical": bool(packs_identical),
        },
        table2_warm={
            "seconds": round(table2_seconds, 4),
            "mmap_packs": mmap_packs,
            "fallback_packs": fallback_packs,
        },
        battery=battery_cell,
    )


# ----------------------------------------------------------------------
# service: ingest + query storm over real HTTP
# ----------------------------------------------------------------------
def bench_service(ids: Sequence[str], scale: float, jobs: int) -> dict:
    """Ingest and query-storm throughput of one in-process service.

    Brings up the service on an ephemeral port (real HTTP transport,
    fsynced journal), replays dataset A through ingest, then sends 300
    queries cycling tx / pool / status.  No gates: the cell records
    throughput so regressions show in the same artefact.
    """
    # Imported here: the CLI imports this module for every command, and
    # nothing else it runs loads the service package.
    from .service.client import AuditClient
    from .service.server import AuditService, make_http_server

    queries = 300
    dataset = build_dataset_a(scale=scale)
    with tempfile.TemporaryDirectory() as tmp:
        service = AuditService(dataset, wal_dir=tmp, queue_size=64, fsync=True)
        service.recover()
        server = make_http_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        client = AuditClient(host, port)
        try:
            client.wait_ready()
            feed = list(stream_blocks(dataset))
            ingest_start = time.perf_counter()
            client.stream(feed)
            client.wait_applied(feed[-1][0])
            ingest_seconds = time.perf_counter() - ingest_start

            committed = [
                txid
                for txid, record in dataset.tx_records.items()
                if record.commit_height is not None
            ]
            pools = [est.pool for est in dataset.hash_rates()[:4]]
            storm_start = time.perf_counter()
            for index in range(queries):
                kind = index % 3
                if kind == 0 and committed:
                    client.query_tx(committed[index % len(committed)])
                elif kind == 1 and pools:
                    client.query_pool(pools[index % len(pools)])
                else:
                    client.status()
            storm_seconds = time.perf_counter() - storm_start
        finally:
            server.shutdown()
            server.server_close()
            service.stop()
    return _document(
        scale,
        1,
        {},
        blocks=len(feed),
        ingest_seconds=round(ingest_seconds, 4),
        ingest_blocks_per_second=round(len(feed) / ingest_seconds, 2),
        queries=queries,
        storm_seconds=round(storm_seconds, 4),
        queries_per_second=round(queries / storm_seconds, 2),
    )


#: Suite name -> (``run(ids, scale, jobs) -> document``, default scale).
SUITES: dict[str, tuple[Callable[[Sequence[str], float, int], dict], float]] = {
    "runner": (bench_runner, 0.2),
    "metrics": (bench_metrics, 0.3),
    "engine": (bench_engine, ENGINE_GATE_SCALE),
    "adversaries": (bench_adversaries, 0.08),
    "datasets": (bench_datasets, 1.0),
    "service": (bench_service, 0.2),
}
