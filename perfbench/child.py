"""Program-side launcher for the repository benchmark.

``run.py`` starts every program process through this file, so the
benchmark can wrap the program's public layer functions in a traced run
without editing the program::

    python perfbench/child.py build --scale 0.1 --seeds A=1,B=2,C=3 --cache-dir D
    python perfbench/child.py cli run all --scale 0.1 --cache-dir D --jobs 1

``build`` builds datasets one after another through ``DatasetCache`` and
prints one JSON line with the build time and per-block txid digests;
``cli`` hands the remaining arguments to ``repro.cli.main``.

With ``REPRO_AUDIT_TRACE=1`` in the environment the launcher first wraps
each layer's public entry points.  Every wrapped call adds its count,
total and self time (total minus the wrapped calls it made) to integer
``bench.<name>.*`` counters in the program's own ``repro.obs`` registry,
so pool workers ship them back with their obs deltas and
``run --trace-out`` / ``GET /obs`` export them beside the program's
spans.  Untraced runs install nothing.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

#: Environment variable carrying the parent's ``time.time()`` at spawn.
SPAWN_ENV = "PERFBENCH_SPAWN_T"
#: Where ``cli`` writes the obs snapshot after the command returns.
OBS_OUT_ENV = "PERFBENCH_OBS_OUT"


def block_txid_digest(dataset) -> str:
    """SHA-256 over every block's height, coinbase and ordered txids.

    The same digest as the golden engine fixture
    (``tests/golden/engine_digests_scale01.json``) pins.
    """
    hasher = hashlib.sha256()
    for block in dataset.chain:
        line = "{}:{}:{}\n".format(
            block.height,
            block.coinbase.txid,
            ",".join(tx.txid for tx in block.transactions),
        )
        hasher.update(line.encode("ascii"))
    return hasher.hexdigest()


class _LayerTimer:
    """Nested per-thread call timer that records into ``repro.obs``."""

    def __init__(self, obs) -> None:
        self._obs = obs
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, size=None):
        """Time ``fn`` as ``name``: a string, or a function of the call's
        arguments evaluated after the call.  ``size(result)`` optionally
        adds to ``bench.<name>.size``."""
        obs = self._obs

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = self._stack()
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                label = name if isinstance(name, str) else name(*args, **kwargs)
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                obs.counter(f"bench.{label}.calls")
                obs.counter(f"bench.{label}.total_ns", int(elapsed * 1e9))
                obs.counter(
                    f"bench.{label}.self_ns", int((elapsed - children[0]) * 1e9)
                )
            if size is not None:
                obs.counter(f"bench.{label}.size", size(result))
            return result

        return timed

    def patch(self, owner, attr, name, size=None):
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, size)))
        else:
            setattr(owner, attr, self.wrap(name, raw, size))


def install_layer_timers() -> None:
    """Wrap each layer's public entry points (traced runs only)."""
    from repro import obs
    from repro.analysis import runner
    from repro.core import audit, vectorized
    from repro.datasets import cache, columnar
    from repro.service import server, wal
    from repro.simulation import engine, workload

    timer = _LayerTimer(obs)
    file_size = lambda path: Path(path).stat().st_size  # noqa: E731
    # simulation + mining/mempool (the engine's own obs spans nest inside)
    timer.patch(
        workload.WorkloadGenerator, "generate", "workload.generate", size=len
    )
    timer.patch(engine.SimulationEngine, "run", "engine.run")
    # datasets: the cache and the two formats it writes and reads
    # A get_or_build that never calls its build function is a load.
    timed_get = timer.wrap(
        lambda self, key, build: ("cache.build." if build.ran else "cache.load.")
        + key.builder.rsplit("-", 1)[-1],
        cache.DatasetCache.get_or_build,
    )

    def get_or_build(self, key, build):
        def tracked():
            tracked.ran = True
            return build()

        tracked.ran = False
        return timed_get(self, key, tracked)

    cache.DatasetCache.get_or_build = get_or_build
    timer.patch(cache.DatasetCache, "store", "cache.store")
    timer.patch(cache, "save_columnar", "columnar.save", size=file_size)
    timer.patch(cache, "save_dataset", "io.save", size=file_size)
    timer.patch(cache, "load_columnar", "columnar.load")
    timer.patch(cache, "load_dataset", "io.load")
    timer.patch(columnar.ColumnStore, "__init__", "columnar.open")
    # core
    timer.patch(vectorized.ChainArrays, "from_dataset", "vectorized.pack")
    timer.patch(vectorized.ChainArrays, "from_columnar", "vectorized.pack_columnar")
    for method in (
        "self_interest_table",
        "ppe_distribution",
        "violation_stats_multi",
        "commit_delays",
        "scam_table",
        "dark_fee_sweep",
    ):
        timer.patch(audit.Auditor, method, "audit." + method)
    # analysis: the battery and each experiment (pool workers fork after
    # this, so they inherit the wrappers)
    timer.patch(runner, "run_battery", "runner.battery")
    timer.patch(
        runner,
        "run_experiment",
        lambda experiment_id, ctx: "experiment." + experiment_id,
    )
    # service: WAL writes and the ingest queue's high-water mark
    timer.patch(wal.BlockJournal, "append", "wal.append")
    timer.patch(wal.BlockJournal, "compact", "wal.compact")
    submit = server.AuditService.submit

    @functools.wraps(submit)
    def submit_tracking_depth(self, entry):
        answer = submit(self, entry)
        obs.gauge_max("bench.service.queue_depth.max", self.queue.qsize())
        return answer

    server.AuditService.submit = submit_tracking_depth


def _parse_seeds(text: str) -> dict:
    seeds = {}
    for part in text.split(","):
        name, _, value = part.partition("=")
        seeds[name] = int(value)
    return seeds


def _build_command(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.datasets import builder
    from repro.datasets.cache import DatasetCache

    builders = {
        "A": builder.build_dataset_a,
        "B": builder.build_dataset_b,
        "C": builder.build_dataset_c,
    }
    cache = DatasetCache(args.cache_dir)
    seconds = {}
    digests = {}
    for name, seed in _parse_seeds(args.seeds).items():
        began = time.perf_counter()
        dataset = builders[name](scale=args.scale, seed=seed, cache=cache)
        seconds[name] = time.perf_counter() - began
        digests[name] = block_txid_digest(dataset)
    payload = {
        "seconds": seconds,
        "total_s": sum(seconds.values()),
        "digests": digests,
        "builds": cache.stats.builds,
    }
    if obs.is_enabled():
        payload["obs"] = obs.snapshot()
    print(json.dumps(payload))
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if os.environ.get("REPRO_AUDIT_TRACE", "") not in ("", "0"):
        install_layer_timers()
        from repro import obs

        spawned = os.environ.get(SPAWN_ENV)
        if spawned:
            # Interpreter start + program import, as seen from the parent.
            obs.counter(
                "bench.process.startup_ns",
                int((time.time() - float(spawned)) * 1e9),
            )
    if argv[:1] == ["cli"]:
        from repro import obs
        from repro.cli import main as cli_main

        code = cli_main(argv[1:])
        obs_out = os.environ.get(OBS_OUT_ENV)
        if obs_out:
            Path(obs_out).write_text(json.dumps(obs.snapshot()), encoding="utf-8")
        return code
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="command", required=True)
    build = sub.add_parser("build", help="build datasets through DatasetCache")
    build.add_argument("--scale", type=float, required=True)
    build.add_argument("--seeds", required=True, help="e.g. A=1,B=2,C=3")
    build.add_argument("--cache-dir", required=True)
    args = parser.parse_args(argv)
    return _build_command(args)


if __name__ == "__main__":
    sys.exit(main())
