"""Command-line interface: regenerate the paper's experiments.

Usage::

    repro-audit list
    repro-audit run fig7 table2 --scale 0.1
    repro-audit run everything --scale 0.25 --jobs 4 --out experiments.txt
    repro-audit run fig7 --scale 0.1 --trace --trace-out obs_metrics.json
    repro-audit obs obs_metrics.json
    repro-audit bench --jobs 4 --out BENCH_runner.json
    repro-audit bench --suite engine,metrics --scale 0.1
    repro-audit dataset C --scale 0.1 --out dataset_c.json.gz --columnar dataset_c.npz
    repro-audit faults --scale 0.05 --loss 0 0.05 0.5 --downtime 0 0.25
    repro-audit adversaries --scale 0.08 --csv detection_matrix.csv
    repro-audit serve --dataset dataset_c.json.gz --wal-dir ./wal --port 8730

Datasets are simulated once and cached under ``--cache-dir`` (default
``~/.cache/repro-audit``); warm runs load them from disk instead of
re-simulating.  ``--no-cache`` opts out.

``bench`` runs the suites of :mod:`repro.bench` and merges their
documents into ``--out`` as ``{suite: document}``; it exits 1 and prints
``FAIL: <suite>.<gate>`` for every false entry of a document's ``gates``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .analysis.base import DEFAULT_SCALE
from .analysis.experiments import ALL_RUNNERS, EXPERIMENTS, EXTENSIONS
from .bench import SUITES
from .datasets.builder import build_dataset_a, build_dataset_b, build_dataset_c
from .datasets.cache import DEFAULT_CACHE_DIR
from .datasets.columnar import columnar_sidecar
from .datasets.io import atomic_write_text, save_dataset


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-audit",
        description=(
            "Reproduce the tables and figures of 'Selfish & Opaque "
            "Transaction Ordering in the Bitcoin Blockchain' (IMC 2021)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiment ids")

    run_parser = sub.add_parser("run", help="run one or more experiments")
    run_parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids, 'all' (paper artefacts) or "
        "'everything' (artefacts + extensions/ablations)",
    )
    run_parser.add_argument(
        "--scale",
        type=float,
        default=DEFAULT_SCALE,
        help=f"simulation scale (default {DEFAULT_SCALE})",
    )
    run_parser.add_argument(
        "--out", type=str, default=None, help="also write the report to a file"
    )
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; experiments fan out over a pool when >1 "
        "(the report stays byte-identical to a sequential run)",
    )
    run_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-experiment wall-clock limit in seconds; an experiment "
        "exceeding it is killed and its cell marked failed (the rest of "
        "the battery continues, per the failure-isolation contract)",
    )
    run_parser.add_argument(
        "--trace",
        action="store_true",
        help="enable repro.obs tracing: record substrate metrics/spans "
        "(mempool, engine, GBT, runner, cache) and export them as JSON; "
        "the experiment report itself is byte-identical to an untraced run",
    )
    run_parser.add_argument(
        "--trace-out",
        type=str,
        default="obs_metrics.json",
        help="where --trace writes the metrics snapshot "
        "(default obs_metrics.json; render it with 'repro-audit obs')",
    )
    _add_cache_arguments(run_parser)

    obs_parser = sub.add_parser(
        "obs",
        help="render a metrics/span report from a --trace export",
        description=(
            "Render the counters, gauges, and span timings recorded by "
            "'repro-audit run --trace' (an obs_metrics.json file) as a "
            "readable report."
        ),
    )
    obs_parser.add_argument("path", help="metrics JSON written by run --trace")

    bench_parser = sub.add_parser(
        "bench",
        help="run the benchmark suites and check their gates",
        description=(
            "Run the selected benchmark suites, merge each suite's "
            "document into the --out JSON file ({suite: document}; suites "
            "that did not run keep their entries) and exit 1 if any gate "
            "is false."
        ),
    )
    bench_parser.add_argument(
        "experiments",
        nargs="*",
        default=["all"],
        help="experiment ids for the runner and datasets batteries, 'all' "
        "(paper artefacts, the default) or 'everything'",
    )
    bench_parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="simulation scale for every selected suite (default: each "
        "suite's own: "
        + ", ".join(f"{name} {scale:g}" for name, (_, scale) in SUITES.items())
        + ")",
    )
    bench_parser.add_argument(
        "--jobs",
        type=int,
        default=4,
        help="workers for the runner grid's parallel cells and the datasets "
        "suite's sharded builds and battery (default 4)",
    )
    bench_parser.add_argument(
        "--suite",
        default="runner",
        help=f"comma-separated subset of {{{', '.join(SUITES)}}}, or 'full' "
        "for all of them (default runner); see repro.bench",
    )
    bench_parser.add_argument(
        "--out",
        type=str,
        default="BENCH_runner.json",
        help="JSON file to merge the suite documents into",
    )

    dataset_parser = sub.add_parser(
        "dataset", help="build a dataset analogue and save it to disk"
    )
    dataset_parser.add_argument("which", choices=["A", "B", "C"])
    dataset_parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    dataset_parser.add_argument("--out", type=str, required=True)
    dataset_parser.add_argument(
        "--csv",
        type=str,
        default=None,
        help="also export flat CSV tables into this directory",
    )
    dataset_parser.add_argument(
        "--columnar",
        type=str,
        default=None,
        help="also export the columnar npz (memory-mappable; loads "
        "zero-copy into the vectorized audit kernels) to this path",
    )

    faults_parser = sub.add_parser(
        "faults",
        help="sweep audit detection power under measurement faults",
        description=(
            "Sweep the prioritization test's detection power over a "
            "transaction-loss x observer-downtime grid and report the "
            "power cliff (power-under-faults experiment)."
        ),
    )
    faults_parser.add_argument(
        "--scale", type=float, default=None, help="simulation scale"
    )
    faults_parser.add_argument(
        "--loss",
        type=float,
        nargs="+",
        default=None,
        help="transaction loss rates to probe (default: built-in grid)",
    )
    faults_parser.add_argument(
        "--downtime",
        type=float,
        nargs="+",
        default=None,
        help="observer downtime fractions to probe",
    )
    faults_parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=None,
        help="simulation seeds (one clean run each)",
    )
    faults_parser.add_argument(
        "--reps",
        type=int,
        default=None,
        help="independent fault seeds per grid cell",
    )
    faults_parser.add_argument(
        "--alpha", type=float, default=None, help="test size (default 0.01)"
    )
    faults_parser.add_argument(
        "--out", type=str, default=None, help="also write the report to a file"
    )

    adversaries_parser = sub.add_parser(
        "adversaries",
        help="score the audit toolbox against the ordering-attack zoo",
        description=(
            "Run every adversary-zoo lineup (FIFO/bucketed builders, "
            "call auction, MEV sandwich, censorship-for-rent, selfish "
            "mining, maximal self-interest) across seeds x intensities "
            "and print the adversary x test detection matrix: power per "
            "adversarial cell, false-positive rate on the honest row, "
            "at a fixed alpha.  Exits non-zero if the honest row's "
            "false-positive rate exceeds alpha anywhere."
        ),
    )
    adversaries_parser.add_argument(
        "--scale", type=float, default=None, help="simulation scale"
    )
    adversaries_parser.add_argument(
        "--kinds",
        type=str,
        nargs="+",
        default=None,
        help="adversary kinds to score (default: the whole zoo)",
    )
    adversaries_parser.add_argument(
        "--seeds", type=int, nargs="+", default=None, help="simulation seeds"
    )
    adversaries_parser.add_argument(
        "--intensities",
        type=float,
        nargs="+",
        default=None,
        help="intensity knob settings for kinds that expose one",
    )
    adversaries_parser.add_argument(
        "--alpha", type=float, default=None, help="test size (default 0.01)"
    )
    adversaries_parser.add_argument(
        "--pool", type=str, default=None, help="the pool playing the adversary"
    )
    adversaries_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; sweep cells shard over a pool when >1 "
        "(the matrix stays identical to a sequential sweep)",
    )
    adversaries_parser.add_argument(
        "--csv",
        type=str,
        default=None,
        help="also export the detection matrix as CSV to this path",
    )
    adversaries_parser.add_argument(
        "--out", type=str, default=None, help="also write the report to a file"
    )
    _add_cache_arguments(adversaries_parser)

    serve_parser = sub.add_parser(
        "serve",
        help="run the crash-safe streaming audit service over HTTP",
        description=(
            "Serve the streaming auditor: blocks arrive one at a time via "
            "POST /ingest (write-ahead journalled, so kill -9 resumes to "
            "identical state); answers from /query/tx, /query/pool and "
            "/audit always carry a data-quality annotation."
        ),
    )
    serve_parser.add_argument(
        "--dataset",
        type=str,
        required=True,
        help="saved dataset file (repro-audit dataset …) supplying the "
        "observer context: a .json.gz, read through its columnar twin "
        "(same name, .npz) when that is present and intact, or the .npz "
        "itself; its chain is ignored — blocks must be ingested",
    )
    serve_parser.add_argument(
        "--wal-dir",
        type=str,
        required=True,
        help="directory for the write-ahead journal and its checkpoints",
    )
    serve_parser.add_argument("--host", type=str, default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=0, help="0 binds an ephemeral port"
    )
    serve_parser.add_argument(
        "--port-file",
        type=str,
        default=None,
        help="atomically write the bound port here (supervisors poll it)",
    )
    serve_parser.add_argument(
        "--queue-size",
        type=int,
        default=64,
        help="bounded ingest queue depth; a full queue answers 503 with "
        "retry_after instead of dropping blocks (default 64)",
    )
    serve_parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=64,
        help="compact the journal into a checkpoint every N applied "
        "blocks (default 64)",
    )
    serve_parser.add_argument(
        "--no-fsync",
        action="store_true",
        help="skip per-append fsync (testing only: trades the machine-"
        "crash guarantee for speed)",
    )
    return parser


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        type=str,
        default=str(DEFAULT_CACHE_DIR),
        help=f"persistent dataset cache directory (default {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="always re-simulate datasets; never touch the disk cache",
    )


def _resolve_ids(requested: Sequence[str]) -> Optional[list[str]]:
    ids = list(requested)
    if ids == ["all"]:
        return list(EXPERIMENTS)
    if ids == ["everything"]:
        return list(ALL_RUNNERS)
    unknown = [eid for eid in ids if eid not in ALL_RUNNERS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(ALL_RUNNERS)}", file=sys.stderr)
        return None
    return ids


def _run_command(args: argparse.Namespace) -> int:
    from .analysis.runner import run_battery

    ids = _resolve_ids(args.experiments)
    if ids is None:
        return 2
    cache_dir = None if args.no_cache else args.cache_dir
    if args.trace:
        from . import obs

        with obs.tracing(reset=True):
            battery = run_battery(
                ids,
                scale=args.scale,
                jobs=args.jobs,
                cache_dir=cache_dir,
                timeout=args.timeout,
            )
            trace_snapshot = obs.snapshot()
    else:
        battery = run_battery(
            ids,
            scale=args.scale,
            jobs=args.jobs,
            cache_dir=cache_dir,
            timeout=args.timeout,
        )
        trace_snapshot = None
    report = battery.report()
    print(report)
    if args.out:
        atomic_write_text(args.out, report + "\n")
        print(f"\nreport written to {args.out}")
    print("\n" + battery.timing_table())
    if cache_dir is not None:
        print(f"dataset cache [{cache_dir}]: {battery.cache_stats().summary()}")
    if trace_snapshot is not None:
        # Atomic like the dataset writers: a crash mid-export must not
        # leave a truncated snapshot behind for 'repro-audit obs'.
        atomic_write_text(
            args.trace_out,
            json.dumps(trace_snapshot, indent=2, sort_keys=True) + "\n",
        )
        print(
            f"trace metrics written to {args.trace_out} "
            f"({len(trace_snapshot['counters'])} counters, "
            f"{len(trace_snapshot['spans'])} spans); "
            f"render with: repro-audit obs {args.trace_out}"
        )
    raised = battery.failed()
    if raised:
        print(
            f"\n{len(raised)} experiment(s) raised: "
            + ", ".join(o.experiment_id for o in raised),
            file=sys.stderr,
        )
    failing = battery.failing_checks()
    if failing:
        print(
            f"\n{len(failing)} experiment(s) had failing shape checks: "
            + ", ".join(o.experiment_id for o in failing),
            file=sys.stderr,
        )
    return 1 if (raised or failing) else 0


def _bench_command(args: argparse.Namespace) -> int:
    requested = (
        set(SUITES)
        if args.suite == "full"
        else {part.strip() for part in args.suite.split(",") if part.strip()}
    )
    unknown = requested - set(SUITES)
    if unknown or not requested:
        print(
            f"error: unknown bench suite(s) {sorted(unknown)}; "
            f"pick from {list(SUITES)} or 'full'",
            file=sys.stderr,
        )
        return 2
    ids = _resolve_ids(args.experiments)
    if ids is None:
        return 2
    try:
        with open(args.out, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        document = {}
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {args.out}: {exc}", file=sys.stderr)
        return 2
    if not isinstance(document, dict) or not set(document) <= set(SUITES):
        print(
            f"error: {args.out} is not a {{suite: document}} bench file",
            file=sys.stderr,
        )
        return 2

    exit_code = 0
    ran = [name for name in SUITES if name in requested]
    for name in ran:
        run, default_scale = SUITES[name]
        scale = default_scale if args.scale is None else args.scale
        document[name] = run(ids, scale, args.jobs)
        for gate, passed in document[name]["gates"].items():
            if not passed:
                print(f"FAIL: {name}.{gate}", file=sys.stderr)
                exit_code = 1
    atomic_write_text(
        args.out, json.dumps(document, indent=2, sort_keys=True) + "\n"
    )
    ran_documents = {name: document[name] for name in ran}
    print(json.dumps(ran_documents, indent=2, sort_keys=True))
    print(f"\nbenchmark written to {args.out}")
    return exit_code


def _obs_command(args: argparse.Namespace) -> int:
    from .obs import render_report

    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            snap = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read metrics from {args.path}: {exc}", file=sys.stderr)
        return 2
    if not isinstance(snap, dict) or "counters" not in snap:
        print(
            f"error: {args.path} is not a repro.obs metrics snapshot",
            file=sys.stderr,
        )
        return 2
    print(render_report(snap))
    return 0


def _dataset_command(args: argparse.Namespace) -> int:
    builders = {
        "A": build_dataset_a,
        "B": build_dataset_b,
        "C": build_dataset_c,
    }
    dataset = builders[args.which](scale=args.scale)
    # A columnar twin left by an older export would be loaded in place
    # of the new gzip (`load_dataset_file`), so it goes before the gzip
    # is replaced.
    columnar_sidecar(args.out).unlink(missing_ok=True)
    path = save_dataset(dataset, args.out)
    summary = dataset.summary()
    print(f"dataset {args.which} written to {path}")
    print(f"blocks={summary['blocks']} txs={summary['transactions_issued']}")
    if args.csv:
        from .datasets.export import export_csv

        counts = export_csv(dataset, args.csv)
        for name, count in counts.items():
            print(f"  {args.csv}/{name}: {count} rows")
    if args.columnar:
        from .datasets.export import export_columnar

        columnar_path = export_columnar(dataset, args.columnar)
        print(
            f"columnar store written to {columnar_path} "
            f"({columnar_path.stat().st_size} bytes)"
        )
    return 0


def _faults_command(args: argparse.Namespace) -> int:
    from .analysis import ext_faults

    kwargs: dict = {}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if args.loss is not None:
        kwargs["loss_grid"] = tuple(args.loss)
    if args.downtime is not None:
        kwargs["downtime_grid"] = tuple(args.downtime)
    if args.seeds is not None:
        kwargs["seeds"] = tuple(args.seeds)
    if args.reps is not None:
        kwargs["reps"] = args.reps
    if args.alpha is not None:
        kwargs["alpha"] = args.alpha
    try:
        sweep = ext_faults.sweep_power_under_faults(**kwargs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = ext_faults.render_sweep(sweep)
    print(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        print(f"\nreport written to {args.out}")
    return 0


def _adversaries_command(args: argparse.Namespace) -> int:
    from .analysis import ext_adversaries
    from .datasets.cache import DatasetCache

    kwargs: dict = {}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if args.kinds is not None:
        kwargs["kinds"] = tuple(args.kinds)
    if args.seeds is not None:
        kwargs["seeds"] = tuple(args.seeds)
    if args.intensities is not None:
        kwargs["intensities"] = tuple(args.intensities)
    if args.alpha is not None:
        kwargs["alpha"] = args.alpha
    if args.pool is not None:
        kwargs["target_pool"] = args.pool
    if args.jobs is not None and args.jobs > 1:
        kwargs["jobs"] = args.jobs
    if not args.no_cache:
        kwargs["cache"] = DatasetCache(args.cache_dir)
    try:
        matrix = ext_adversaries.sweep_detection_matrix(**kwargs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = ext_adversaries.render_matrix(matrix)
    print(report)
    if args.csv:
        atomic_write_text(args.csv, matrix.to_csv())
        print(f"\ndetection matrix CSV written to {args.csv}")
    if args.out:
        atomic_write_text(args.out, report + "\n")
        print(f"report written to {args.out}")
    loud = [
        cell
        for cell in matrix.row("honest")
        if cell.rate > matrix.alpha
    ]
    if loud:
        print(
            "\nFAIL: honest-lineup false-positive rate exceeds "
            f"alpha={matrix.alpha:g} for: "
            + ", ".join(f"{c.test}={c.rate:.3f}" for c in loud),
            file=sys.stderr,
        )
        return 1
    return 0


def _serve_command(args: argparse.Namespace) -> int:
    from .service.server import AuditService, make_http_server

    try:
        service = AuditService.from_dataset_file(
            args.dataset,
            wal_dir=args.wal_dir,
            queue_size=args.queue_size,
            checkpoint_every=args.checkpoint_every,
            fsync=not args.no_fsync,
        )
    except (OSError, ValueError) as exc:
        print(f"error: cannot load dataset {args.dataset}: {exc}", file=sys.stderr)
        return 2
    server = make_http_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    if args.port_file:
        atomic_write_text(args.port_file, f"{port}\n")
    replayed = service.recover()
    print(
        f"serving audit of {args.dataset} on http://{host}:{port} "
        f"(recovered {replayed} journalled blocks, "
        f"applied height {service.applied_height})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.stop()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        for experiment_id in EXPERIMENTS:
            print(experiment_id)
        for experiment_id in EXTENSIONS:
            print(f"{experiment_id}  (extension)")
        return 0
    if args.command == "run":
        return _run_command(args)
    if args.command == "bench":
        return _bench_command(args)
    if args.command == "obs":
        return _obs_command(args)
    if args.command == "dataset":
        return _dataset_command(args)
    if args.command == "faults":
        return _faults_command(args)
    if args.command == "adversaries":
        return _adversaries_command(args)
    if args.command == "serve":
        return _serve_command(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
