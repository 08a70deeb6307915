"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.datasets.io import load_dataset


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        ids = [line.split()[0] for line in out.strip().splitlines()]
        assert "fig1" in ids and "table5" in ids and "fig14" in ids
        assert "ext_norms" in ids and "abl_epsilon" in ids
        assert "ext_faults" in ids
        assert "ext_adversaries" in ids
        # 16 paper artefacts + 10 extensions/ablations.
        assert len(ids) == 26


class TestRun:
    def test_cheap_experiment_runs(self, capsys):
        code = main(["run", "table5", "--scale", "0.05", "--no-cache"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Table 5" in out
        assert "[PASS]" in out

    def test_unknown_experiment_rejected(self, capsys):
        code = main(["run", "fig99"])
        assert code == 2
        assert "unknown" in capsys.readouterr().err

    def test_report_written_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.txt"
        code = main(
            ["run", "fig1", "--scale", "0.05", "--no-cache", "--out", str(out_file)]
        )
        assert code == 0
        assert "Fig 1" in out_file.read_text()

    def test_parallel_report_file_matches_sequential(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        seq_file = tmp_path / "seq.txt"
        par_file = tmp_path / "par.txt"
        common = ["fig1", "table5", "--scale", "0.04", "--cache-dir", str(cache)]
        assert main(["run", *common, "--out", str(seq_file)]) == 0
        assert (
            main(["run", *common, "--jobs", "2", "--out", str(par_file)]) == 0
        )
        capsys.readouterr()
        assert par_file.read_bytes() == seq_file.read_bytes()

    def test_cache_stats_reported(self, tmp_path, capsys):
        from repro.bench import _reset_process_caches

        cache = tmp_path / "cache"
        args = ["run", "fig5", "--scale", "0.04", "--cache-dir", str(cache)]
        _reset_process_caches()
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "dataset cache" in cold and "1 build(s)" in cold
        # A fresh process (simulated by dropping in-memory memos) loads
        # the dataset from disk instead of re-simulating.
        _reset_process_caches()
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "1 hit(s)" in warm and "0 build(s)" in warm
        _reset_process_caches()


class TestStartup:
    def test_import_loads_no_scipy(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        probe = (
            "import sys, repro.cli; print(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out.strip() == "[]"


class TestTrace:
    def test_warm_load_is_charged_to_cache_load(self, tmp_path, capsys):
        from repro.bench import _reset_process_caches

        trace_file = tmp_path / "obs.json"
        args = ["run", "table1", "--scale", "0.04", "--cache-dir", str(tmp_path)]
        _reset_process_caches()
        main(args)
        _reset_process_caches()
        main([*args, "--trace", "--trace-out", str(trace_file)])
        _reset_process_caches()
        capsys.readouterr()
        spans = json.loads(trace_file.read_text())["spans"]
        # One load each for A, B and C, none of them a build.
        assert spans["cache.load"]["count"] == 3
        assert spans["cache.load"]["total_seconds"] > 0
        assert "cache.build" not in spans

    def test_trace_writes_wellformed_metrics_json(self, tmp_path, capsys):
        from repro.bench import _reset_process_caches

        trace_file = tmp_path / "obs.json"
        _reset_process_caches()
        code = main(
            [
                "run", "fig5",
                "--scale", "0.04",
                "--cache-dir", str(tmp_path / "cache"),
                "--trace",
                "--trace-out", str(trace_file),
            ]
        )
        _reset_process_caches()
        out = capsys.readouterr().out
        assert code == 0
        assert "trace metrics written to" in out
        snap = json.loads(trace_file.read_text())
        assert snap["version"] == 1
        counters = snap["counters"]
        # The traced battery must cover every instrumented layer: the
        # mempool state machine, the engine, GBT, the runner, and the
        # dataset cache (cold build on a fresh --cache-dir).
        for prefix in ("mempool.", "engine.", "gbt.", "runner.", "cache."):
            assert any(name.startswith(prefix) for name in counters), prefix
        assert counters["runner.experiments.ok"] == 1
        assert counters["cache.builds"] == 1
        assert snap["spans"]["engine.run"]["count"] >= 1
        assert snap["spans"]["runner.experiment"]["total_seconds"] > 0

    def test_traced_report_byte_identical_to_untraced(self, tmp_path, capsys):
        from repro.bench import _reset_process_caches

        cache = tmp_path / "cache"
        plain_file = tmp_path / "plain.txt"
        traced_file = tmp_path / "traced.txt"
        common = ["fig1", "--scale", "0.04", "--cache-dir", str(cache)]
        _reset_process_caches()
        assert main(["run", *common, "--out", str(plain_file)]) == 0
        _reset_process_caches()
        assert (
            main(
                [
                    "run", *common,
                    "--out", str(traced_file),
                    "--trace",
                    "--trace-out", str(tmp_path / "obs.json"),
                ]
            )
            == 0
        )
        _reset_process_caches()
        capsys.readouterr()
        assert traced_file.read_bytes() == plain_file.read_bytes()

    def test_obs_renders_trace_file(self, tmp_path, capsys):
        trace_file = tmp_path / "obs.json"
        assert (
            main(
                [
                    "run", "table5",
                    "--scale", "0.04",
                    "--no-cache",
                    "--trace",
                    "--trace-out", str(trace_file),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["obs", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "repro.obs report" in out
        assert "runner.experiments.ok" in out

    def test_obs_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["obs", str(tmp_path / "nope.json")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_obs_rejects_non_snapshot_json(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('["not", "a", "snapshot"]')
        code = main(["obs", str(bogus)])
        assert code == 2
        assert "not a repro.obs metrics snapshot" in capsys.readouterr().err


class TestBench:
    def test_bench_writes_json_document(self, tmp_path, capsys):
        out_file = tmp_path / "bench.json"
        code = main(
            [
                "bench",
                "fig5",
                "--scale", "0.04",
                "--jobs", "2",
                "--out", str(out_file),
            ]
        )
        assert code == 0
        document = json.loads(out_file.read_text())["runner"]
        cells = document["measurements"]
        for cell in (
            "cold_sequential",
            "warm_sequential",
            "cold_parallel",
            "warm_parallel",
        ):
            assert cells[cell]["wall_seconds"] > 0
        assert cells["cold_sequential"]["cache"]["builds"] >= 1
        assert cells["warm_sequential"]["cache"]["builds"] == 0
        # Bench always traces: every cell carries its obs metrics delta.
        for cell in cells.values():
            assert cell["obs"]["counters"]["runner.experiments.ok"] == 1
        assert cells["cold_sequential"]["obs"]["counters"]["cache.builds"] == 1
        assert document["speedups"]["warm_over_cold_sequential"] > 0
        identical = document["gates"]
        assert identical["parallel_vs_sequential_warm"]
        assert identical["warm_vs_cold_sequential"]

    def test_differing_parallel_report_fails_the_gate(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.analysis.runner import BatteryResult

        report = BatteryResult.report

        def report_naming_jobs(self):
            return report(self) + f"\njobs={self.jobs}"

        # The parallel battery now assembles a different report than the
        # sequential one; the runner suite must fail on that gate alone.
        monkeypatch.setattr(BatteryResult, "report", report_naming_jobs)
        out_file = tmp_path / "bench.json"
        code = main(
            [
                "bench", "table5",
                "--scale", "0.04",
                "--jobs", "2",
                "--out", str(out_file),
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "FAIL: runner.parallel_vs_sequential_warm" in err
        assert "warm_vs_cold_sequential" not in err
        gates = json.loads(out_file.read_text())["runner"]["gates"]
        assert gates == {
            "parallel_vs_sequential_warm": False,
            "warm_vs_cold_sequential": True,
        }

    def test_false_gate_exits_1_and_names_it(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.bench import SUITES

        def failing_suite(ids, scale, jobs):
            return {"scale": scale, "gates": {"holds": True, "broken": False}}

        monkeypatch.setitem(SUITES, "service", (failing_suite, 0.5))
        out_file = tmp_path / "bench.json"
        code = main(["bench", "--suite", "service", "--out", str(out_file)])
        err = capsys.readouterr().err
        assert code == 1
        assert "FAIL: service.broken" in err
        assert "service.holds" not in err
        # The default scale comes from the registry entry.
        assert json.loads(out_file.read_text())["service"]["scale"] == 0.5

    def test_unknown_suite_exits_2(self, tmp_path, capsys):
        code = main(
            ["bench", "--suite", "nope", "--out", str(tmp_path / "b.json")]
        )
        assert code == 2
        assert "unknown bench suite" in capsys.readouterr().err
        assert not (tmp_path / "b.json").exists()

    def test_old_shape_out_file_exits_2_before_running(
        self, tmp_path, capsys
    ):
        out_file = tmp_path / "bench.json"
        out_file.write_text('{"benchmark": "runner"}')
        code = main(["bench", "--suite", "service", "--out", str(out_file)])
        assert code == 2
        assert "not a {suite: document} bench file" in capsys.readouterr().err
        assert out_file.read_text() == '{"benchmark": "runner"}'


class TestRunTimeout:
    def test_generous_timeout_output_identical(self, tmp_path, capsys):
        bare = tmp_path / "bare.txt"
        guarded = tmp_path / "guarded.txt"
        common = ["run", "table5", "--scale", "0.04", "--no-cache"]
        assert main([*common, "--out", str(bare)]) == 0
        assert (
            main([*common, "--timeout", "300", "--out", str(guarded)]) == 0
        )
        capsys.readouterr()
        assert guarded.read_bytes() == bare.read_bytes()

    def test_hung_experiment_fails_cell_not_cli(self, capsys, monkeypatch):
        import time as time_module

        from repro.analysis.experiments import ALL_RUNNERS

        def hang(ctx):
            time_module.sleep(300)

        monkeypatch.setitem(ALL_RUNNERS, "table5", hang)
        # 10s: far below the 300s hang, far above fig1's cold build
        # even on a loaded machine.
        code = main(
            ["run", "table5", "fig1", "--scale", "0.04", "--no-cache",
             "--timeout", "10"]
        )
        out = capsys.readouterr().out
        assert code == 1  # a failed cell, not a hang or a crash
        assert "timed out after 10s (killed)" in out
        assert "Fig 1" in out  # the healthy cell still ran


class TestBenchServiceSuite:
    def test_service_suite_appends_query_storm_cell(self, tmp_path, capsys):
        out_file = tmp_path / "bench.json"
        code = main(
            [
                "bench",
                "--suite", "service",
                "--scale", "0.06",
                "--out", str(out_file),
            ]
        )
        assert code == 0
        document = json.loads(out_file.read_text())
        assert set(document) == {"service"}
        cell = document["service"]
        assert cell["blocks"] > 0
        assert cell["queries_per_second"] > 0
        assert cell["ingest_blocks_per_second"] > 0

    def test_out_file_keeps_the_suites_that_did_not_run(
        self, tmp_path, capsys
    ):
        import os

        out_file = tmp_path / "bench.json"
        engine = {"scale": 0.3, "jobs": 1, "nproc": None, "gates": {}}
        out_file.write_text(json.dumps({"engine": engine}))
        code = main(
            [
                "bench",
                "--suite", "service",
                "--scale", "0.05",
                "--out", str(out_file),
            ]
        )
        assert code == 0
        document = json.loads(out_file.read_text())
        assert document["engine"] == engine
        assert document["service"]["scale"] == 0.05
        assert document["service"]["jobs"] == 1
        assert document["service"]["nproc"] == os.cpu_count()
        assert document["service"]["gates"] == {}


class TestServe:
    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "serve",
                "--dataset", str(tmp_path / "nope.json.gz"),
                "--wal-dir", str(tmp_path / "wal"),
            ]
        )
        assert code == 2
        assert "cannot load dataset" in capsys.readouterr().err


class TestDataset:
    def test_dataset_export(self, tmp_path, capsys):
        out_file = tmp_path / "a.json.gz"
        code = main(["dataset", "A", "--scale", "0.05", "--out", str(out_file)])
        assert code == 0
        dataset = load_dataset(out_file)
        assert dataset.block_count > 0


class TestFaults:
    def test_small_sweep_reports_power_and_cliff(self, tmp_path, capsys):
        out_file = tmp_path / "faults.txt"
        code = main(
            [
                "faults",
                "--scale", "0.04",
                "--loss", "0", "0.5",
                "--downtime", "0",
                "--seeds", "11",
                "--reps", "1",
                "--out", str(out_file),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Detection power vs loss" in out
        assert "power cliff" in out
        assert "Detection power vs loss" in out_file.read_text()


class TestAdversaries:
    def test_small_zoo_prints_matrix_and_exports_csv(self, tmp_path, capsys):
        csv_file = tmp_path / "matrix.csv"
        out_file = tmp_path / "scorecard.txt"
        code = main(
            [
                "adversaries",
                "--scale", "0.04",
                "--kinds", "honest", "max-boost",
                "--seeds", "11",
                "--intensities", "1.0",
                "--csv", str(csv_file),
                "--out", str(out_file),
                "--no-cache",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Detection scorecard" in out
        assert "honest (FPR)" in out
        lines = csv_file.read_text().strip().splitlines()
        assert lines[0] == "kind,test,target_pool,runs,power,fpr,mean_p"
        assert len(lines) == 1 + 2 * 5  # two kinds x five detectors
        assert "Detection scorecard" in out_file.read_text()

    def test_unknown_kind_exits_2(self, capsys):
        code = main(["adversaries", "--kinds", "quantum", "--no-cache"])
        assert code == 2
        assert "unknown adversary kind" in capsys.readouterr().err
