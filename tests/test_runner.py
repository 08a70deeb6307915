"""Tests for the parallel experiment runner."""

import pytest

from repro.analysis import runner as runner_mod
from repro.analysis.experiments import ALL_RUNNERS
from repro.analysis.runner import (
    BatteryResult,
    ExperimentOutcome,
    run_battery,
    run_one,
)
from repro.datasets.builder import clear_memory_cache

#: Cheap ids: fast at tiny scale and spanning datasets A + none.
CHEAP_IDS = ["fig1", "table5", "fig14"]
#: Timeout-guard battery: ``table5`` is made to hang; the other two only
#: read dataset A, so once it is built they run in milliseconds.
GUARDED_IDS = ["fig5", "table5", "fig14"]
SCALE = 0.04


def _fresh():
    clear_memory_cache()
    runner_mod._WORKER_CONTEXTS.clear()


def _fresh_with_dataset_a():
    """Reset, then build dataset A in this process.

    Guarded cells run in children forked from here (directly, or through
    fork-started pool workers), so they inherit the built dataset: the
    1.5 s guard then times only the hung cell, not a dataset build or a
    simulation racing the deadline on a loaded host.
    """
    _fresh()
    run_one("fig5", SCALE)


class TestRunOne:
    def test_success_outcome(self):
        _fresh()
        outcome = run_one("table5", SCALE)
        assert outcome.ok
        assert outcome.experiment_id == "table5"
        assert outcome.wall_time > 0
        assert outcome.error is None
        assert "Table 5" in outcome.report()

    def test_failure_is_captured_not_raised(self, monkeypatch):
        def explode(ctx):
            raise RuntimeError("boom")

        monkeypatch.setitem(ALL_RUNNERS, "fig1", explode)
        _fresh()
        outcome = run_one("fig1", SCALE)
        assert not outcome.ok
        assert "RuntimeError: boom" in outcome.error
        assert "FAILED" in outcome.report()


class TestRunBattery:
    def test_unknown_id_rejected_upfront(self):
        with pytest.raises(KeyError):
            run_battery(["fig99"], scale=SCALE)

    def test_sequential_outcomes_in_request_order(self):
        _fresh()
        battery = run_battery(CHEAP_IDS, scale=SCALE, jobs=1)
        assert [o.experiment_id for o in battery.outcomes] == CHEAP_IDS
        assert all(o.ok for o in battery.outcomes)

    def test_parallel_report_byte_identical_to_sequential(self, tmp_path):
        _fresh()
        sequential = run_battery(
            CHEAP_IDS, scale=SCALE, jobs=1, cache_dir=tmp_path
        )
        _fresh()
        parallel = run_battery(
            CHEAP_IDS, scale=SCALE, jobs=3, cache_dir=tmp_path
        )
        assert [o.experiment_id for o in parallel.outcomes] == CHEAP_IDS
        assert parallel.report() == sequential.report()

    def test_one_failure_does_not_abort_the_rest(self, monkeypatch):
        def explode(ctx):
            raise ValueError("injected failure")

        monkeypatch.setitem(ALL_RUNNERS, "table5", explode)
        _fresh()
        battery = run_battery(CHEAP_IDS, scale=SCALE, jobs=1)
        by_id = {o.experiment_id: o for o in battery.outcomes}
        assert not by_id["table5"].ok
        assert by_id["fig1"].ok and by_id["fig14"].ok
        assert battery.failed() == [by_id["table5"]]
        # The failed slot still occupies its place in the report.
        assert "table5: FAILED" in battery.report()

    def test_timing_table_lists_every_experiment(self):
        _fresh()
        battery = run_battery(["table5"], scale=SCALE)
        table = battery.timing_table()
        assert "table5" in table and "total" in table

    def test_cache_stats_aggregate_across_outcomes(self, tmp_path):
        _fresh()
        battery = run_battery(
            ["fig5", "fig3"], scale=SCALE, jobs=1, cache_dir=tmp_path
        )
        stats = battery.cache_stats()
        assert stats.builds >= 1  # datasets A and B were built and stored
        _fresh()
        warm = run_battery(
            ["fig5", "fig3"], scale=SCALE, jobs=1, cache_dir=tmp_path
        )
        warm_stats = warm.cache_stats()
        assert warm_stats.builds == 0
        assert warm_stats.hits >= 1
        assert warm.report() == battery.report()


class TestWarmRunsSkipSimulation:
    def test_cold_then_warm_identical_and_faster_build_counts(self, tmp_path):
        _fresh()
        cold = run_battery(["fig5"], scale=SCALE, cache_dir=tmp_path)
        _fresh()
        warm = run_battery(["fig5"], scale=SCALE, cache_dir=tmp_path)
        assert cold.report() == warm.report()
        assert cold.cache_stats().builds == 1
        assert warm.cache_stats().builds == 0


class TestObsIntegration:
    def test_untraced_outcome_carries_no_obs(self):
        _fresh()
        outcome = run_one("table5", SCALE)
        assert outcome.obs is None

    def test_traced_outcome_carries_metrics_delta(self):
        from repro import obs

        _fresh()
        with obs.tracing(reset=True):
            outcome = run_one("table5", SCALE)
        assert outcome.obs is not None
        assert outcome.obs["counters"]["runner.experiments.ok"] == 1
        assert outcome.obs["spans"]["runner.experiment"]["count"] == 1

    def test_parallel_battery_merges_worker_metrics(self, tmp_path):
        """Workers trace in their own process; the parent must fold
        their deltas back so the aggregate snapshot covers the engine
        work the workers did."""
        from repro import obs

        _fresh()
        with obs.tracing(reset=True):
            # Fresh cache dir: fig5's dataset build (and so the
            # simulation engine) must run inside a worker process.
            battery = run_battery(
                ["fig5", "table5"], scale=SCALE, jobs=2, cache_dir=tmp_path
            )
            snap = obs.snapshot()
        assert battery.all_ok
        assert snap["counters"]["runner.experiments.ok"] == 2
        assert snap["counters"]["engine.blocks.committed"] > 0
        assert snap["spans"]["engine.run"]["count"] >= 1


def _hang_runner(ctx):
    import time as time_module

    time_module.sleep(300)


def _dying_runner(ctx):
    import os as os_module

    os_module._exit(3)


class TestTimeoutGuard:
    """--timeout: a hung experiment is killed and marked failed, isolated."""

    def test_run_one_kills_hung_worker(self, monkeypatch):
        import time as time_module

        monkeypatch.setitem(ALL_RUNNERS, "fig1", _hang_runner)
        _fresh()
        start = time_module.monotonic()
        outcome = run_one("fig1", SCALE, timeout=1.0)
        elapsed = time_module.monotonic() - start
        assert not outcome.ok
        assert "timed out after 1s (killed)" in outcome.error
        assert elapsed < 20  # killed, not awaited
        assert "FAILED" in outcome.report()

    def test_timeout_is_counted_when_tracing(self, monkeypatch):
        from repro import obs

        monkeypatch.setitem(ALL_RUNNERS, "fig1", _hang_runner)
        _fresh()
        with obs.tracing(reset=True):
            run_one("fig1", SCALE, timeout=1.0)
            snap = obs.snapshot()
        assert snap["counters"]["runner.experiments.timeout"] == 1

    def test_worker_death_is_reported_not_hung(self, monkeypatch):
        monkeypatch.setitem(ALL_RUNNERS, "fig1", _dying_runner)
        _fresh()
        outcome = run_one("fig1", SCALE, timeout=30.0)
        assert not outcome.ok
        assert "worker process died" in outcome.error

    def test_timed_out_cell_is_isolated_in_battery(self, monkeypatch):
        _fresh_with_dataset_a()
        monkeypatch.setitem(ALL_RUNNERS, "table5", _hang_runner)
        battery = run_battery(GUARDED_IDS, scale=SCALE, jobs=1, timeout=1.5)
        by_id = {o.experiment_id: o for o in battery.outcomes}
        assert not by_id["table5"].ok
        assert "timed out" in by_id["table5"].error
        # Failure isolation: the others still ran.
        assert by_id["fig5"].ok and by_id["fig14"].ok
        # Report order is preserved, with the dead cell marked FAILED.
        assert [o.experiment_id for o in battery.outcomes] == GUARDED_IDS
        assert "table5: FAILED" in battery.report()

    def test_timeout_guard_under_parallel_jobs(self, monkeypatch):
        _fresh_with_dataset_a()
        monkeypatch.setitem(ALL_RUNNERS, "table5", _hang_runner)
        battery = run_battery(GUARDED_IDS, scale=SCALE, jobs=2, timeout=1.5)
        by_id = {o.experiment_id: o for o in battery.outcomes}
        assert not by_id["table5"].ok
        assert "timed out" in by_id["table5"].error
        assert by_id["fig5"].ok and by_id["fig14"].ok

    def test_generous_timeout_report_identical_to_unguarded(self):
        _fresh()
        guarded = run_battery(["table5"], scale=SCALE, timeout=300.0)
        _fresh()
        bare = run_battery(["table5"], scale=SCALE)
        assert guarded.report() == bare.report()
        assert guarded.all_ok

    def test_guarded_worker_metrics_still_merge(self, tmp_path):
        """The watchdog child's obs delta must fold into the parent."""
        from repro import obs

        _fresh()
        with obs.tracing(reset=True):
            battery = run_battery(
                ["fig5"],
                scale=SCALE,
                jobs=1,
                cache_dir=tmp_path,
                timeout=300.0,
            )
            snap = obs.snapshot()
        assert battery.all_ok
        assert snap["counters"]["runner.experiments.ok"] == 1
        assert snap["counters"]["engine.blocks.committed"] > 0


class TestBatteryResultShape:
    def test_all_ok_reflects_failing_checks(self):
        good = ExperimentOutcome("x", 0.1, error=None, result=None)
        # An outcome without a result is not ok.
        assert not good.ok
        battery = BatteryResult(
            outcomes=[good], jobs=1, scale=SCALE, total_wall=0.1
        )
        assert not battery.all_ok
        assert battery.failed() == [good]
