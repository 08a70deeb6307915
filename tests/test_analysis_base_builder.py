"""Tests for the experiment framework plumbing and dataset builders."""

import gc
import weakref

import pytest

from repro.analysis.base import (
    DataContext,
    ExperimentResult,
    ShapeCheck,
    check,
    paper_vs_measured_rows,
)
from repro.datasets.builder import (
    build_dataset,
    clear_memory_cache,
)
from repro.datasets.io import dataset_path
from repro.simulation.scenarios import Scenario, honest_scenario


class TestShapeChecks:
    def test_check_constructor_coerces_bool(self):
        assert check("x", 1).passed is True
        assert check("x", 0).passed is False

    def test_result_report_contains_status_lines(self):
        result = ExperimentResult(
            experiment_id="demo",
            title="Demo",
            paper={"a": 1},
            measured={"a": 2},
            rendered="table",
            checks=[check("good", True), check("bad", False, "detail")],
        )
        report = result.report()
        assert "[PASS] good" in report
        assert "[FAIL] bad (detail)" in report
        assert not result.all_passed
        assert [c.description for c in result.failed_checks()] == ["bad"]

    def test_paper_vs_measured_rows_union(self):
        rows = paper_vs_measured_rows({"a": 1, "b": 2}, {"b": 3, "c": 4})
        as_dict = {row[0]: (row[1], row[2]) for row in rows}
        assert as_dict["a"] == (1, "-")
        assert as_dict["b"] == (2, 3)
        assert as_dict["c"] == ("-", 4)


class TestDataContext:
    def test_datasets_memoised_per_context(self):
        ctx = DataContext(scale=0.04)
        first = ctx.dataset_a()
        second = ctx.dataset_a()
        assert first is second

    def test_scale_recorded(self):
        assert DataContext(scale=0.5).scale == 0.5


class TestBuilderCaching:
    def test_memory_cache_round_trip(self):
        clear_memory_cache()
        scenario = honest_scenario(seed=404, blocks=15)
        first = build_dataset(scenario)
        # A fresh-but-identical scenario hits the memo.
        second = build_dataset(honest_scenario(seed=404, blocks=15))
        assert first is second
        clear_memory_cache()

    def test_disk_cache_round_trip(self, tmp_path):
        clear_memory_cache()
        scenario = honest_scenario(seed=405, blocks=15)
        first = build_dataset(scenario, cache_dir=tmp_path, use_memory_cache=False)
        cache_file = dataset_path(tmp_path, scenario.name, scenario.seed)
        assert cache_file.exists()
        second = build_dataset(
            honest_scenario(seed=405, blocks=15),
            cache_dir=tmp_path,
            use_memory_cache=False,
        )
        assert second.chain.tip_hash == first.chain.tip_hash
        assert second.tx_count == first.tx_count

    def test_different_seeds_do_not_collide(self):
        clear_memory_cache()
        a = build_dataset(honest_scenario(seed=1, blocks=15))
        b = build_dataset(honest_scenario(seed=2, blocks=15))
        assert a.chain.tip_hash != b.chain.tip_hash
        clear_memory_cache()


class TestGcPolicy:
    """Loads and builds run with the collector paused; a memoised
    dataset is frozen until the memo is cleared."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_build_leaves_collector_state_as_found(self, enabled):
        clear_memory_cache()
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            build_dataset(honest_scenario(seed=406, blocks=15))
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
            clear_memory_cache()

    def test_failed_build_runs_paused_and_restores_collector(
        self, monkeypatch
    ):
        clear_memory_cache()
        seen = []

        def failing_run(self, **kwargs):
            seen.append(gc.isenabled())
            raise RuntimeError("build failed")

        monkeypatch.setattr(Scenario, "run", failing_run)
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="build failed"):
            build_dataset(honest_scenario(seed=407, blocks=15))
        assert seen == [False]
        assert gc.isenabled()
        assert gc.get_freeze_count() == 0

    def test_freeze_does_not_pin_garbage_alive_on_entry(self):
        class Node:
            pass

        clear_memory_cache()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            node = Node()
            node.cycle = node
            ref = weakref.ref(node)
            del node
            build_dataset(honest_scenario(seed=409, blocks=15))
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()
            clear_memory_cache()

    def test_memoised_dataset_is_frozen_until_cleared(self):
        clear_memory_cache()
        assert gc.get_freeze_count() == 0
        build_dataset(honest_scenario(seed=408, blocks=15), use_memory_cache=False)
        assert gc.get_freeze_count() == 0
        build_dataset(honest_scenario(seed=408, blocks=15))
        assert gc.get_freeze_count() > 0
        clear_memory_cache()
        assert gc.get_freeze_count() == 0


class TestEventedHelpers:
    def test_run_evented_scenario_convenience(self):
        from repro.chain.transaction import TransactionBuilder
        from repro.mining.pool import MiningPool
        from repro.reference.evented import run_evented_scenario
        from repro.simulation.workload import PlannedTx

        builder = TransactionBuilder("evented-conv")
        plan = [
            PlannedTx(
                broadcast_time=float(i * 20),
                tx=builder.build("x", 1000, fee=1000 + i, vsize=200, nonce=i),
            )
            for i in range(20)
        ]
        pools = [MiningPool(name="Solo", marker="/Solo/", hash_share=1.0)]
        dataset = run_evented_scenario(
            plan, pools, duration=3600.0, block_interval=600.0
        )
        assert dataset.block_count >= 1
        committed = sum(1 for r in dataset.tx_records.values() if r.committed)
        assert committed > 10

    def test_evented_requires_pools(self):
        from repro.reference.evented import EventedConfig, EventedSimulation
        from repro.simulation.rng import RngStreams

        with pytest.raises(ValueError):
            EventedSimulation(EventedConfig(duration=10.0), [], RngStreams(0))
