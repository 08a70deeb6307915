"""Tests for the generic shard executor and its consumers.

``run_sharded`` is the fan-out primitive under sharded scenario cells
and dataset builds: results return in cell order, failures are isolated
per shard, and obs deltas from pool workers merge at join.  The
consumers pinned here: the adversary detection-matrix sweep (identical
matrix for any ``jobs``) and the ``bench --suite datasets`` grid.
"""

import pytest

from repro import obs
from repro.analysis.runner import ShardOutcome, run_sharded
from repro.bench import bench_datasets


# ----------------------------------------------------------------------
# Module-level workers (they cross the process boundary by reference)
# ----------------------------------------------------------------------
def _square(cell):
    return cell * cell


def _fail_on_odd(cell):
    if cell % 2 == 1:
        raise ValueError(f"odd cell {cell}")
    return cell


def _count_and_echo(cell):
    obs.counter("test.sharded.cells")
    obs.counter(f"test.sharded.cell_{cell}")
    return cell


class TestRunSharded:
    def test_sequential_preserves_cell_order(self):
        outcomes = run_sharded([3, 1, 2], _square, jobs=1)
        assert [o.value for o in outcomes] == [9, 1, 4]
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert all(o.ok for o in outcomes)

    def test_pool_preserves_cell_order(self):
        outcomes = run_sharded(list(range(8)), _square, jobs=4)
        assert [o.value for o in outcomes] == [n * n for n in range(8)]
        assert [o.index for o in outcomes] == list(range(8))

    def test_pool_matches_sequential(self):
        cells = list(range(6))
        sequential = run_sharded(cells, _square, jobs=1)
        pooled = run_sharded(cells, _square, jobs=3)
        assert [o.value for o in sequential] == [o.value for o in pooled]

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_failures_are_isolated_per_shard(self, jobs):
        outcomes = run_sharded([0, 1, 2, 3], _fail_on_odd, jobs=jobs)
        assert [o.ok for o in outcomes] == [True, False, True, False]
        assert outcomes[1].value is None
        assert "odd cell 1" in outcomes[1].error
        assert outcomes[2].value == 2  # later shards still ran

    def test_failed_shard_counts_in_obs(self):
        with obs.tracing(reset=True):
            run_sharded([1], _fail_on_odd, jobs=1)
            counters = obs.snapshot()["counters"]
        assert counters.get("runner.shards.raised") == 1

    def test_single_cell_short_circuits_the_pool(self):
        # One cell runs in-process even with jobs>1 (no pool overhead).
        with obs.tracing(reset=True):
            outcomes = run_sharded([5], _count_and_echo, jobs=4)
            counters = obs.snapshot()["counters"]
        assert outcomes[0].value == 5
        # In-process shards record straight into the live registry;
        # there is no delta merge, so counts appear exactly once.
        assert counters.get("test.sharded.cells") == 1

    def test_pool_worker_obs_deltas_merge_at_join(self):
        with obs.tracing(reset=True):
            outcomes = run_sharded([1, 2, 3, 4], _count_and_echo, jobs=2)
            counters = obs.snapshot()["counters"]
        assert [o.value for o in outcomes] == [1, 2, 3, 4]
        assert counters.get("test.sharded.cells") == 4
        for cell in (1, 2, 3, 4):
            assert counters.get(f"test.sharded.cell_{cell}") == 1

    def test_empty_cells(self):
        assert run_sharded([], _square, jobs=4) == []

    def test_outcome_ok_property(self):
        assert ShardOutcome(index=0, wall_time=0.0, value=1).ok
        assert not ShardOutcome(index=0, wall_time=0.0, error="x").ok


class TestShardedAdversarySweep:
    def test_jobs_do_not_change_the_matrix(self):
        from repro.analysis.ext_adversaries import sweep_detection_matrix

        kwargs = dict(
            scale=0.03,
            kinds=("honest", "fifo"),
            seeds=(11,),
            intensities=(1.0,),
        )
        sequential = sweep_detection_matrix(jobs=1, **kwargs)
        sharded = sweep_detection_matrix(jobs=2, **kwargs)
        assert sharded.to_csv() == sequential.to_csv()
        assert [c.rate for c in sharded.cells] == [
            c.rate for c in sequential.cells
        ]
        assert [c.mean_p for c in sharded.cells] == [
            c.mean_p for c in sequential.cells
        ]


class TestDatasetsBench:
    def test_smoke_grid_passes_all_gates(self):
        document = bench_datasets(["table2"], 0.02, 2)
        assert (document["scale"], document["jobs"]) == (0.02, 2)
        gates = document["gates"]
        assert gates["byte_identical"]
        assert gates["mmap_engaged"]
        assert gates["battery_ok"]
        for name in ("A", "B", "C"):
            assert document["cold"]["datasets"][name]["columnar_attached"]
            assert document["cold"]["datasets"][name]["gzip_bytes"] > 0
            assert document["cold"]["datasets"][name]["columnar_bytes"] > 0
            assert document["warm"][name]["mmap_attached"]
            assert document["byte_identity"][name]
        assert document["chain_arrays"]["identical"]
        assert document["table2_warm"]["fallback_packs"] == 0
        assert document["table2_warm"]["mmap_packs"] > 0
