"""Snapshot gaps: recorders, stores, and analyses over lossy timelines.

A real observer misses snapshot intervals (process restarts, host
downtime).  These tests pin down how the snapshot layer represents such
gaps and that the congestion/delay analyses keep working over a gappy
store instead of assuming a dense 15-second grid.
"""

import numpy as np
import pytest

from repro.core.congestion import (
    DelaySummary,
    commit_delays_in_blocks,
    congested_fraction_by,
    fee_rates_by_congestion,
    mempool_size_series,
)
from repro.faults import FaultSchedule, degrade_dataset, spread_downtime
from repro.faults.quality import assess_quality, detect_gaps
from repro.mempool.snapshots import (
    CONGESTION_BINS,
    MempoolSnapshot,
    SnapshotStore,
    SnapshotTx,
)
from repro.reference.mempool import Mempool, SnapshotRecorder
from repro.simulation.scenarios import honest_scenario

from conftest import TxFactory


@pytest.fixture
def txf():
    return TxFactory("gaps")


def _gappy_recorder(txf):
    """Capture at 0..45, skip [60, 120), resume at 120..150."""
    mempool = Mempool(min_fee_rate=0.0)
    recorder = SnapshotRecorder(interval=15.0)
    for index in range(12):
        mempool.offer(txf.tx(fee=2000, vsize=5000), now=float(index))
    for tick in (0.0, 15.0, 30.0, 45.0, 120.0, 135.0, 150.0):
        if recorder.due(tick):
            recorder.capture(mempool, tick)
    return recorder


class TestRecorderWithSkippedIntervals:
    def test_store_preserves_the_gap(self, txf):
        store = _gappy_recorder(txf).store()
        assert store.times == [0.0, 15.0, 30.0, 45.0, 120.0, 135.0, 150.0]
        gaps, missing, seconds = detect_gaps(store.times, interval=15.0)
        assert gaps == 1
        assert missing == 4
        assert seconds == pytest.approx(60.0)

    def test_due_is_true_across_a_gap(self, txf):
        recorder = SnapshotRecorder(interval=15.0)
        mempool = Mempool(min_fee_rate=0.0)
        recorder.capture(mempool, 0.0)
        assert not recorder.due(10.0)
        assert recorder.due(90.0)

    def test_analyses_use_present_snapshots_only(self, txf):
        store = _gappy_recorder(txf).store()
        times, sizes = mempool_size_series(store)
        assert times.shape == sizes.shape == (7,)
        assert congested_fraction_by(store) == 0.0
        assert store.congested_fraction() == 0.0


def _synthetic_store(sizes_by_time):
    snapshots = []
    for time, total_vsize in sizes_by_time:
        txs = (
            SnapshotTx(
                txid=f"tx-{time}", arrival_time=time, fee=1000, vsize=total_vsize
            ),
        )
        snapshots.append(MempoolSnapshot(time=time, txs=txs))
    return SnapshotStore(snapshots)


class TestCongestionOverGappyStore:
    def test_attribution_uses_last_snapshot_before_arrival(self):
        # Congested before the gap, empty after it; the gap itself
        # attributes to the last pre-gap snapshot.
        store = _synthetic_store(
            [(0.0, 2_500_000), (15.0, 2_500_000), (120.0, 100)]
        )
        arrivals = [10.0, 60.0, 125.0]
        rates = [5.0, 10.0, 20.0]
        grouped = fee_rates_by_congestion(arrivals, rates, store)
        assert grouped["(2,4]MB"].tolist() == [5.0, 10.0]
        assert grouped["<=1MB"].tolist() == [20.0]
        for label in CONGESTION_BINS:
            assert isinstance(grouped[label], np.ndarray)

    def test_congested_fraction_counts_snapshots_not_wallclock(self):
        store = _synthetic_store(
            [(0.0, 2_500_000), (15.0, 2_500_000), (120.0, 100)]
        )
        assert congested_fraction_by(store) == pytest.approx(2.0 / 3.0)


class TestDelayPercentilesOverGaps:
    def test_censored_arrivals_are_simply_excluded(self):
        block_times = [600.0 * h for h in range(1, 11)]
        arrivals = [10.0, 650.0, 1300.0, 5000.0]
        heights = [0, 2, 3, 9]
        delays = commit_delays_in_blocks(arrivals, heights, block_times)
        summary = DelaySummary.from_delays(delays)
        assert summary.tx_count == 4
        # Dropping a censored record must not disturb the others.
        partial = commit_delays_in_blocks(
            arrivals[:2] + arrivals[3:], heights[:2] + heights[3:], block_times
        )
        assert partial.tolist() == [delays[0], delays[1], delays[3]]

    def test_delay_summary_of_empty_input_is_degenerate(self):
        summary = DelaySummary.from_delays(np.asarray([], dtype=float))
        assert summary.tx_count == 0
        assert np.isnan(summary.next_block_fraction)


class TestDowntimeGapsEndToEnd:
    def test_degraded_dataset_reports_gap_in_quality(self):
        scenario = honest_scenario(seed=21, blocks=40)
        dataset = scenario.run().dataset
        observer = dataset.metadata.get("observer", dataset.name)
        duration = scenario.engine_config.duration
        schedule = FaultSchedule(
            seed=2, downtime=spread_downtime(observer, duration, 0.25, windows=2)
        )
        degraded = degrade_dataset(dataset, schedule)
        assert len(degraded.snapshots) < len(dataset.snapshots)
        quality = assess_quality(degraded)
        assert quality.snapshot_gap_count >= 1
        assert quality.missing_tick_count > 0
        assert quality.downtime_seconds > 0.0
        # The analyses still run over the gappy store.
        assert 0.0 <= congested_fraction_by(degraded.snapshots) <= 1.0
