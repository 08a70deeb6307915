"""Unit tests for snapshot recording, stores, and size series."""

import numpy as np
import pytest

from repro.mempool.snapshots import (
    CONGESTION_BINS,
    MempoolSnapshot,
    SizeSeries,
    SnapshotStore,
    SnapshotTx,
    SnapshotTxInterner,
    congestion_bin,
    merge_stores,
)
from repro.reference.mempool import Mempool, SnapshotRecorder

from conftest import TxFactory


@pytest.fixture
def txf():
    return TxFactory("snapshots")


def snap(time, *sizes):
    txs = tuple(
        SnapshotTx(txid=f"tx{i}-{time}", arrival_time=time, fee=100, vsize=size)
        for i, size in enumerate(sizes)
    )
    return MempoolSnapshot(time=time, txs=txs)


class TestCongestionBins:
    def test_bin_edges(self):
        assert congestion_bin(0) == CONGESTION_BINS[0]
        assert congestion_bin(1_000_000) == CONGESTION_BINS[0]
        assert congestion_bin(1_000_001) == CONGESTION_BINS[1]
        assert congestion_bin(2_000_000) == CONGESTION_BINS[1]
        assert congestion_bin(4_000_000) == CONGESTION_BINS[2]
        assert congestion_bin(4_000_001) == CONGESTION_BINS[3]

    def test_snapshot_congested_flag(self):
        assert not snap(0.0, 500_000).is_congested
        assert snap(0.0, 600_000, 600_000).is_congested


class TestRecorder:
    def test_due_respects_interval(self, txf):
        recorder = SnapshotRecorder(interval=15.0)
        assert recorder.due(0.0)
        recorder.capture(Mempool(), 0.0)
        assert not recorder.due(10.0)
        assert recorder.due(15.0)

    def test_capture_reflects_mempool(self, txf):
        pool = Mempool()
        tx = txf.tx(fee=500, vsize=250)
        pool.offer(tx, now=3.0)
        recorder = SnapshotRecorder()
        snapshot = recorder.capture(pool, now=15.0)
        assert snapshot.tx_count == 1
        assert snapshot.txs[0].txid == tx.txid
        assert snapshot.txs[0].arrival_time == 3.0

    def test_pending_entry_keeps_its_row_across_captures(self, txf):
        pool = Mempool()
        kept, dropped = txf.tx(fee=500), txf.tx(fee=700)
        pool.offer(kept, now=1.0)
        pool.offer(dropped, now=2.0)
        recorder = SnapshotRecorder()
        first = recorder.capture(pool, now=15.0)
        pool.remove(dropped.txid)
        later = txf.tx(fee=900)
        pool.offer(later, now=20.0)
        pool.offer(dropped, now=25.0)  # a new entry, later arrival
        second = recorder.capture(pool, now=30.0)
        rows = {row.txid: row for row in second.txs}
        assert [row.txid for row in second.txs] == [
            entry.txid for entry in pool.entries()
        ]
        assert rows[kept.txid] is first.txs[0]
        assert rows[dropped.txid].arrival_time == 25.0
        assert rows[later.txid] == SnapshotTx(later.txid, 20.0, 900, 250)
        assert first.txs[1] == SnapshotTx(dropped.txid, 2.0, 700, 250)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            SnapshotRecorder(interval=0.0)


class TestStore:
    def test_store_sorted_and_indexed(self):
        store = SnapshotStore([snap(30.0), snap(0.0), snap(15.0)])
        assert store.times == [0.0, 15.0, 30.0]
        assert store[0].time == 0.0

    def test_at_or_before(self):
        store = SnapshotStore([snap(0.0), snap(15.0)])
        assert store.at_or_before(10.0).time == 0.0
        assert store.at_or_before(15.0).time == 15.0
        assert store.at_or_before(-1.0) is None

    def test_congested_fraction(self):
        store = SnapshotStore(
            [snap(0.0, 2_000_000), snap(15.0, 100), snap(30.0, 3_000_000)]
        )
        assert store.congested_fraction() == pytest.approx(2 / 3)

    def test_sample_without_replacement(self):
        store = SnapshotStore([snap(float(t)) for t in range(10)])
        sampled = store.sample(4, np.random.default_rng(1))
        assert len(sampled) == 4
        assert len({s.time for s in sampled}) == 4

    def test_sample_more_than_available(self):
        store = SnapshotStore([snap(0.0)])
        assert len(store.sample(10, np.random.default_rng(1))) == 1

    def test_first_seen_uses_snapshot_time(self):
        early = MempoolSnapshot(
            time=0.0, txs=(SnapshotTx("t", 0.5, 100, 100),)
        )
        late = MempoolSnapshot(
            time=15.0, txs=(SnapshotTx("t", 0.5, 100, 100),)
        )
        store = SnapshotStore([early, late])
        # Observer-visibility semantics: the earliest *snapshot* the tx
        # appeared in, not its mempool arrival time.
        assert store.first_seen() == {"t": 0.0}

    def test_first_seen_when_arrival_and_snapshot_differ(self):
        # Arrives at t=3.1, between snapshots; only becomes auditor-visible
        # at the t=15 snapshot.  A tx present from the first snapshot keeps
        # that snapshot's time.
        s0 = MempoolSnapshot(time=0.0, txs=(SnapshotTx("a", 0.0, 100, 100),))
        s1 = MempoolSnapshot(
            time=15.0,
            txs=(
                SnapshotTx("a", 0.0, 100, 100),
                SnapshotTx("b", 3.1, 200, 100),
            ),
        )
        store = SnapshotStore([s0, s1])
        first = store.first_seen()
        assert first["b"] == 15.0  # not the 3.1 arrival time
        assert first["a"] == 0.0

    def test_merge_stores(self):
        merged = merge_stores(
            [SnapshotStore([snap(0.0)]), SnapshotStore([snap(15.0)])]
        )
        assert len(merged) == 2


class TestInterner:
    def test_equal_rows_share_one_object(self):
        interner = SnapshotTxInterner()
        first = interner.txs([("a", 1.5, 100, 200), ("b", 2.0, 100, 200)])
        second = interner.txs([["a", 1.5, 100, 200]])
        assert first == (
            SnapshotTx("a", 1.5, 100, 200),
            SnapshotTx("b", 2.0, 100, 200),
        )
        assert second[0] is first[0]

    @pytest.mark.parametrize(
        "left, right", [(5, 5.0), (0.0, -0.0), (0, 0.0), (1, True)]
    )
    def test_rows_that_serialize_differently_stay_apart(self, left, right):
        """``5 == 5.0`` and ``0.0 == -0.0``, but JSON writes them apart."""
        interner = SnapshotTxInterner()
        (a,) = interner.txs([("t", left, 100, 200)])
        (b,) = interner.txs([("t", right, 100, 200)])
        assert a is not b
        assert repr(a.arrival_time) == repr(left)
        assert repr(b.arrival_time) == repr(right)


class TestSizeSeries:
    def test_basic_queries(self):
        series = SizeSeries([0.0, 15.0, 30.0], [100, 2_000_000, 500])
        assert series.sizes() == [100, 2_000_000, 500]
        assert series.size_at_or_before(20.0) == 2_000_000
        assert series.size_at_or_before(-5.0) is None
        assert series.congested_fraction() == pytest.approx(1 / 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            SizeSeries([0.0, 1.0], [1])
        with pytest.raises(ValueError):
            SizeSeries([1.0, 0.0], [1, 2])
        with pytest.raises(ValueError):
            SizeSeries([0.0], [1], tx_counts=[1, 2])

    def test_tx_counts_optional(self):
        assert SizeSeries([0.0], [1]).tx_counts() is None
        assert SizeSeries([0.0], [1], tx_counts=[5]).tx_counts() == [5]
