"""Unit tests for the mempool: admission, removal, ordering, expiry."""

import pytest

from repro.reference.mempool import Mempool, RejectionReason

from conftest import TxFactory


@pytest.fixture
def txf():
    return TxFactory("mempool")


class TestAdmission:
    def test_accepts_above_threshold(self, txf):
        pool = Mempool(min_fee_rate=1.0)
        result = pool.offer(txf.tx(fee=500, vsize=250), now=0.0)
        assert result.accepted
        assert len(pool) == 1

    def test_rejects_below_threshold(self, txf):
        pool = Mempool(min_fee_rate=1.0)
        result = pool.offer(txf.tx(fee=100, vsize=250), now=0.0)
        assert not result.accepted
        assert result.reason == RejectionReason.BELOW_MIN_FEE_RATE
        assert len(pool) == 0

    def test_zero_threshold_accepts_zero_fee(self, txf):
        pool = Mempool(min_fee_rate=0.0)
        assert pool.offer(txf.tx(fee=0), now=0.0).accepted

    def test_duplicate_rejected(self, txf):
        pool = Mempool()
        tx = txf.tx()
        assert pool.offer(tx, now=0.0).accepted
        result = pool.offer(tx, now=1.0)
        assert not result.accepted
        assert result.reason == RejectionReason.ALREADY_PRESENT

    def test_rejection_counts(self, txf):
        pool = Mempool(min_fee_rate=1.0)
        pool.offer(txf.tx(fee=0), now=0.0)
        pool.offer(txf.tx(fee=0), now=0.0)
        assert pool.rejection_counts[RejectionReason.BELOW_MIN_FEE_RATE] == 2

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            Mempool(min_fee_rate=-1.0)


class TestRemoval:
    def test_remove_returns_entry(self, txf):
        pool = Mempool()
        tx = txf.tx()
        pool.offer(tx, now=0.0)
        entry = pool.remove(tx.txid)
        assert entry is not None and entry.txid == tx.txid
        assert tx.txid not in pool

    def test_remove_absent_is_noop(self, txf):
        assert Mempool().remove("nope") is None

    def test_remove_confirmed_counts(self, txf):
        pool = Mempool()
        txs = [txf.tx(nonce=i) for i in range(3)]
        for tx in txs:
            pool.offer(tx, now=0.0)
        removed = pool.remove_confirmed([txs[0].txid, txs[1].txid, "missing"])
        assert removed == 2
        assert len(pool) == 1


class TestAccounting:
    def test_total_vsize_tracks_membership(self, txf):
        pool = Mempool()
        a = txf.tx(vsize=300)
        b = txf.tx(vsize=700)
        pool.offer(a, now=0.0)
        pool.offer(b, now=0.0)
        assert pool.total_vsize == 1000
        pool.remove(a.txid)
        assert pool.total_vsize == 700

    def test_total_fees_tracks_membership(self, txf):
        pool = Mempool()
        pool.offer(txf.tx(fee=400), now=0.0)
        pool.offer(txf.tx(fee=600), now=0.0)
        assert pool.total_fees == 1000

    def test_arrival_time_recorded(self, txf):
        pool = Mempool()
        tx = txf.tx()
        pool.offer(tx, now=42.5)
        assert pool.arrival_time(tx.txid) == 42.5
        assert pool.arrival_time("missing") is None


class TestOrdering:
    def test_entries_by_fee_rate_descending(self, txf):
        pool = Mempool()
        cheap = txf.tx(fee=100, vsize=100)
        rich = txf.tx(fee=900, vsize=100)
        mid = txf.tx(fee=500, vsize=100)
        for tx in (cheap, rich, mid):
            pool.offer(tx, now=0.0)
        ordered = [e.txid for e in pool.entries_by_fee_rate()]
        assert ordered == [rich.txid, mid.txid, cheap.txid]

    def test_fee_rate_ties_break_by_arrival(self, txf):
        pool = Mempool()
        first = txf.tx(fee=100, vsize=100, nonce=1)
        second = txf.tx(fee=100, vsize=100, nonce=2)
        pool.offer(first, now=0.0)
        pool.offer(second, now=1.0)
        ordered = [e.txid for e in pool.entries_by_fee_rate()]
        assert ordered == [first.txid, second.txid]

    def test_iter_best_skips_removed(self, txf):
        pool = Mempool()
        rich = txf.tx(fee=900, vsize=100)
        poor = txf.tx(fee=100, vsize=100)
        pool.offer(rich, now=0.0)
        pool.offer(poor, now=0.0)
        pool.remove(rich.txid)
        assert [e.txid for e in pool.iter_best()] == [poor.txid]


class TestExpiry:
    def test_expire_drops_old_entries(self, txf):
        pool = Mempool(expiry_seconds=100.0)
        old = txf.tx(nonce=1)
        fresh = txf.tx(nonce=2)
        pool.offer(old, now=0.0)
        pool.offer(fresh, now=150.0)
        stale = pool.expire(now=200.0)
        assert [e.txid for e in stale] == [old.txid]
        assert fresh.txid in pool

    def test_filter(self, txf):
        pool = Mempool()
        pool.offer(txf.tx(fee=10_000, vsize=100), now=0.0)
        pool.offer(txf.tx(fee=100, vsize=100), now=0.0)
        rich = pool.filter(lambda e: e.fee_rate > 50)
        assert len(rich) == 1
