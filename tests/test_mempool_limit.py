"""Tests for the mempool size cap (maxmempool eviction semantics)."""

import pytest

from repro.reference.mempool import Mempool, RejectionReason

from conftest import TxFactory


@pytest.fixture
def txf():
    return TxFactory("mempool-limit")


class TestSizeCap:
    def test_under_cap_admits_freely(self, txf):
        pool = Mempool(min_fee_rate=0.0, max_vsize=1000)
        for index in range(4):
            assert pool.offer(txf.tx(fee=100, vsize=200), now=float(index)).accepted
        assert pool.total_vsize == 800

    def test_rich_arrival_evicts_cheapest(self, txf):
        pool = Mempool(min_fee_rate=0.0, max_vsize=600)
        cheap = txf.tx(fee=100, vsize=300)   # ~0.3 sat/vB
        mid = txf.tx(fee=600, vsize=300)     # 2 sat/vB
        rich = txf.tx(fee=3000, vsize=300)   # 10 sat/vB
        pool.offer(cheap, now=0.0)
        pool.offer(mid, now=1.0)
        result = pool.offer(rich, now=2.0)
        assert result.accepted
        assert cheap.txid in result.replaced
        assert cheap.txid not in pool
        assert mid.txid in pool and rich.txid in pool
        assert pool.total_vsize <= 600

    def test_poor_arrival_bounces_when_full(self, txf):
        pool = Mempool(min_fee_rate=0.0, max_vsize=600)
        pool.offer(txf.tx(fee=3000, vsize=300), now=0.0)
        pool.offer(txf.tx(fee=2000, vsize=300), now=1.0)
        result = pool.offer(txf.tx(fee=10, vsize=300), now=2.0)
        assert not result.accepted
        assert result.reason == RejectionReason.MEMPOOL_FULL
        assert len(pool) == 2

    def test_eviction_may_remove_multiple(self, txf):
        pool = Mempool(min_fee_rate=0.0, max_vsize=600)
        smalls = [txf.tx(fee=10, vsize=150) for _ in range(4)]
        for index, tx in enumerate(smalls):
            pool.offer(tx, now=float(index))
        big_rich = txf.tx(fee=9000, vsize=450)
        result = pool.offer(big_rich, now=9.0)
        assert result.accepted
        assert len(result.replaced) >= 2
        assert pool.total_vsize <= 600

    def test_oversized_tx_that_cannot_fit_bounces(self, txf):
        pool = Mempool(min_fee_rate=0.0, max_vsize=400)
        pool.offer(txf.tx(fee=90_000, vsize=300), now=0.0)  # 300 sat/vB floor
        # Even evicting everything would not make room for 500 vB, and
        # the incumbent pays more anyway.
        result = pool.offer(txf.tx(fee=1000, vsize=500), now=1.0)
        assert not result.accepted

    def test_unlimited_by_default(self, txf):
        pool = Mempool(min_fee_rate=0.0)
        for index in range(50):
            assert pool.offer(
                txf.tx(fee=1, vsize=10_000), now=float(index)
            ).accepted

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            Mempool(max_vsize=0)

    def test_accounting_after_evictions(self, txf):
        pool = Mempool(min_fee_rate=0.0, max_vsize=500)
        pool.offer(txf.tx(fee=10, vsize=250), now=0.0)
        pool.offer(txf.tx(fee=20, vsize=250), now=1.0)
        pool.offer(txf.tx(fee=50_000, vsize=400), now=2.0)
        entries = pool.entries()
        assert pool.total_vsize == sum(e.vsize for e in entries)
        assert pool.total_fees == sum(e.tx.fee for e in entries)
