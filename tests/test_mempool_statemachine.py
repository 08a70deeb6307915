"""Regression tests for the mempool state-machine bug sweep.

Each test class pins one behaviour audited (and, where broken, fixed)
in the invariant-driven sweep:

* RBF + full-pool admission is *atomic* — a rejected offer never
  mutates the pool (the pre-fix code removed conflicts before planning
  evictions, so a ``MEMPOOL_FULL`` bounce permanently dropped the
  displaced transactions);
* :meth:`Mempool.iter_best` is non-destructive (the pre-fix generator
  drained the shared fee-rate heap, so a second iteration saw nothing);
* ``expire`` uses a strict ``<`` cutoff and ``_plan_evictions`` uses
  strict out-pay / exact-fit boundaries, matching Bitcoin Core.

The invariant checkers themselves are meta-tested: a deliberately
buggy subclass must trip :class:`InvariantViolation`.
"""

import pytest

from repro.chain.transaction import TransactionBuilder
from repro.obs.invariants import InvariantViolation
from repro.reference.mempool import Mempool, RejectionReason
from repro.reference.per_tx import check_engine_block_state

from conftest import TxFactory


@pytest.fixture
def txf():
    return TxFactory("mempool-sm")


@pytest.fixture
def builder():
    # Separate namespace from txf: same-namespace/same-nonce builds spend
    # the same synthetic outpoints and would conflict accidentally.
    return TransactionBuilder("mempool-sm-rbf")


# ----------------------------------------------------------------------
# Satellite (a): RBF + MEMPOOL_FULL atomicity
# ----------------------------------------------------------------------
class TestAtomicAdmission:
    def test_full_pool_rbf_bounce_keeps_original(self, txf, builder):
        """A bump bounced by the size cap must not evict its conflict.

        Pre-fix sequence: conflicts were removed *before* ``_make_room``
        ran, so when the (larger) bump could not fit alongside the
        better-paying blocker, the offer was rejected MEMPOOL_FULL and
        the original transaction was already gone — the pool lost a
        paying transaction to a rejected replacement.
        """
        pool = Mempool(min_fee_rate=0.0, max_vsize=700)
        blocker = txf.tx(fee=100_000, vsize=400)  # 250 sat/vB
        original = builder.build("dest", 10_000, fee=200, vsize=200, nonce=1)
        # RBF-valid bump (more fee, higher rate) but vsize 400: admitting
        # it would need to evict the blocker, which out-pays it.
        bump = builder.replacement(original, fee=5000, vsize=400)

        assert pool.offer(blocker, now=0.0).accepted
        assert pool.offer(original, now=1.0).accepted
        before = (len(pool), pool.total_vsize, pool.total_fees)

        result = pool.offer(bump, now=2.0)

        assert not result.accepted
        assert result.reason == RejectionReason.MEMPOOL_FULL
        # The pool is exactly as it was: original survived the bounce.
        assert original.txid in pool
        assert blocker.txid in pool
        assert bump.txid not in pool
        assert (len(pool), pool.total_vsize, pool.total_fees) == before
        pool.check_invariants()

    def test_rejected_offer_never_mutates_conflict_index(self, txf, builder):
        pool = Mempool(min_fee_rate=0.0, max_vsize=700)
        pool.offer(txf.tx(fee=100_000, vsize=400), now=0.0)
        original = builder.build("dest", 10_000, fee=200, vsize=200, nonce=2)
        pool.offer(original, now=1.0)
        bump = builder.replacement(original, fee=5000, vsize=400)

        pool.offer(bump, now=2.0)  # bounces

        # The original's inputs are still indexed to the original.
        assert pool.conflicts_of(bump) == [original.txid]

    def test_accepted_rbf_with_eviction_reports_both(self, txf, builder):
        """When the bump *does* fit, conflicts and evictees both appear
        in ``replaced`` and the pool respects the cap afterwards."""
        pool = Mempool(min_fee_rate=0.0, max_vsize=700)
        cheap = txf.tx(fee=30, vsize=300)  # 0.1 sat/vB, evictable
        original = builder.build("dest", 10_000, fee=200, vsize=200, nonce=3)
        # vsize 500: freeing the conflict's 200 vB is not enough, the
        # cheap entry must also be evicted (needed = 100 vB).
        bump = builder.replacement(original, fee=5000, vsize=500)

        pool.offer(cheap, now=0.0)
        pool.offer(original, now=1.0)
        result = pool.offer(bump, now=2.0)

        assert result.accepted
        assert set(result.replaced) == {original.txid, cheap.txid}
        assert bump.txid in pool and len(pool) == 1
        assert pool.total_vsize <= 700
        pool.check_invariants()


# ----------------------------------------------------------------------
# Satellite (b): iter_best is non-destructive
# ----------------------------------------------------------------------
class TestIterBest:
    def test_double_iteration_sees_same_sequence(self, txf):
        """Pre-fix, iter_best popped the shared heap: the second pass
        yielded nothing and later offers corrupted ordering."""
        pool = Mempool(min_fee_rate=0.0)
        for index, fee in enumerate([500, 9000, 1200, 40, 7700]):
            pool.offer(txf.tx(fee=fee, vsize=250), now=float(index))
        first = [e.txid for e in pool.iter_best()]
        second = [e.txid for e in pool.iter_best()]
        assert first == second
        assert len(first) == 5
        rates = [pool.get(t).fee_rate for t in first]
        assert rates == sorted(rates, reverse=True)
        pool.check_invariants()

    def test_pool_usable_after_partial_iteration(self, txf):
        pool = Mempool(min_fee_rate=0.0)
        for index in range(6):
            pool.offer(txf.tx(fee=1000 * (index + 1), vsize=250), now=float(index))
        iterator = pool.iter_best()
        next(iterator)
        next(iterator)  # abandon mid-way
        assert len(pool) == 6
        assert len(list(pool.iter_best())) == 6
        pool.check_invariants()

    def test_mid_iteration_removal_skipped(self, txf):
        pool = Mempool(min_fee_rate=0.0)
        txs = [txf.tx(fee=1000 * (i + 1), vsize=250) for i in range(4)]
        for index, tx in enumerate(txs):
            pool.offer(tx, now=float(index))
        iterator = pool.iter_best()
        best = next(iterator)
        # Remove the next-best entry while iterating.
        remaining = sorted(
            (e for e in pool.entries() if e.txid != best.txid),
            key=lambda e: -e.fee_rate,
        )
        pool.remove(remaining[0].txid)
        rest = [e.txid for e in iterator]
        assert remaining[0].txid not in rest
        assert len(rest) == 2

    def test_duplicate_heap_residue_yields_once(self, txf):
        """remove + re-offer leaves two heap items for one txid; the
        entry must still be yielded exactly once."""
        pool = Mempool(min_fee_rate=0.0)
        tx = txf.tx(fee=5000, vsize=250)
        pool.offer(tx, now=0.0)
        pool.remove(tx.txid)
        pool.offer(tx, now=1.0)
        others = [txf.tx(fee=100 * (i + 1), vsize=250) for i in range(3)]
        for index, other in enumerate(others):
            pool.offer(other, now=2.0 + index)
        yielded = [e.txid for e in pool.iter_best()]
        assert yielded.count(tx.txid) == 1
        assert len(yielded) == 4

    def test_iteration_compacts_stale_residue(self, txf):
        pool = Mempool(min_fee_rate=0.0)
        txs = [txf.tx(fee=1000, vsize=250) for _ in range(8)]
        for index, tx in enumerate(txs):
            pool.offer(tx, now=float(index))
        for tx in txs[:6]:
            pool.remove(tx.txid)
        assert len(pool._heap) == 8  # lazy removal left residue
        list(pool.iter_best())
        assert len(pool._heap) == 2  # compacted as a side effect
        pool.check_invariants()


# ----------------------------------------------------------------------
# Satellite (c): boundary semantics (expiry cutoff, eviction floor)
# ----------------------------------------------------------------------
class TestBoundarySemantics:
    def test_entry_exactly_at_expiry_cutoff_survives(self, txf):
        """Bitcoin Core's Expire drops entries with time < cutoff; an
        entry whose age is exactly ``expiry_seconds`` stays."""
        pool = Mempool(min_fee_rate=0.0, expiry_seconds=100.0)
        at_cutoff = txf.tx(fee=1000)
        older = txf.tx(fee=1000)
        pool.offer(older, now=49.999)
        pool.offer(at_cutoff, now=50.0)
        evicted = pool.expire(now=150.0)  # cutoff = 50.0
        assert [e.txid for e in evicted] == [older.txid]
        assert at_cutoff.txid in pool

    def test_eviction_freeing_exactly_needed_is_accepted(self, txf):
        """freed == needed is a fit, not a bounce: the last candidate
        that closes the gap exactly must be enough."""
        pool = Mempool(min_fee_rate=0.0, max_vsize=600)
        cheap = txf.tx(fee=10, vsize=200)  # 0.05 sat/vB
        mid = txf.tx(fee=4000, vsize=400)  # 10 sat/vB
        pool.offer(cheap, now=0.0)
        pool.offer(mid, now=1.0)
        # Incoming 200 vB: needed = 600 + 200 - 600 = 200 == cheap.vsize.
        incoming = txf.tx(fee=2000, vsize=200)  # 10 sat/vB
        result = pool.offer(incoming, now=2.0)
        assert result.accepted
        assert result.replaced == (cheap.txid,)
        assert pool.total_vsize == 600
        pool.check_invariants()

    def test_equal_fee_rate_to_evictee_bounces(self, txf):
        """The incoming transaction must *strictly* out-pay the eviction
        floor; paying exactly the floor rate is a bounce."""
        pool = Mempool(min_fee_rate=0.0, max_vsize=600)
        resident = txf.tx(fee=3000, vsize=300)  # 10 sat/vB
        pool.offer(resident, now=0.0)
        pool.offer(txf.tx(fee=3000, vsize=300), now=1.0)
        same_rate = txf.tx(fee=2500, vsize=250)  # 10 sat/vB exactly
        result = pool.offer(same_rate, now=2.0)
        assert not result.accepted
        assert result.reason == RejectionReason.MEMPOOL_FULL
        assert len(pool) == 2

    def test_infinitesimally_better_rate_evicts(self, txf):
        pool = Mempool(min_fee_rate=0.0, max_vsize=600)
        floor_tx = txf.tx(fee=3000, vsize=300)  # 10 sat/vB
        pool.offer(floor_tx, now=0.0)
        pool.offer(txf.tx(fee=6000, vsize=300), now=1.0)  # 20 sat/vB
        better = txf.tx(fee=2503, vsize=250)  # 10.012 sat/vB
        result = pool.offer(better, now=2.0)
        assert result.accepted
        assert floor_tx.txid in result.replaced


# ----------------------------------------------------------------------
# Meta-tests: the invariant checkers must actually catch bugs
# ----------------------------------------------------------------------
class BuggyMempool(Mempool):
    """Re-introduces the classic accounting bug: ``remove`` forgets to
    decrement the fee total, so ``total_fees`` drifts upward."""

    def remove(self, txid):
        entry = self._entries.pop(txid, None)
        if entry is not None:
            self._total_vsize -= entry.vsize
            # BUG (deliberate): self._total_fees is not decremented.
            for txin in entry.tx.inputs:
                if self._spenders.get(txin.prevout) == txid:
                    del self._spenders[txin.prevout]
        return entry


class TestInvariantChecker:
    def test_checker_catches_fee_accounting_drift(self, txf):
        pool = BuggyMempool(min_fee_rate=0.0)
        tx = txf.tx(fee=1234)
        pool.offer(tx, now=0.0)
        pool.remove(tx.txid)
        with pytest.raises(InvariantViolation, match="total_fees drifted"):
            pool.check_invariants()

    def test_checker_catches_stale_conflict_index(self, txf):
        pool = Mempool(min_fee_rate=0.0)
        tx = txf.tx(fee=1000)
        pool.offer(tx, now=0.0)
        pool._spenders["phantom-outpoint"] = tx.txid
        with pytest.raises(InvariantViolation, match="conflict index"):
            pool.check_invariants()

    def test_checker_catches_heap_unreachable_entry(self, txf):
        pool = Mempool(min_fee_rate=0.0)
        tx = txf.tx(fee=1000)
        pool.offer(tx, now=0.0)
        pool._heap.clear()
        with pytest.raises(InvariantViolation, match="missing from the"):
            pool.check_invariants()

    def test_clean_pool_passes(self, txf):
        pool = Mempool(min_fee_rate=1.0, max_vsize=10_000)
        for index in range(12):
            pool.offer(txf.tx(fee=2000 + index, vsize=250), now=float(index))
        pool.remove_confirmed([e.txid for e in list(pool.iter_best())[:3]])
        pool.expire(now=1e9)
        pool.check_invariants()


class TestEngineBlockStateChecker:
    def _block(self, txs, height=7):
        class _FakeBlock:
            pass

        block = _FakeBlock()
        block.transactions = txs
        block.height = height
        return block

    def test_confirmed_txid_still_pending_raises(self, txf):
        tx = txf.tx()
        with pytest.raises(InvariantViolation, match="still pending"):
            check_engine_block_state(
                pending={tx.txid: tx},
                pending_spenders={},
                committed={tx.txid: 0.0},
                block=self._block([]),
            )

    def test_conflict_index_pointing_nowhere_raises(self, txf):
        tx = txf.tx()
        with pytest.raises(InvariantViolation, match="non-pending"):
            check_engine_block_state(
                pending={},
                pending_spenders={"outpoint": tx.txid},
                committed={},
                block=self._block([]),
            )

    def test_block_tx_left_pending_raises(self, txf):
        tx = txf.tx()
        with pytest.raises(InvariantViolation, match="committed at height"):
            check_engine_block_state(
                pending={tx.txid: tx},
                pending_spenders={},
                committed={},
                block=self._block([tx]),
            )

    def test_consistent_state_passes(self, txf):
        pending_tx = txf.tx()
        mined_tx = txf.tx()
        spenders = {
            txin.prevout: pending_tx.txid for txin in pending_tx.inputs
        }
        check_engine_block_state(
            pending={pending_tx.txid: pending_tx},
            pending_spenders=spenders,
            committed={mined_tx.txid: 0.0},
            block=self._block([mined_tx]),
        )
