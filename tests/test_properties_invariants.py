"""Property tests: random mempool op sequences vs the invariant oracle.

The state machine under test is :class:`Mempool` with every lever
engaged at once — RBF conflicts, a size cap, expiry, confirmation
sweeps, and crash wipes.  The oracle is :meth:`Mempool.check_invariants`
(recompute-and-compare bookkeeping) plus a handful of cross-checks the
checker cannot express, like admission atomicity on rejected offers and
agreement between the two fee-rate orderings.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.chain.transaction import TransactionBuilder
from repro.reference.mempool import Mempool


def _random_op_sequence(pool, builder, rng, operations):
    """Drive ``pool`` through a random op mix, checking after each op."""
    history = []
    for step in range(operations):
        roll = rng.random()
        now = float(step)
        if roll < 0.55 or not history:
            if history and rng.random() < 0.3:
                original = history[int(rng.integers(len(history)))]
                tx = builder.replacement(
                    original,
                    fee=int(rng.integers(1, 50_000)),
                    vsize=int(rng.integers(100, 600)),
                    nonce=step,
                )
            else:
                tx = builder.build(
                    "dest",
                    1000,
                    fee=int(rng.integers(1, 50_000)),
                    vsize=int(rng.integers(100, 600)),
                    nonce=step,
                )
                history.append(tx)
            before = (len(pool), pool.total_vsize, pool.total_fees)
            result = pool.offer(tx, now=now)
            if not result.accepted:
                # Atomicity: a rejected offer leaves the pool untouched.
                assert (
                    len(pool),
                    pool.total_vsize,
                    pool.total_fees,
                ) == before
        elif roll < 0.70:
            live = pool.entries()
            if live:
                victim = live[int(rng.integers(len(live)))]
                pool.remove(victim.txid)
        elif roll < 0.80:
            live = pool.entries()
            take = int(rng.integers(0, len(live) + 1))
            pool.remove_confirmed([e.txid for e in live[:take]])
        elif roll < 0.90:
            pool.expire(now=now + float(rng.integers(0, 2000)))
        else:
            if rng.random() < 0.3:
                pool.clear()
        pool.check_invariants()
    return history


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    operations=st.integers(20, 80),
    max_vsize=st.one_of(st.none(), st.integers(800, 4000)),
    min_fee_rate=st.sampled_from([0.0, 1.0]),
)
def test_random_op_sequences_preserve_invariants(
    seed, operations, max_vsize, min_fee_rate
):
    rng = np.random.default_rng(seed)
    builder = TransactionBuilder(f"prop-inv-{seed}")
    pool = Mempool(
        min_fee_rate=min_fee_rate,
        expiry_seconds=1000.0,
        max_vsize=max_vsize,
    )
    _random_op_sequence(pool, builder, rng, operations)
    pool.check_invariants()
    if max_vsize is not None:
        assert pool.total_vsize <= max_vsize


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), count=st.integers(0, 40))
def test_orderings_agree_under_unique_fee_rates(seed, count):
    """entries_by_fee_rate() and iter_best() are two views of one order.

    With all-distinct fee-rates the tie-breaks never engage, so the two
    must produce exactly the same txid sequence — and produce it again
    on a second pass (iter_best is non-destructive).
    """
    rng = np.random.default_rng(seed)
    builder = TransactionBuilder(f"prop-order-{seed}")
    pool = Mempool(min_fee_rate=0.0)
    rates = rng.permutation(count)  # distinct integers => distinct rates
    for step in range(count):
        vsize = 100
        fee = int((rates[step] + 1) * vsize)  # fee_rate = rates[step] + 1
        pool.offer(
            builder.build("dest", 1000, fee=fee, vsize=vsize, nonce=step),
            now=float(step),
        )
    # Random churn: remove a few, so stale heap residue is in play.
    for victim in list(pool.entries()):
        if rng.random() < 0.25:
            pool.remove(victim.txid)
    sorted_view = [e.txid for e in pool.entries_by_fee_rate()]
    heap_view = [e.txid for e in pool.iter_best()]
    assert heap_view == sorted_view
    assert [e.txid for e in pool.iter_best()] == heap_view
    pool.check_invariants()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), operations=st.integers(10, 50))
def test_conflict_index_tracks_live_entries_exactly(seed, operations):
    """After any op mix, _spenders maps exactly the live inputs."""
    rng = np.random.default_rng(seed)
    builder = TransactionBuilder(f"prop-spenders-{seed}")
    pool = Mempool(min_fee_rate=0.0, expiry_seconds=500.0, max_vsize=3000)
    _random_op_sequence(pool, builder, rng, operations)
    expected = {
        txin.prevout: entry.txid
        for entry in pool.entries()
        for txin in entry.tx.inputs
    }
    assert pool._spenders == expected
