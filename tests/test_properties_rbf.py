"""Property-based tests: RBF conflict handling under random sequences."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.transaction import TransactionBuilder
from repro.reference.mempool import Mempool


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    operations=st.integers(10, 60),
    rbf=st.booleans(),
)
def test_mempool_never_holds_conflicting_transactions(seed, operations, rbf):
    """Whatever the offer sequence, no two pending txs share an outpoint."""
    rng = np.random.default_rng(seed)
    builder = TransactionBuilder(f"prop-rbf-{seed}")
    pool = Mempool(min_fee_rate=0.0, allow_rbf=rbf)
    history = []
    for step in range(operations):
        if history and rng.random() < 0.4:
            # Offer a replacement of an earlier transaction.
            original = history[int(rng.integers(len(history)))]
            tx = builder.replacement(
                original, fee=int(rng.integers(1, 100_000)), nonce=step
            )
        else:
            tx = builder.build(
                "dest",
                1000,
                fee=int(rng.integers(1, 100_000)),
                vsize=int(rng.integers(100, 1000)),
                nonce=step,
            )
            history.append(tx)
        pool.offer(tx, now=float(step))

        # Invariant: pending outpoints are unique.
        seen = set()
        for entry in pool.entries():
            for txin in entry.tx.inputs:
                assert txin.prevout not in seen
                seen.add(txin.prevout)
        # Invariant: accounting still balances.
        assert pool.total_fees == sum(e.tx.fee for e in pool.entries())


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), bumps=st.integers(1, 8))
def test_replacement_chains_keep_best_fee(seed, bumps):
    """Repeated bumping leaves exactly one survivor: the highest valid bid."""
    rng = np.random.default_rng(seed)
    builder = TransactionBuilder(f"prop-chain-{seed}")
    pool = Mempool(min_fee_rate=0.0)
    original = builder.build("dest", 1000, fee=100, vsize=200, nonce=0)
    pool.offer(original, now=0.0)
    best_fee = 100
    for step in range(bumps):
        fee = int(rng.integers(1, 50_000))
        bump = builder.replacement(original, fee=fee, nonce=step + 1)
        result = pool.offer(bump, now=float(step + 1))
        if result.accepted:
            assert fee > best_fee
            best_fee = fee
        else:
            assert fee <= best_fee
    survivors = [
        e for e in pool.entries() if e.tx.inputs == original.inputs
    ]
    assert len(survivors) == 1
    assert survivors[0].tx.fee == best_fee
