"""Property-based tests: mempool invariants and template construction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mempool.mempool import MempoolEntry
from repro.mining.gbt import (
    ancestor_package_template,
    greedy_feerate_template,
    is_topologically_valid,
    repair_topological_order,
)
from repro.reference.mempool import Mempool

from conftest import TxFactory


# ----------------------------------------------------------------------
# Mempool under random operation sequences
# ----------------------------------------------------------------------
ops = st.lists(
    st.tuples(
        st.sampled_from(["offer", "remove", "expire"]),
        st.integers(min_value=0, max_value=30),
    ),
    max_size=60,
)


@given(operations=ops, min_fee_rate=st.floats(min_value=0.0, max_value=5.0))
def test_mempool_accounting_invariants(operations, min_fee_rate):
    txf = TxFactory("prop-mempool")
    pool = Mempool(min_fee_rate=min_fee_rate, expiry_seconds=100.0)
    known = []
    now = 0.0
    for op, arg in operations:
        now += 1.0
        if op == "offer":
            tx = txf.tx(fee=arg * 100, vsize=100 + arg)
            known.append(tx)
            pool.offer(tx, now)
        elif op == "remove" and known:
            pool.remove(known[arg % len(known)].txid)
        elif op == "expire":
            pool.expire(now)
        # Invariants hold after every operation.
        entries = pool.entries()
        assert pool.total_vsize == sum(e.vsize for e in entries)
        assert pool.total_fees == sum(e.tx.fee for e in entries)
        assert len(pool) == len(entries)
        assert all(e.fee_rate >= min_fee_rate for e in entries)


@given(fees=st.lists(st.integers(min_value=0, max_value=100_000), min_size=1, max_size=40))
def test_entries_by_fee_rate_is_sorted_permutation(fees):
    txf = TxFactory("prop-order")
    pool = Mempool(min_fee_rate=0.0)
    for index, fee in enumerate(fees):
        pool.offer(txf.tx(fee=fee, vsize=100), now=float(index))
    ordered = pool.entries_by_fee_rate()
    rates = [e.fee_rate for e in ordered]
    assert rates == sorted(rates, reverse=True)
    assert len(ordered) == len(fees)


# ----------------------------------------------------------------------
# Template construction
# ----------------------------------------------------------------------
def random_entries(seed, count, chain_probability=0.3):
    txf = TxFactory(f"prop-gbt-{seed}")
    rng = np.random.default_rng(seed)
    entries = []
    for index in range(count):
        parents = ()
        if entries and rng.random() < chain_probability:
            parent = entries[int(rng.integers(len(entries)))]
            parents = (parent.tx.txid,)
        tx = txf.tx(
            fee=int(rng.integers(1, 100_000)),
            vsize=int(rng.integers(100, 2000)),
            parents=parents,
        )
        entries.append(MempoolEntry(tx=tx, arrival_time=float(index)))
    return entries


@settings(max_examples=40)
@given(seed=st.integers(min_value=0, max_value=10_000), count=st.integers(min_value=1, max_value=40))
def test_package_template_invariants(seed, count):
    entries = random_entries(seed, count)
    budget = 20_000
    template = ancestor_package_template(entries, max_vsize=budget)
    assert template.total_vsize <= budget
    assert is_topologically_valid(template.transactions)
    txids = template.txids()
    assert len(txids) == len(set(txids))
    assert template.total_fee == sum(t.fee for t in template.transactions)
    assert template.total_vsize == sum(t.vsize for t in template.transactions)


@settings(max_examples=40)
@given(seed=st.integers(min_value=0, max_value=10_000), count=st.integers(min_value=1, max_value=40))
def test_greedy_template_invariants(seed, count):
    entries = random_entries(seed, count, chain_probability=0.0)
    budget = 15_000
    template = greedy_feerate_template(entries, max_vsize=budget)
    assert template.total_vsize <= budget
    rates = [t.fee_rate for t in template.transactions]
    assert rates == sorted(rates, reverse=True)


@settings(max_examples=40)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_package_never_collects_less_fee_than_greedy_when_independent(seed):
    # Without dependencies the two selectors agree on the committed set.
    entries = random_entries(seed, 25, chain_probability=0.0)
    budget = 10_000
    greedy = greedy_feerate_template(entries, max_vsize=budget)
    package = ancestor_package_template(entries, max_vsize=budget)
    assert set(package.txids()) == set(greedy.txids())


@settings(max_examples=40)
@given(seed=st.integers(min_value=0, max_value=10_000), count=st.integers(min_value=1, max_value=30))
def test_repair_is_idempotent_and_complete(seed, count):
    entries = random_entries(seed, count)
    txs = [e.tx for e in entries]
    rng = np.random.default_rng(seed)
    shuffled = [txs[i] for i in rng.permutation(len(txs))]
    repaired = repair_topological_order(shuffled)
    assert sorted(t.txid for t in repaired) == sorted(t.txid for t in shuffled)
    assert is_topologically_valid(repaired)
    assert repair_topological_order(repaired) == repaired
