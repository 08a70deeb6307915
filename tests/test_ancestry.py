"""Unit tests for ancestry tracking and CPFP detection."""

import pytest

from repro.mempool.ancestry import (
    AncestryIndex,
    cpfp_fraction,
    cpfp_involved_txids,
    dependency_closure,
    find_cpfp_parent_txids,
    find_cpfp_txids,
)

from conftest import TxFactory, make_test_block
from oracle import children_of_by_scan


@pytest.fixture
def txf():
    return TxFactory("ancestry")


def chain_of_three(txf):
    a = txf.tx(nonce=1)
    b = txf.tx(parents=(a.txid,), nonce=2)
    c = txf.tx(parents=(b.txid,), nonce=3)
    return a, b, c


class TestAncestryIndex:
    def test_parents_and_children(self, txf):
        a, b, c = chain_of_three(txf)
        index = AncestryIndex([a, b, c])
        assert index.parents_of(b.txid) == {a.txid}
        assert index.children_of(a.txid) == {b.txid}
        assert index.parents_of(a.txid) == frozenset()

    def test_out_of_set_parents_ignored(self, txf):
        orphan = txf.tx(parents=("ff" * 32,), nonce=9)
        index = AncestryIndex([orphan])
        assert index.parents_of(orphan.txid) == frozenset()

    def test_transitive_ancestors(self, txf):
        a, b, c = chain_of_three(txf)
        index = AncestryIndex([a, b, c])
        assert index.ancestors_of(c.txid) == {a.txid, b.txid}
        assert index.descendants_of(a.txid) == {b.txid, c.txid}

    def test_remove_breaks_links(self, txf):
        a, b, c = chain_of_three(txf)
        index = AncestryIndex([a, b, c])
        index.remove(b.txid)
        assert index.ancestors_of(c.txid) == frozenset()

    def test_package_stats(self, txf):
        a = txf.tx(fee=100, vsize=200, nonce=1)
        b = txf.tx(fee=900, vsize=100, parents=(a.txid,), nonce=2)
        index = AncestryIndex([a, b])
        stats = index.package_stats(b.txid)
        assert stats.package_fee == 1000
        assert stats.package_vsize == 300
        assert stats.package_fee_rate == pytest.approx(1000 / 300)
        assert stats.ancestor_count == 1

    def test_singleton_package(self, txf):
        tx = txf.tx(fee=100, vsize=200)
        index = AncestryIndex([tx])
        stats = index.package_stats(tx.txid)
        assert stats.package_fee == 100
        assert stats.ancestor_count == 0

    def test_topological_order(self, txf):
        a, b, c = chain_of_three(txf)
        index = AncestryIndex([c, b, a])  # insertion order reversed
        ordered = [tx.txid for tx in index.topological_order()]
        assert ordered.index(a.txid) < ordered.index(b.txid) < ordered.index(c.txid)

    def test_contains_and_len(self, txf):
        a, b, _ = chain_of_three(txf)
        index = AncestryIndex([a, b])
        assert a.txid in index
        assert len(index) == 2


class TestCpfpDetection:
    def test_child_in_same_block_is_cpfp(self, txf):
        parent = txf.tx(nonce=1)
        child = txf.tx(parents=(parent.txid,), nonce=2)
        block = make_test_block([parent, child])
        assert find_cpfp_txids(block) == {child.txid}
        assert find_cpfp_parent_txids(block) == {parent.txid}
        assert cpfp_involved_txids(block) == {parent.txid, child.txid}

    def test_child_in_later_block_is_not_cpfp(self, txf):
        parent = txf.tx(nonce=1)
        child = txf.tx(parents=(parent.txid,), nonce=2)
        block = make_test_block([child])  # parent committed earlier
        assert find_cpfp_txids(block) == frozenset()

    def test_grandchild_chain_all_marked(self, txf):
        a, b, c = chain_of_three(txf)
        block = make_test_block([a, b, c])
        assert find_cpfp_txids(block) == {b.txid, c.txid}
        assert find_cpfp_parent_txids(block) == {a.txid, b.txid}

    def test_cpfp_fraction(self, txf):
        parent = txf.tx(nonce=1)
        child = txf.tx(parents=(parent.txid,), nonce=2)
        loner = txf.tx(nonce=3)
        block1 = make_test_block([parent, child], height=0)
        block2 = make_test_block([loner], height=1)
        assert cpfp_fraction([block1, block2]) == pytest.approx(1 / 3)

    def test_cpfp_fraction_empty(self):
        assert cpfp_fraction([]) == 0.0

    def test_dependency_closure(self, txf):
        a, b, c = chain_of_three(txf)
        txs = {tx.txid: tx for tx in (a, b, c)}
        assert dependency_closure(txs, c.txid) == {a.txid, b.txid}
        assert dependency_closure(txs, a.txid) == frozenset()


# ----------------------------------------------------------------------
# Property: incremental reverse index ≡ O(n) scan
# ----------------------------------------------------------------------
from hypothesis import given, settings, strategies as st


@st.composite
def add_remove_script(draw):
    """A script of add/remove ops over txs with random parent links.

    Each added tx draws parents from the txs created before it (tracked
    or not — out-of-set parents must never surface as children edges),
    and removals target any previously created txid, present or not.
    """
    op_count = draw(st.integers(min_value=1, max_value=24))
    ops = []
    created = 0
    for _ in range(op_count):
        if created and draw(st.booleans()):
            ops.append(("remove", draw(st.integers(0, created - 1))))
        else:
            parent_pool = list(range(created))
            parents = draw(
                st.lists(
                    st.sampled_from(parent_pool), unique=True, max_size=3
                )
                if parent_pool
                else st.just([])
            )
            ops.append(("add", parents))
            created += 1
    return ops


class TestChildrenIndexProperty:
    @given(script=add_remove_script())
    @settings(max_examples=60, deadline=None)
    def test_children_of_matches_scan_oracle(self, script):
        factory = TxFactory("children-prop")
        index = AncestryIndex()
        txs = []
        for op, arg in script:
            if op == "add":
                tx = factory.tx(parents=tuple(txs[i].txid for i in arg))
                txs.append(tx)
                index.add(tx)
            else:
                index.remove(txs[arg].txid)
            for tx in txs:
                assert index.children_of(tx.txid) == children_of_by_scan(
                    index, tx.txid
                ), f"reverse index diverged after {op}"

    def test_remove_then_readd_restores_children(self, txf):
        a, b, c = chain_of_three(txf)
        index = AncestryIndex([a, b, c])
        index.remove(b.txid)
        assert index.children_of(a.txid) == frozenset()
        index.add(b)
        assert index.children_of(a.txid) == {b.txid}
        assert index.children_of(b.txid) == {c.txid}
