"""Unit tests for block-template construction (GBT)."""

import pytest

from repro.mempool.feerate import fee_rate_rank
from repro.mempool.mempool import MempoolEntry
from repro.mining.gbt import (
    TemplateBudgetError,
    ancestor_package_template,
    compare_templates,
    greedy_feerate_template,
    is_topologically_valid,
    repair_topological_order,
    template_revenue,
)
from repro.reference.mempool import Mempool

from conftest import TxFactory


@pytest.fixture
def txf():
    return TxFactory("gbt")


def entries_from(txf, specs):
    """specs: list of (fee, vsize) or (fee, vsize, parents)."""
    entries = []
    for spec in specs:
        fee, vsize = spec[0], spec[1]
        parents = spec[2] if len(spec) > 2 else ()
        entries.append(
            MempoolEntry(
                tx=txf.tx(fee=fee, vsize=vsize, parents=parents),
                arrival_time=float(len(entries)),
            )
        )
    return entries


class TestGreedyTemplate:
    def test_orders_by_fee_rate(self, txf):
        entries = entries_from(txf, [(100, 100), (900, 100), (500, 100)])
        template = greedy_feerate_template(entries)
        rates = [tx.fee_rate for tx in template.transactions]
        assert rates == sorted(rates, reverse=True)

    def test_respects_size_budget(self, txf):
        entries = entries_from(txf, [(1000, 400), (900, 400), (800, 400)])
        template = greedy_feerate_template(entries, max_vsize=900)
        assert template.total_vsize <= 900
        assert len(template) == 2

    def test_skips_oversized_but_continues(self, txf):
        entries = entries_from(txf, [(10_000, 800), (50, 100), (40, 100)])
        template = greedy_feerate_template(entries, max_vsize=850)
        txids = template.txids()
        # The big tx fits; the next one doesn't; the last one does not fit
        # either (850-800=50 < 100) — skip-and-continue semantics.
        assert len(txids) == 1

    def test_reserved_vsize_shrinks_budget(self, txf):
        entries = entries_from(txf, [(1000, 500)])
        template = greedy_feerate_template(entries, max_vsize=600, reserved_vsize=200)
        assert len(template) == 0

    def test_accounting(self, txf):
        entries = entries_from(txf, [(100, 200), (300, 300)])
        template = greedy_feerate_template(entries)
        assert template.total_fee == 400
        assert template.total_vsize == 500

    def test_empty_input(self):
        template = greedy_feerate_template([])
        assert len(template) == 0
        assert template.total_fee == 0


class TestAncestorPackageTemplate:
    def test_child_pulls_parent_in(self, txf):
        parent = txf.tx(fee=10, vsize=200, nonce=1)  # 0.05 sat/vB alone
        child = txf.tx(fee=2000, vsize=100, parents=(parent.txid,), nonce=2)
        filler = txf.tx(fee=300, vsize=300, nonce=3)  # 1 sat/vB
        entries = [
            MempoolEntry(tx=parent, arrival_time=0.0),
            MempoolEntry(tx=child, arrival_time=1.0),
            MempoolEntry(tx=filler, arrival_time=2.0),
        ]
        template = ancestor_package_template(entries, max_vsize=400)
        txids = template.txids()
        # Package rate (2010/300 = 6.7) beats filler (1.0): parent+child win.
        assert txids == [parent.txid, child.txid]

    def test_greedy_would_strand_parent(self, txf):
        parent = txf.tx(fee=10, vsize=200, nonce=1)
        child = txf.tx(fee=2000, vsize=100, parents=(parent.txid,), nonce=2)
        entries = [
            MempoolEntry(tx=parent, arrival_time=0.0),
            MempoolEntry(tx=child, arrival_time=1.0),
        ]
        greedy = greedy_feerate_template(entries, max_vsize=400)
        # Greedy puts the child first — topologically invalid.
        assert not is_topologically_valid(greedy.transactions)

    def test_output_topologically_valid(self, txf):
        a = txf.tx(fee=50, vsize=100, nonce=1)
        b = txf.tx(fee=500, vsize=100, parents=(a.txid,), nonce=2)
        c = txf.tx(fee=700, vsize=100, parents=(b.txid,), nonce=3)
        entries = [MempoolEntry(tx=t, arrival_time=0.0) for t in (c, b, a)]
        template = ancestor_package_template(entries)
        assert is_topologically_valid(template.transactions)
        assert len(template) == 3

    def test_size_budget_respected_for_packages(self, txf):
        parent = txf.tx(fee=10, vsize=300, nonce=1)
        child = txf.tx(fee=5000, vsize=300, parents=(parent.txid,), nonce=2)
        entries = [
            MempoolEntry(tx=parent, arrival_time=0.0),
            MempoolEntry(tx=child, arrival_time=1.0),
        ]
        template = ancestor_package_template(entries, max_vsize=500)
        # The package does not fit as a whole; nothing is committed
        # (the parent alone has negligible rate but also fits... it is
        # selected only via its own score).
        assert child.txid not in template.txids()

    def test_matches_greedy_when_no_dependencies(self, txf):
        entries = entries_from(txf, [(100, 100), (900, 100), (500, 100), (300, 100)])
        package = ancestor_package_template(entries)
        greedy = greedy_feerate_template(entries)
        assert package.txids() == greedy.txids()

    def test_stale_rescore_path(self, txf):
        # Two children share one cheap parent: after the first package
        # commits the parent, the second child's package rate improves.
        parent = txf.tx(fee=10, vsize=100, nonce=1)
        child1 = txf.tx(fee=1000, vsize=100, parents=(parent.txid,), nonce=2)
        child2 = txf.tx(fee=900, vsize=100, parents=(parent.txid,), nonce=3)
        entries = [
            MempoolEntry(tx=parent, arrival_time=0.0),
            MempoolEntry(tx=child1, arrival_time=1.0),
            MempoolEntry(tx=child2, arrival_time=2.0),
        ]
        template = ancestor_package_template(entries)
        assert set(template.txids()) == {parent.txid, child1.txid, child2.txid}
        assert is_topologically_valid(template.transactions)
        assert template.total_fee == 1910


class TestRepairTopologicalOrder:
    def test_noop_on_valid_order(self, txf):
        a = txf.tx(nonce=1)
        b = txf.tx(parents=(a.txid,), nonce=2)
        assert repair_topological_order([a, b]) == [a, b]

    def test_repairs_inversion(self, txf):
        a = txf.tx(nonce=1)
        b = txf.tx(parents=(a.txid,), nonce=2)
        repaired = repair_topological_order([b, a])
        assert repaired == [a, b]

    def test_preserves_unconstrained_order(self, txf):
        txs = [txf.tx(nonce=i) for i in range(5)]
        assert repair_topological_order(txs) == txs

    def test_deep_chain(self, txf):
        a = txf.tx(nonce=1)
        b = txf.tx(parents=(a.txid,), nonce=2)
        c = txf.tx(parents=(b.txid,), nonce=3)
        repaired = repair_topological_order([c, b, a])
        assert is_topologically_valid(repaired)
        assert len(repaired) == 3


class TestTemplateHelpers:
    def test_template_revenue(self, txf):
        entries = entries_from(txf, [(500, 100)])
        template = greedy_feerate_template(entries)
        assert template_revenue(template, subsidy=1000) == 1500

    def test_compare_templates(self, txf):
        rich = greedy_feerate_template(entries_from(txf, [(900, 100)]))
        poor = greedy_feerate_template(entries_from(txf, [(100, 100)]))
        assert compare_templates(rich, poor) is rich
        assert compare_templates(poor, rich) is rich
        assert compare_templates(rich, rich) is None


class TestExactFeeRateOrdering:
    """Float-tie determinism: ranking must follow the exact rationals.

    The adversarial pair below holds two *distinct* fee-rates whose
    float64 quotients collide exactly (the numerator difference falls
    outside the 53-bit mantissa).  Ranking by the float would fall
    through to the arrival/txid tie-break — which is arranged to point
    the wrong way — so these tests fail on any float-keyed builder.
    """

    #: rate 1 + 1e-16: rounds to float64 1.0 exactly.
    RICH = (10**16 + 1, 10**16)
    #: rate exactly 1.
    POOR = (1, 1)

    def test_adversarial_pair_collides_in_float64(self):
        (rich_fee, rich_vsize), (poor_fee, poor_vsize) = self.RICH, self.POOR
        assert rich_fee / rich_vsize == poor_fee / poor_vsize
        assert fee_rate_rank(rich_fee, rich_vsize) > fee_rate_rank(
            poor_fee, poor_vsize
        )

    def test_greedy_orders_float_ties_by_exact_rate(self, txf):
        # The truly-poorer transaction arrives first, so an arrival
        # tie-break would select it first; exact ranking must not.
        entries = entries_from(txf, [self.POOR, self.RICH])
        template = greedy_feerate_template(entries, max_vsize=2 * 10**16)
        assert template.txids() == [entries[1].txid, entries[0].txid]

    def test_ancestor_orders_float_ties_by_exact_rate(self, txf):
        entries = entries_from(txf, [self.POOR, self.RICH])
        template = ancestor_package_template(entries, max_vsize=2 * 10**16)
        assert template.txids() == [entries[1].txid, entries[0].txid]

    def test_package_score_float_tie_uses_exact_rate(self, txf):
        # The CPFP package (parent + child) sums to the RICH rational;
        # its float score ties with the earlier-arrived single.
        poor, parent = entries_from(txf, [self.POOR, (1, 10**16 - 1)])
        child = MempoolEntry(
            tx=txf.tx(fee=10**16, vsize=1, parents=(parent.txid,)),
            arrival_time=2.0,
        )
        template = ancestor_package_template(
            [poor, parent, child], max_vsize=2 * 10**16
        )
        assert template.txids() == [parent.txid, child.txid, poor.txid]

    def test_eviction_planner_float_tie_evicts_exact_cheapest(self, txf):
        # Same colliding pair in a full mempool: the planner must evict
        # the exactly-cheaper entry, not the arrival-tie loser.
        mempool = Mempool(min_fee_rate=0.0, max_vsize=10**16 + 1)
        poor = txf.tx(fee=1, vsize=1)
        rich = txf.tx(fee=10**16 + 1, vsize=10**16)
        assert mempool.offer(poor, now=0.0).accepted
        assert mempool.offer(rich, now=1.0).accepted
        incoming = txf.tx(fee=10**10, vsize=1)
        assert mempool.offer(incoming, now=2.0).accepted
        assert poor.txid not in mempool
        assert rich.txid in mempool
        assert incoming.txid in mempool


class TestTemplateBudgetGuard:
    """reserved_vsize > max_vsize must raise, not fill a negative budget."""

    def test_greedy_rejects_reserved_above_max(self, txf):
        entries = entries_from(txf, [(500, 100)])
        with pytest.raises(TemplateBudgetError):
            greedy_feerate_template(entries, max_vsize=100, reserved_vsize=101)

    def test_ancestor_rejects_reserved_above_max(self, txf):
        entries = entries_from(txf, [(500, 100)])
        with pytest.raises(TemplateBudgetError):
            ancestor_package_template(entries, max_vsize=100, reserved_vsize=101)

    def test_budget_error_is_a_value_error(self):
        assert issubclass(TemplateBudgetError, ValueError)

    def test_zero_budget_is_legal_and_empty(self, txf):
        entries = entries_from(txf, [(500, 100)])
        for builder in (greedy_feerate_template, ancestor_package_template):
            template = builder(entries, max_vsize=100, reserved_vsize=100)
            assert template.txids() == []
            assert template.total_vsize == 0
            assert template.total_fee == 0

    def test_exact_fit_boundary(self, txf):
        entries = entries_from(txf, [(500, 500)])
        for builder in (greedy_feerate_template, ancestor_package_template):
            template = builder(entries, max_vsize=700, reserved_vsize=200)
            assert template.txids() == [entries[0].txid]
            assert template.total_vsize == 500

    def test_one_vbyte_over_budget_is_skipped(self, txf):
        entries = entries_from(txf, [(500, 501)])
        for builder in (greedy_feerate_template, ancestor_package_template):
            template = builder(entries, max_vsize=700, reserved_vsize=200)
            assert template.txids() == []
