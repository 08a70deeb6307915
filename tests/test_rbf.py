"""Tests for replace-by-fee: mempool rules, chain guards, engine races."""

import pytest

from repro.chain.blockchain import Blockchain, ChainValidationError
from repro.chain.transaction import TransactionBuilder
from repro.datasets.records import LABEL_RBF_BUMP, LABEL_RBF_ORIGINAL
from repro.reference.mempool import Mempool, RejectionReason

from conftest import make_test_block


@pytest.fixture
def builder():
    return TransactionBuilder("rbf")


def original_and_bump(builder, fee=200, bump_fee=4000, vsize=200):
    original = builder.build("dest", 10_000, fee=fee, vsize=vsize, nonce=1)
    bump = builder.replacement(original, fee=bump_fee)
    return original, bump


class TestReplacementBuilder:
    def test_same_inputs_new_txid(self, builder):
        original, bump = original_and_bump(builder)
        assert bump.inputs == original.inputs
        assert bump.txid != original.txid
        assert bump.fee > original.fee

    def test_outputs_preserved(self, builder):
        original, bump = original_and_bump(builder)
        assert bump.outputs == original.outputs


class TestMempoolRbf:
    def test_valid_bump_replaces(self, builder):
        pool = Mempool(min_fee_rate=0.0)
        original, bump = original_and_bump(builder)
        pool.offer(original, now=0.0)
        result = pool.offer(bump, now=10.0)
        assert result.accepted
        assert result.replaced == (original.txid,)
        assert original.txid not in pool
        assert bump.txid in pool

    def test_underpaying_bump_rejected(self, builder):
        pool = Mempool(min_fee_rate=0.0)
        original, _ = original_and_bump(builder, fee=1000)
        weak = builder.replacement(original, fee=1000)  # equal fee
        pool.offer(original, now=0.0)
        result = pool.offer(weak, now=10.0)
        assert not result.accepted
        assert result.reason == RejectionReason.INSUFFICIENT_REPLACEMENT
        assert original.txid in pool

    def test_higher_fee_lower_rate_rejected(self, builder):
        # More total fee but a *lower* fee-rate (bigger tx) fails BIP-125.
        pool = Mempool(min_fee_rate=0.0)
        original = builder.build("dest", 10_000, fee=1000, vsize=100, nonce=7)
        bloated = builder.replacement(original, fee=1100, vsize=2000)
        pool.offer(original, now=0.0)
        result = pool.offer(bloated, now=1.0)
        assert not result.accepted

    def test_rbf_disabled(self, builder):
        pool = Mempool(min_fee_rate=0.0, allow_rbf=False)
        original, bump = original_and_bump(builder)
        pool.offer(original, now=0.0)
        assert not pool.offer(bump, now=1.0).accepted

    def test_accounting_after_replacement(self, builder):
        pool = Mempool(min_fee_rate=0.0)
        original, bump = original_and_bump(builder)
        pool.offer(original, now=0.0)
        pool.offer(bump, now=1.0)
        assert pool.total_fees == bump.fee
        assert pool.total_vsize == bump.vsize

    def test_conflicts_of(self, builder):
        pool = Mempool(min_fee_rate=0.0)
        original, bump = original_and_bump(builder)
        pool.offer(original, now=0.0)
        assert pool.conflicts_of(bump) == [original.txid]
        unrelated = builder.build("x", 1, fee=100, vsize=100, nonce=9)
        assert pool.conflicts_of(unrelated) == []

    def test_spender_index_cleared_on_removal(self, builder):
        pool = Mempool(min_fee_rate=0.0)
        original, bump = original_and_bump(builder)
        pool.offer(original, now=0.0)
        pool.remove(original.txid)
        # With the original gone, the bump is no longer a replacement.
        result = pool.offer(bump, now=1.0)
        assert result.accepted
        assert result.replaced == ()


class TestChainDoubleSpendGuard:
    def test_conflicting_commits_rejected(self, builder):
        original, bump = original_and_bump(builder)
        chain = Blockchain()
        chain.append(make_test_block([original], height=0, timestamp=0.0))
        conflicting = make_test_block(
            [bump], height=1, prev_hash=chain.tip_hash, timestamp=1.0
        )
        with pytest.raises(ChainValidationError):
            chain.append(conflicting)

    def test_same_block_double_spend_rejected(self, builder):
        original, bump = original_and_bump(builder)
        block = make_test_block([original, bump], height=0, timestamp=0.0)
        with pytest.raises(ChainValidationError):
            Blockchain([block])

    def test_is_spent(self, builder):
        original, _ = original_and_bump(builder)
        chain = Blockchain()
        chain.append(make_test_block([original], height=0, timestamp=0.0))
        assert chain.is_spent(original.inputs[0].prevout)


class TestEngineRbf:
    @pytest.fixture(scope="class")
    def dataset(self):
        from repro.simulation.scenarios import dataset_b_scenario

        return dataset_b_scenario(seed=99, scale=0.05).run().dataset

    def test_bump_populations_exist(self, dataset):
        assert dataset.labelled_txids(LABEL_RBF_BUMP)
        assert dataset.labelled_txids(LABEL_RBF_ORIGINAL)

    def test_commits_are_mutually_exclusive(self, dataset):
        # An original and its bump spend the same outpoint, so the chain
        # must contain at most one of each pair.  Pair them by inputs.
        bumps = dataset.labelled_txids(LABEL_RBF_BUMP)
        committed_bump_inputs = {
            dataset.chain.transaction(b).inputs
            for b in bumps
            if dataset.tx_records[b].committed
        }
        for original in dataset.labelled_txids(LABEL_RBF_ORIGINAL):
            if not dataset.tx_records[original].committed:
                continue
            tx = dataset.chain.transaction(original)
            assert tx.inputs not in committed_bump_inputs

    def test_every_pair_resolves_exactly_one_way(self, dataset):
        # Each (original, bump) pair either committed one of the two or
        # is still pending; at least some bumps won their race.
        bumps = dataset.labelled_txids(LABEL_RBF_BUMP)
        committed_bumps = sum(
            1 for t in bumps if dataset.tx_records[t].committed
        )
        assert committed_bumps > 0

    def test_committed_bumps_paid_more(self, dataset):
        # Any bump that committed pays a strictly higher fee than its
        # (displaced) original offered.
        originals = {
            dataset.tx_records[t]
            for t in dataset.labelled_txids(LABEL_RBF_ORIGINAL)
        }
        min_orig_rate = min(r.fee_rate for r in originals)
        for txid in dataset.labelled_txids(LABEL_RBF_BUMP):
            record = dataset.tx_records[txid]
            if record.committed:
                assert record.fee_rate > min_orig_rate
