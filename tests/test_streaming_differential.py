"""Differential test: streamed audits are bit-identical to batch audits.

The acceptance bar for the streaming refactor (ISSUE 6): feed every
block of a dataset through :meth:`StreamingAuditor.fold_block` one at a
time, run the full ``audit()``, and require the report to equal the
batch :class:`Auditor`'s — exactly, not approximately — on datasets A,
B and C at scale 0.2, *including* over a fault-degraded dataset.  This
reuses the PR 3 oracle discipline:
equality is asserted field-by-field via
:func:`tests.oracle.assert_audit_reports_equal` (NaN-tolerant, else
bit-for-bit).
"""

import pytest

from repro.core.audit import Auditor, StreamingAuditor, stream_blocks
from repro.datasets.builder import (
    build_dataset_a,
    build_dataset_b,
    build_dataset_c,
)
from repro.faults import FaultSchedule, degrade_dataset
from tests.oracle import assert_audit_reports_equal

SCALE = 0.2


def stream_to_end(dataset):
    """A StreamingAuditor with every dataset block folded in order."""
    streaming = StreamingAuditor.from_dataset(dataset)
    for _, pool, block in stream_blocks(dataset):
        streaming.fold_block(block, pool)
    return streaming


def assert_stream_equals_batch(dataset):
    streaming = stream_to_end(dataset)
    assert streaming.applied_height == dataset.chain.height
    assert_audit_reports_equal(streaming.audit(), Auditor(dataset).audit())


class TestStreamedAuditEqualsBatch:
    def test_dataset_a(self):
        assert_stream_equals_batch(build_dataset_a(scale=SCALE))

    def test_dataset_b(self):
        assert_stream_equals_batch(build_dataset_b(scale=SCALE))

    def test_dataset_c(self):
        assert_stream_equals_batch(build_dataset_c(scale=SCALE))

    def test_degraded_dataset_a(self):
        """Equality must survive injected faults (gappy observer data)."""
        clean = build_dataset_a(scale=SCALE)
        schedule = FaultSchedule(seed=77, tx_loss_rate=0.15)
        degraded = degrade_dataset(clean, schedule)
        assert Auditor(degraded).quality_report().degraded
        assert_stream_equals_batch(degraded)


class TestStreamingIsIncremental:
    def test_mid_stream_audit_equals_batch_prefix(self, small_dataset_a):
        """Auditing *mid-stream* equals a batch audit of the prefix.

        The service answers queries while blocks are still arriving;
        those answers must be the batch truth of the applied prefix,
        not an artifact of partially-folded state.
        """
        feed = list(stream_blocks(small_dataset_a))
        cut = len(feed) // 2
        streaming = StreamingAuditor.from_dataset(small_dataset_a)
        for _, pool, block in feed[:cut]:
            streaming.fold_block(block, pool)

        prefix = truncate_dataset(small_dataset_a, feed[cut - 1][0])
        assert_audit_reports_equal(streaming.audit(), Auditor(prefix).audit())

        # ...and folding the rest still converges to the full answer.
        for _, pool, block in feed[cut:]:
            streaming.fold_block(block, pool)
        assert_audit_reports_equal(
            streaming.audit(), Auditor(small_dataset_a).audit()
        )


def truncate_dataset(dataset, height):
    """The batch view of ``dataset`` as of chain ``height`` (inclusive)."""
    from dataclasses import replace

    from repro.chain.blockchain import Blockchain
    from repro.datasets.dataset import Dataset

    chain = Blockchain()
    for block in dataset.chain:
        if block.height > height:
            break
        chain.append(block)
    kept = {tx.txid for block in chain for tx in block.transactions}
    records = {
        txid: (
            record
            if record.commit_height is None or txid in kept
            else replace(record, commit_height=None, commit_position=None)
        )
        for txid, record in dataset.tx_records.items()
    }
    return Dataset(
        name=dataset.name,
        chain=chain,
        snapshots=dataset.snapshots,
        tx_records=records,
        block_pools={
            h: p for h, p in dataset.block_pools.items() if h <= height
        },
        pool_wallets=dataset.pool_wallets,
        size_series=dataset.size_series,
        metadata=dataset.metadata,
    )
