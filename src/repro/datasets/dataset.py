"""The Dataset: one curated measurement campaign.

A :class:`Dataset` bundles everything the paper's analyses join:

* the committed chain (full blocks, ordered transactions),
* the observer's 15-second mempool snapshots,
* the per-transaction metadata rows (arrivals, fees, labels),
* block→pool attribution and the pools' estimated hash shares,
* ground-truth label sets carried over from the workload.

It exposes the derived mappings (commit heights, fee-rates, c-block
labels, …) that the core analyses consume, so experiment code reads as
the paper's method sections do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from ..chain.attribution import estimate_hash_rates, HashRateEstimate
from ..chain.block import Block
from ..chain.blockchain import Blockchain
from ..mempool.ancestry import find_cpfp_txids
from ..mempool.snapshots import SizeSeries, SnapshotStore
from .records import (
    LABEL_ACCELERATED,
    LABEL_MEV_ATTACK,
    LABEL_SCAM,
    LABEL_SELF_INTEREST,
    BlockRecord,
    TxRecord,
)


@dataclass
class Dataset:
    """A joined measurement campaign, analogous to the paper's A/B/C."""

    name: str
    chain: Blockchain
    snapshots: SnapshotStore
    tx_records: dict[str, TxRecord]
    block_pools: dict[int, str]
    pool_wallets: dict[str, frozenset[str]] = field(default_factory=dict)
    size_series: Optional[SizeSeries] = None
    metadata: dict[str, object] = field(default_factory=dict)
    #: Open :class:`~repro.datasets.columnar.ColumnStore` backing this
    #: dataset, when it was loaded from (or saved to) the columnar
    #: format.  The zero-copy ``ChainArrays`` path reads from it; plain
    #: object-graph datasets leave it None and fall back.
    columnar: Optional[object] = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def blocks(self) -> Sequence[Block]:
        return self.chain.blocks()

    @property
    def block_count(self) -> int:
        return len(self.chain)

    @property
    def tx_count(self) -> int:
        """Count of transactions issued (committed or not)."""
        return len(self.tx_records)

    @property
    def snapshot_count(self) -> int:
        return len(self.snapshots)

    def pool_of(self, height: int) -> Optional[str]:
        return self.block_pools.get(height)

    def blocks_of(self, pool: str) -> list[Block]:
        """All blocks attributed to ``pool``."""
        return [
            block
            for block in self.chain
            if self.block_pools.get(block.height) == pool
        ]

    def hash_rates(self) -> list[HashRateEstimate]:
        """Pools' normalized hash rates (θ0) from block shares."""
        return estimate_hash_rates(
            [self.block_pools[h] for h in sorted(self.block_pools)]
        )

    def hash_rate_of(self, pool: str) -> float:
        """θ0 of one pool (0.0 if it mined nothing)."""
        for estimate in self.hash_rates():
            if estimate.pool == pool:
                return estimate.share
        return 0.0

    # ------------------------------------------------------------------
    # Derived mappings for core analyses
    # ------------------------------------------------------------------
    def commit_heights(self) -> dict[str, int]:
        """txid → commit height over committed transactions."""
        return {
            txid: record.commit_height
            for txid, record in self.tx_records.items()
            if record.commit_height is not None
        }

    def fee_rates(self) -> dict[str, float]:
        """txid → fee-rate (sat/vB) over all recorded transactions."""
        return {txid: record.fee_rate for txid, record in self.tx_records.items()}

    def block_times(self) -> np.ndarray:
        """Discovery time of each height, as an array indexed by height."""
        return np.asarray([block.timestamp for block in self.chain], dtype=float)

    def block_tx_counts(self) -> np.ndarray:
        """Non-coinbase transaction count of each height."""
        return np.asarray(
            [block.tx_count for block in self.chain], dtype=np.int64
        )

    def committed_count(self) -> int:
        return sum(1 for r in self.tx_records.values() if r.committed)

    def observed_committed_records(self) -> list[TxRecord]:
        """Rows both seen by the observer and committed — the §4.1 base."""
        return [
            r for r in self.tx_records.values() if r.committed and r.observed
        ]

    def observed_records(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(arrival, commit height, fee-rate) of each observed record.

        Record order; an uncommitted record's height is -1.  The §4.1
        delay and congestion joins read only these three columns.
        """
        records = [r for r in self.tx_records.values() if r.observed]
        return (
            np.asarray([r.observer_arrival for r in records], dtype=float),
            np.asarray(
                [
                    -1 if r.commit_height is None else r.commit_height
                    for r in records
                ],
                dtype=np.int64,
            ),
            np.asarray([r.fee_rate for r in records], dtype=float),
        )

    def cpfp_txids(self) -> frozenset[str]:
        """All in-block CPFP children across the chain (Appendix E)."""
        cpfp: set[str] = set()
        for block in self.chain:
            cpfp.update(find_cpfp_txids(block))
        return frozenset(cpfp)

    def commit_pools(self) -> dict[str, str]:
        """txid → pool that committed it."""
        mapping: dict[str, str] = {}
        for block in self.chain:
            pool = self.block_pools.get(block.height)
            if pool is None:
                continue
            for tx in block.transactions:
                mapping[tx.txid] = pool
        return mapping

    # ------------------------------------------------------------------
    # Labelled transaction sets (ground truth)
    # ------------------------------------------------------------------
    def labelled_txids(self, prefix: str, value: str = "") -> frozenset[str]:
        """Transactions carrying a label (optionally with a value)."""
        return frozenset(
            txid
            for txid, record in self.tx_records.items()
            if record.has_label(prefix, value)
        )

    def self_interest_txids(self, pool: str) -> frozenset[str]:
        """Ground-truth self-interest transactions of ``pool``."""
        return self.labelled_txids(LABEL_SELF_INTEREST, pool)

    def scam_txids(self) -> frozenset[str]:
        return self.labelled_txids(LABEL_SCAM)

    def accelerated_txids(self, service: str = "") -> frozenset[str]:
        return self.labelled_txids(LABEL_ACCELERATED, service)

    def mev_attack_txids(self, campaign: str = "") -> frozenset[str]:
        """The attacker's own sandwich insertions."""
        return self.labelled_txids(LABEL_MEV_ATTACK, campaign)

    def inferred_self_interest_txids(self, pool: str) -> frozenset[str]:
        """Self-interest transactions as the *auditor* infers them (§5.2).

        Uses only public information: transactions paying to, or spending
        from, the pool's known reward wallets.
        """
        wallets = self.pool_wallets.get(pool, frozenset())
        if not wallets:
            return frozenset()
        return frozenset(self.chain.transactions_touching(wallets))

    def inferred_self_interest_txids_indexed(self, pool: str) -> frozenset[str]:
        """Index-backed :meth:`inferred_self_interest_txids`.

        Same set, computed from the chain's one-pass address index
        instead of a full scan per pool; the Table 2 sweep calls this
        once per owner pool.
        """
        wallets = self.pool_wallets.get(pool, frozenset())
        if not wallets:
            return frozenset()
        return self.chain.transactions_touching_indexed(wallets)

    # ------------------------------------------------------------------
    # c-block machinery for the statistical tests
    # ------------------------------------------------------------------
    def c_block_miners(self, txids: Iterable[str]) -> list[str]:
        """Miner label of every block containing ≥1 of ``txids``."""
        heights: set[int] = set()
        for txid in txids:
            record = self.tx_records.get(txid)
            if record is not None and record.commit_height is not None:
                heights.add(record.commit_height)
            elif record is None:
                location = self.chain.location_of(txid)
                if location is not None:
                    heights.add(location.height)
        return [
            self.block_pools[h]
            for h in sorted(heights)
            if h in self.block_pools
        ]

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def block_records(self) -> list[BlockRecord]:
        """Per-block summary rows."""
        from ..chain.constants import block_subsidy

        records = []
        for block in self.chain:
            records.append(
                BlockRecord(
                    height=block.height,
                    block_hash=block.block_hash,
                    timestamp=block.timestamp,
                    pool=self.block_pools.get(block.height, "unknown"),
                    tx_count=block.tx_count,
                    vsize=block.vsize,
                    total_fees=block.total_fees,
                    subsidy=block_subsidy(block.height),
                )
            )
        return records

    def empty_block_count(self) -> int:
        return sum(1 for block in self.chain if block.is_empty)

    def cpfp_fraction(self) -> float:
        """Share of committed transactions that are CPFP children."""
        from ..mempool.ancestry import cpfp_fraction

        return cpfp_fraction(self.chain.blocks())

    def summary(self) -> dict[str, object]:
        """Table 1-style summary of this dataset."""
        return {
            "name": self.name,
            "blocks": self.block_count,
            "transactions_issued": self.tx_count,
            "transactions_committed": self.committed_count(),
            "cpfp_fraction": self.cpfp_fraction(),
            "empty_blocks": self.empty_block_count(),
            "snapshots": self.snapshot_count,
        }
