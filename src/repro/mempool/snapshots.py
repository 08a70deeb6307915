"""Periodic mempool snapshots — the paper's primary measurement output.

Datasets A and B are sequences of mempool snapshots taken every 15
seconds by an observer full node.  Each snapshot records, per pending
transaction, the tuple the audit consumes: (txid, arrival time at the
observer, fee, vsize).  This module provides the snapshot record and a
store with the query operations used by the congestion and violation
analyses; the engine writes them when it reconstructs an observer's
mempool.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from ..chain.constants import MAX_BLOCK_VSIZE


@dataclass(frozen=True)
class SnapshotTx:
    """A pending transaction as seen in one snapshot."""

    txid: str
    arrival_time: float
    fee: int
    vsize: int

    @property
    def fee_rate(self) -> float:
        return self.fee / self.vsize


class SnapshotTxInterner:
    """Decodes snapshot rows, one shared :class:`SnapshotTx` per distinct row.

    A pending transaction appears in every 15-second snapshot until it
    is mined, so a stored dataset repeats the same row many times (C at
    scale 0.1: 160k rows, 21k distinct).  ``SnapshotTx`` is frozen, so
    every snapshot holding a row can share one object.

    The key keeps apart rows that compare equal but serialize
    differently — ``5`` vs ``5.0``, ``0.0`` vs ``-0.0`` — so an interned
    dataset still writes byte-identical interchange JSON.
    """

    __slots__ = ("_rows",)

    def __init__(self) -> None:
        self._rows: dict[tuple, SnapshotTx] = {}

    def txs(self, rows: Iterable[Sequence]) -> tuple[SnapshotTx, ...]:
        """One interned ``SnapshotTx`` per (txid, arrival, fee, vsize) row."""
        interned = self._rows
        txs = []
        for txid, arrival, fee, vsize in rows:
            key = (
                txid,
                arrival,
                fee,
                vsize,
                type(arrival),
                type(fee),
                type(vsize),
                arrival == 0 and repr(arrival),  # the sign of a zero
            )
            tx = interned.get(key)
            if tx is None:
                tx = interned[key] = SnapshotTx(txid, arrival, fee, vsize)
            txs.append(tx)
        return tuple(txs)


@dataclass(frozen=True)
class MempoolSnapshot:
    """State of an observer's mempool at one instant."""

    time: float
    txs: tuple[SnapshotTx, ...]

    @property
    def tx_count(self) -> int:
        return len(self.txs)

    @property
    def total_vsize(self) -> int:
        """Aggregate pending vsize; >1 MB means the mempool is congested."""
        return sum(tx.vsize for tx in self.txs)

    @property
    def is_congested(self) -> bool:
        """True when pending transactions exceed one block's capacity."""
        return self.total_vsize > MAX_BLOCK_VSIZE

    def txids(self) -> frozenset[str]:
        return frozenset(tx.txid for tx in self.txs)


#: Bin labels in ascending congestion order, as defined in §4.1.2.
CONGESTION_BINS = ("<=1MB", "(1,2]MB", "(2,4]MB", ">4MB")


def congestion_bin(total_vsize: int) -> str:
    """Classify a mempool size into the paper's congestion bins."""
    mb = 1_000_000
    if total_vsize <= mb:
        return CONGESTION_BINS[0]
    if total_vsize <= 2 * mb:
        return CONGESTION_BINS[1]
    if total_vsize <= 4 * mb:
        return CONGESTION_BINS[2]
    return CONGESTION_BINS[3]


class SnapshotStore:
    """Time-indexed collection of snapshots with analysis queries."""

    def __init__(self, snapshots: Iterable[MempoolSnapshot]) -> None:
        self._snapshots = sorted(snapshots, key=lambda s: s.time)
        self._times = [s.time for s in self._snapshots]

    def __len__(self) -> int:
        return len(self._snapshots)

    def __iter__(self) -> Iterator[MempoolSnapshot]:
        return iter(self._snapshots)

    def __getitem__(self, index: int) -> MempoolSnapshot:
        return self._snapshots[index]

    @property
    def times(self) -> list[float]:
        return list(self._times)

    def at_or_before(self, time: float) -> Optional[MempoolSnapshot]:
        """Most recent snapshot taken at or before ``time``."""
        index = bisect.bisect_right(self._times, time) - 1
        if index < 0:
            return None
        return self._snapshots[index]

    def sizes(self) -> list[int]:
        """Per-snapshot total pending vsize (Fig 3b/3c, Fig 9 series)."""
        return [snapshot.total_vsize for snapshot in self._snapshots]

    def congested_fraction(self) -> float:
        """Fraction of snapshots whose mempool exceeds 1 MB.

        The paper reports ~75% for dataset A and ~92% for dataset B.
        """
        if not self._snapshots:
            return 0.0
        congested = sum(1 for s in self._snapshots if s.is_congested)
        return congested / len(self._snapshots)

    def sample(self, count: int, rng) -> list[MempoolSnapshot]:
        """Sample ``count`` snapshots uniformly at random without replacement.

        §4.2.1 samples 30 snapshots this way for the violation analysis.
        ``rng`` is a :class:`numpy.random.Generator`.
        """
        if count >= len(self._snapshots):
            return list(self._snapshots)
        indexes = rng.choice(len(self._snapshots), size=count, replace=False)
        return [self._snapshots[i] for i in sorted(indexes)]

    def first_seen(self) -> dict[str, float]:
        """Earliest snapshot time at which each txid was observed pending.

        This is observer-visibility time — the timestamp of the first
        snapshot containing the transaction — not the transaction's own
        mempool ``arrival_time``, which can precede it by most of a
        snapshot interval.  The violation analysis compares what the
        auditor could actually have seen, so snapshot time is the
        correct semantics.
        """
        seen: dict[str, float] = {}
        for snapshot in self._snapshots:
            for tx in snapshot.txs:
                if tx.txid not in seen:
                    seen[tx.txid] = snapshot.time
        return seen


def merge_stores(stores: Sequence[SnapshotStore]) -> SnapshotStore:
    """Merge several stores into one time-ordered store."""
    merged: list[MempoolSnapshot] = []
    for store in stores:
        merged.extend(store)
    return SnapshotStore(merged)


class SizeSeries:
    """Lightweight per-tick mempool size series.

    Full snapshots carry every pending transaction and are expensive to
    materialise at a 15-second cadence over weeks of simulated time; the
    congestion analyses (Fig 3b/3c, Fig 4c, Fig 9, Fig 11) only need the
    aggregate pending vsize per tick.  ``SizeSeries`` stores exactly
    that, with the same query surface :class:`SnapshotStore` offers for
    sizes, so analysis code accepts either.
    """

    def __init__(
        self,
        times: Sequence[float],
        vsizes: Sequence[int],
        tx_counts: Optional[Sequence[int]] = None,
    ) -> None:
        self._times = [float(t) for t in times]
        self._vsizes = [int(v) for v in vsizes]
        if len(self._times) != len(self._vsizes):
            raise ValueError("times and vsizes must align")
        if any(b < a for a, b in zip(self._times, self._times[1:])):
            raise ValueError("times must be non-decreasing")
        self._tx_counts = (
            [int(c) for c in tx_counts] if tx_counts is not None else None
        )
        if self._tx_counts is not None and len(self._tx_counts) != len(self._times):
            raise ValueError("tx_counts must align with times")

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> list[float]:
        return list(self._times)

    def sizes(self) -> list[int]:
        return list(self._vsizes)

    def tx_counts(self) -> Optional[list[int]]:
        return list(self._tx_counts) if self._tx_counts is not None else None

    def size_at_or_before(self, time: float) -> Optional[int]:
        """Pending vsize at the last tick at or before ``time``."""
        index = bisect.bisect_right(self._times, time) - 1
        if index < 0:
            return None
        return self._vsizes[index]

    def congested_fraction(self, threshold_vsize: int = MAX_BLOCK_VSIZE) -> float:
        """Fraction of ticks with pending vsize above ``threshold_vsize``."""
        if not self._vsizes:
            return 0.0
        congested = sum(1 for size in self._vsizes if size > threshold_vsize)
        return congested / len(self._vsizes)
