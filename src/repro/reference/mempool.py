"""The stateful mempool of the evented reference substrate.

The mempool is where the paper's three norms act: norm III filters what
enters (minimum fee-rate), norms I and II govern how miners drain it.
Each :class:`~repro.reference.node.FullNode` keeps one, admitting,
replacing (RBF) and evicting :class:`~repro.mempool.mempool.MempoolEntry`
objects, and an observer node records its 15-second snapshots with a
:class:`SnapshotRecorder`.  Production datasets never run this code:
the engine reconstructs observer mempools analytically.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .. import obs
from ..chain.constants import DEFAULT_MIN_RELAY_FEE_RATE
from ..chain.transaction import Transaction
from ..mempool.feerate import fee_rate_rank
from ..mempool.mempool import MempoolEntry
from ..mempool.snapshots import MempoolSnapshot, SnapshotStore, SnapshotTx
from ..obs.invariants import InvariantViolation, invariants_enabled


def fee_rate_exceeds(fee_a: int, vsize_a: int, fee_b: int, vsize_b: int) -> bool:
    """``fee_a/vsize_a > fee_b/vsize_b``, by integer cross-multiplication."""
    return fee_a * vsize_b > fee_b * vsize_a


def fee_rate_at_least(fee_a: int, vsize_a: int, fee_b: int, vsize_b: int) -> bool:
    """``fee_a/vsize_a >= fee_b/vsize_b``, by integer cross-multiplication."""
    return fee_a * vsize_b >= fee_b * vsize_a


class RejectionReason:
    """Why a transaction was refused admission."""

    BELOW_MIN_FEE_RATE = "below-min-fee-rate"
    ALREADY_PRESENT = "already-present"
    ALREADY_CONFIRMED = "already-confirmed"
    EXPIRED = "expired"
    #: Conflicts with a pending transaction and fails the RBF rules.
    INSUFFICIENT_REPLACEMENT = "insufficient-replacement"
    #: Pool is full and the transaction pays less than the eviction floor.
    MEMPOOL_FULL = "mempool-full"


@dataclass(frozen=True)
class AdmissionResult:
    """Outcome of offering a transaction to the mempool."""

    accepted: bool
    reason: Optional[str] = None
    #: Txids evicted by an accepted replace-by-fee transaction.
    replaced: tuple[str, ...] = ()


class Mempool:
    """Fee-rate aware unconfirmed-transaction pool.

    Parameters
    ----------
    min_fee_rate:
        Norm III threshold in sat/vB.  The paper's dataset-A node used
        the default (1 sat/vB); its dataset-B node was configured with 0
        to accept even zero-fee transactions.
    expiry_seconds:
        Entries older than this are dropped on :meth:`expire` (Bitcoin
        Core defaults to 14 days).
    """

    def __init__(
        self,
        min_fee_rate: float = DEFAULT_MIN_RELAY_FEE_RATE,
        expiry_seconds: float = 14 * 24 * 3600.0,
        allow_rbf: bool = True,
        max_vsize: Optional[int] = None,
    ) -> None:
        if min_fee_rate < 0:
            raise ValueError("min_fee_rate must be non-negative")
        if max_vsize is not None and max_vsize <= 0:
            raise ValueError("max_vsize must be positive when set")
        self.min_fee_rate = min_fee_rate
        self.expiry_seconds = expiry_seconds
        self.allow_rbf = allow_rbf
        #: Size cap in vbytes (Bitcoin Core's ``maxmempool``); when the
        #: pool overflows, the lowest fee-rate entries are evicted and
        #: an incoming transaction cheaper than what it would displace
        #: is rejected outright.
        self.max_vsize = max_vsize
        self._entries: dict[str, MempoolEntry] = {}
        self._total_vsize = 0
        self._total_fees = 0
        # Lazy max-heap over (-fee_rate, seq); stale items are skipped on pop.
        self._heap: list[tuple[float, int, str]] = []
        self._seq = itertools.count()
        self._rejections: dict[str, int] = {}
        # Outpoint -> spending txid, for conflict (double-spend) detection.
        self._spenders: dict[object, str] = {}
        # Mutations since the last (throttled) invariant check.
        self._ops_since_check = 0

    # ------------------------------------------------------------------
    # Admission / removal
    # ------------------------------------------------------------------
    def conflicts_of(self, tx: Transaction) -> list[str]:
        """Pending txids spending any of ``tx``'s inputs."""
        conflicting: list[str] = []
        for txin in tx.inputs:
            spender = self._spenders.get(txin.prevout)
            if spender is not None and spender != tx.txid:
                conflicting.append(spender)
        return conflicting

    def _rbf_acceptable(self, tx: Transaction, conflicts: list[str]) -> bool:
        """Simplified BIP-125: pay more total fee AND a higher fee-rate.

        The rate comparison is exact (integer cross-multiplication, see
        :func:`fee_rate_exceeds`) so a replacement race cannot hinge
        on float rounding of near-tie fee-rates.
        """
        if not self.allow_rbf:
            return False
        displaced_fee = sum(self._entries[c].tx.fee for c in conflicts)
        if tx.fee <= displaced_fee:
            return False
        return all(
            fee_rate_exceeds(
                tx.fee, tx.vsize, self._entries[c].tx.fee, self._entries[c].vsize
            )
            for c in conflicts
        )

    def offer(self, tx: Transaction, now: float) -> AdmissionResult:
        """Apply admission policy and insert ``tx`` if it passes.

        A transaction conflicting with pending ones (spending the same
        outpoint) is admitted only under the replace-by-fee rules —
        strictly more total fee and a strictly higher fee-rate than
        what it displaces — in which case the conflicts are evicted and
        reported in the result.

        Admission is atomic: conflict evictions and size-cap evictions
        are *planned* first and applied only once acceptance is certain,
        so a rejected offer (e.g. ``MEMPOOL_FULL``) leaves the pool —
        including the would-be-displaced transactions — untouched.
        """
        try:
            if tx.txid in self._entries:
                return self._reject(RejectionReason.ALREADY_PRESENT)
            if tx.fee_rate < self.min_fee_rate:
                return self._reject(RejectionReason.BELOW_MIN_FEE_RATE)
            conflicts = self.conflicts_of(tx)
            if conflicts and not self._rbf_acceptable(tx, conflicts):
                return self._reject(RejectionReason.INSUFFICIENT_REPLACEMENT)
            evicted = self._plan_evictions(tx, exclude=frozenset(conflicts))
            if evicted is None:
                return self._reject(RejectionReason.MEMPOOL_FULL)
            # Acceptance is certain: commit the staged removals.
            for txid in conflicts:
                self.remove(txid)
            for txid in evicted:
                self.remove(txid)
            entry = MempoolEntry(tx=tx, arrival_time=now)
            self._entries[tx.txid] = entry
            self._total_vsize += tx.vsize
            self._total_fees += tx.fee
            for txin in tx.inputs:
                self._spenders[txin.prevout] = tx.txid
            heapq.heappush(self._heap, (-tx.fee_rate, next(self._seq), tx.txid))
            obs.counter("mempool.offer.accepted")
            if conflicts:
                obs.counter("mempool.rbf_replacements", len(conflicts))
            if evicted:
                obs.counter("mempool.evictions", len(evicted))
            obs.gauge_max("mempool.peak_vsize", self._total_vsize)
            return AdmissionResult(
                accepted=True, replaced=tuple(conflicts) + tuple(evicted)
            )
        finally:
            self._maybe_check_invariants()

    def _plan_evictions(
        self, tx: Transaction, exclude: frozenset[str] = frozenset()
    ) -> Optional[list[str]]:
        """Cheapest-first eviction plan admitting ``tx``; None = bounce.

        Pure planner: nothing is removed here.  ``exclude`` holds RBF
        conflicts already destined for eviction — their vsize counts as
        freed, and they are not eviction candidates themselves.  The
        incoming transaction must *strictly* out-pay everything the plan
        displaces; a transaction at or below the eviction floor bounces,
        as in Bitcoin Core's full-mempool behaviour.
        """
        if self.max_vsize is None:
            return []
        freed_by_conflicts = sum(self._entries[t].vsize for t in exclude)
        needed = (
            self._total_vsize - freed_by_conflicts + tx.vsize - self.max_vsize
        )
        if needed <= 0:
            return []
        cheapest_first = sorted(
            (e for e in self._entries.values() if e.txid not in exclude),
            key=lambda e: (fee_rate_rank(e.tx.fee, e.vsize), -e.arrival_time),
        )
        evicted: list[str] = []
        freed = 0
        for entry in cheapest_first:
            if freed >= needed:
                break
            if fee_rate_at_least(entry.tx.fee, entry.vsize, tx.fee, tx.vsize):
                return None  # would displace better-paying traffic
            evicted.append(entry.txid)
            freed += entry.vsize
        if freed < needed:
            return None
        return evicted

    def _reject(self, reason: str) -> AdmissionResult:
        self._rejections[reason] = self._rejections.get(reason, 0) + 1
        obs.counter(f"mempool.offer.rejected.{reason}")
        return AdmissionResult(accepted=False, reason=reason)

    def remove(self, txid: str) -> Optional[MempoolEntry]:
        """Remove and return an entry (no-op if absent).

        Stale heap residue is tolerated: pops skip entries no longer in
        the live map, which keeps removal O(1).
        """
        entry = self._entries.pop(txid, None)
        if entry is not None:
            self._total_vsize -= entry.vsize
            self._total_fees -= entry.tx.fee
            for txin in entry.tx.inputs:
                if self._spenders.get(txin.prevout) == txid:
                    del self._spenders[txin.prevout]
            obs.counter("mempool.removed")
            self._maybe_check_invariants()
        return entry

    def remove_confirmed(self, txids: Iterable[str]) -> int:
        """Drop all entries committed by a newly seen block."""
        removed = 0
        for txid in txids:
            if self.remove(txid) is not None:
                removed += 1
        if removed:
            obs.counter("mempool.confirmed_removed", removed)
        return removed

    def clear(self) -> int:
        """Drop every entry — a node crash/restart wipes the mempool.

        Rejection counters survive (they model operator-visible logs);
        everything held in memory is gone.  Returns the entry count
        dropped.
        """
        dropped = len(self._entries)
        self._entries.clear()
        self._total_vsize = 0
        self._total_fees = 0
        self._heap.clear()
        self._spenders.clear()
        if dropped:
            obs.counter("mempool.cleared", dropped)
        self._maybe_check_invariants()
        return dropped

    def expire(self, now: float) -> list[MempoolEntry]:
        """Evict entries *strictly* older than ``expiry_seconds``.

        An entry exactly at the cutoff (age == ``expiry_seconds``)
        survives, matching Bitcoin Core's ``Expire`` (strict ``<`` on
        the entry time); returns the evicted entries.
        """
        cutoff = now - self.expiry_seconds
        stale = [e for e in self._entries.values() if e.arrival_time < cutoff]
        for entry in stale:
            self.remove(entry.txid)
        if stale:
            obs.counter("mempool.expired", len(stale))
        self._maybe_check_invariants()
        return stale

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, txid: str) -> bool:
        return txid in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[MempoolEntry]:
        return iter(list(self._entries.values()))

    def get(self, txid: str) -> Optional[MempoolEntry]:
        return self._entries.get(txid)

    def arrival_time(self, txid: str) -> Optional[float]:
        entry = self._entries.get(txid)
        return entry.arrival_time if entry is not None else None

    @property
    def total_vsize(self) -> int:
        """Aggregate vsize of queued transactions — the congestion gauge."""
        return self._total_vsize

    @property
    def total_fees(self) -> int:
        return self._total_fees

    @property
    def rejection_counts(self) -> dict[str, int]:
        return dict(self._rejections)

    def entries(self) -> list[MempoolEntry]:
        """All entries, unordered."""
        return list(self._entries.values())

    def entries_by_fee_rate(self) -> list[MempoolEntry]:
        """Entries ordered by descending fee-rate (norm ordering).

        Ties break by arrival order (earlier first), matching the
        first-seen tie-break miners effectively apply.
        """
        ordered = sorted(
            self._entries.values(),
            key=lambda e: (-e.fee_rate, e.arrival_time, e.txid),
        )
        return ordered

    def iter_best(self) -> Iterator[MempoolEntry]:
        """Yield entries from best fee-rate down, without consuming them.

        Iteration works on a snapshot of the heap, so the pool (and the
        shared ``_heap`` that later ``offer``/``remove`` calls rely on)
        is left intact and a second call yields the same sequence.  As
        a side effect the first advance compacts stale heap residue
        (items whose entry has since been removed) out of the live
        heap.  Entries removed *mid-iteration* are skipped; a txid is
        yielded at most once even if re-admission left duplicate heap
        items behind.
        """
        live = [item for item in self._heap if item[2] in self._entries]
        if len(live) != len(self._heap):
            # Compact: filtering broke the heap shape, so re-heapify a
            # copy for the pool and one for this iteration.
            compacted = list(live)
            heapq.heapify(compacted)
            self._heap = compacted
        heapq.heapify(live)
        seen: set[str] = set()
        while live:
            _, _, txid = heapq.heappop(live)
            if txid in seen:
                continue
            entry = self._entries.get(txid)
            if entry is not None:
                seen.add(txid)
                yield entry

    def filter(self, predicate: Callable[[MempoolEntry], bool]) -> list[MempoolEntry]:
        """Entries satisfying ``predicate``."""
        return [entry for entry in self._entries.values() if predicate(entry)]

    # ------------------------------------------------------------------
    # Invariant contract
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify bookkeeping against recomputed ground truth.

        The contract:

        * ``total_vsize``/``total_fees`` incremental counters equal the
          sums recomputed over the live entries;
        * the pool respects ``max_vsize`` and no entry sits below
          ``min_fee_rate``;
        * the conflict index (``_spenders``) maps exactly the outpoints
          spent by live entries, each to its unique spender;
        * every live entry is reachable through the fee-rate heap.

        O(n); raises :class:`InvariantViolation` on the first breach.
        The mempool calls this itself after mutations (throttled on
        large pools) whenever ``REPRO_AUDIT_CHECK=1`` — the test suite
        keeps it always-on via a conftest fixture.
        """
        entries = self._entries
        vsize = sum(e.vsize for e in entries.values())
        if vsize != self._total_vsize:
            raise InvariantViolation(
                f"total_vsize drifted: counter={self._total_vsize} "
                f"recomputed={vsize}"
            )
        fees = sum(e.tx.fee for e in entries.values())
        if fees != self._total_fees:
            raise InvariantViolation(
                f"total_fees drifted: counter={self._total_fees} "
                f"recomputed={fees}"
            )
        if self.max_vsize is not None and vsize > self.max_vsize:
            raise InvariantViolation(
                f"pool over max_vsize: {vsize} > {self.max_vsize}"
            )
        expected_spenders: dict[object, str] = {}
        for txid, entry in entries.items():
            if entry.txid != txid:
                raise InvariantViolation(
                    f"entry keyed {txid} holds tx {entry.txid}"
                )
            if entry.fee_rate < self.min_fee_rate:
                raise InvariantViolation(
                    f"entry {txid} below min_fee_rate: "
                    f"{entry.fee_rate} < {self.min_fee_rate}"
                )
            for txin in entry.tx.inputs:
                other = expected_spenders.get(txin.prevout)
                if other is not None:
                    raise InvariantViolation(
                        f"entries {other} and {txid} both spend "
                        f"{txin.prevout!r}"
                    )
                expected_spenders[txin.prevout] = txid
        if expected_spenders != self._spenders:
            missing = expected_spenders.keys() - self._spenders.keys()
            extra = self._spenders.keys() - expected_spenders.keys()
            raise InvariantViolation(
                "conflict index diverges from entries: "
                f"{len(missing)} outpoint(s) unindexed, "
                f"{len(extra)} stale; first unindexed: "
                f"{next(iter(missing), None)!r}, first stale: "
                f"{next(iter(extra), None)!r}"
            )
        heap_txids = {item[2] for item in self._heap}
        unreachable = entries.keys() - heap_txids
        if unreachable:
            raise InvariantViolation(
                f"{len(unreachable)} live entr(y/ies) missing from the "
                f"fee-rate heap (e.g. {sorted(unreachable)[:3]})"
            )

    def _maybe_check_invariants(self) -> None:
        """Self-check after a mutation when ``REPRO_AUDIT_CHECK=1``.

        The full check is O(n), so on pools past a few hundred entries
        it runs every 64th mutation instead of every one — enabling
        checks must not turn long simulations quadratic.
        """
        if not invariants_enabled():
            return
        self._ops_since_check += 1
        if len(self._entries) > 256 and self._ops_since_check < 64:
            return
        self._ops_since_check = 0
        self.check_invariants()


class SnapshotRecorder:
    """Capture :class:`MempoolSnapshot` objects from a live mempool."""

    def __init__(self, interval: float = 15.0) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self._snapshots: list[MempoolSnapshot] = []
        self._last_time: Optional[float] = None
        # id(entry) -> (entry, row) for the entries of the last capture.
        # Holding the entry keeps its id from being reused.
        self._rows: dict[int, tuple[MempoolEntry, SnapshotTx]] = {}

    def due(self, now: float) -> bool:
        """True if a snapshot should be taken at time ``now``."""
        if self._last_time is None:
            return True
        return now - self._last_time >= self.interval

    def capture(self, mempool: Mempool, now: float) -> MempoolSnapshot:
        """Record and return the current mempool state.

        ``MempoolEntry`` is frozen, so an entry still pending since the
        last capture reuses that capture's ``SnapshotTx``: an evented
        run's snapshots hold millions of rows but only one per entry.
        """
        previous = self._rows
        rows: dict[int, tuple[MempoolEntry, SnapshotTx]] = {}
        for entry in mempool.entries():
            key = id(entry)
            row = previous.get(key)
            if row is None:
                tx = entry.tx
                row = entry, SnapshotTx(
                    tx.txid, entry.arrival_time, tx.fee, tx.vsize
                )
            rows[key] = row
        self._rows = rows
        snapshot = MempoolSnapshot(
            time=now, txs=tuple(row[1] for row in rows.values())
        )
        self._snapshots.append(snapshot)
        self._last_time = now
        return snapshot

    @property
    def snapshots(self) -> list[MempoolSnapshot]:
        return list(self._snapshots)

    def store(self) -> "SnapshotStore":
        return SnapshotStore(self._snapshots)
