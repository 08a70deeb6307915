"""Ancestor/descendant tracking and CPFP detection.

Two related notions live here:

* **In-mempool packages** — for a set of unconfirmed transactions, the
  ancestor sets and ancestor fee-rates that Bitcoin Core's block
  assembly actually ranks by.  A child paying a high fee can pull a
  cheap parent into a block ("child pays for parent").
* **In-block CPFP** — the paper's Appendix E definition: a committed
  transaction is a CPFP-tx iff it spends an output of another
  transaction *in the same block*.  The paper discards these when
  testing norm adherence because they are legitimate deviations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..chain.block import Block
from ..chain.transaction import Transaction


@dataclass(frozen=True)
class PackageStats:
    """Aggregate fee/size of a transaction plus its unconfirmed ancestors."""

    txid: str
    ancestor_txids: frozenset[str]
    package_fee: int
    package_vsize: int

    @property
    def package_fee_rate(self) -> float:
        """The ancestor fee-rate Bitcoin Core's assembler sorts by.

        A float, so fit only for display and tolerant comparisons —
        ranking must go through
        :func:`repro.mempool.feerate.fee_rate_rank`, which survives the
        rationals that collide in float64.
        """
        return self.package_fee / self.package_vsize

    @property
    def ancestor_count(self) -> int:
        return len(self.ancestor_txids)


class AncestryIndex:
    """Ancestor bookkeeping over a set of unconfirmed transactions.

    Only edges *within* the tracked set count: a parent already committed
    to the chain (or unknown) imposes no package obligation.
    """

    def __init__(self, transactions: Iterable[Transaction] = ()) -> None:
        self._txs: dict[str, Transaction] = {}
        # Reverse index: parent txid -> tracked txids spending it.  Keys
        # may name parents that are not (or not yet) tracked themselves;
        # queries intersect with the tracked set implicitly because only
        # tracked children are ever inserted.
        self._children: dict[str, set[str]] = {}
        for tx in transactions:
            self.add(tx)

    def add(self, tx: Transaction) -> None:
        """Track ``tx``; parent links resolve lazily at query time."""
        existing = self._txs.get(tx.txid)
        if existing is not None and existing.parent_txids != tx.parent_txids:
            # Re-adding under the same txid with different parents:
            # drop the stale reverse edges before indexing the new ones.
            self._unlink(existing)
        self._txs[tx.txid] = tx
        for parent in tx.parent_txids:
            self._children.setdefault(parent, set()).add(tx.txid)

    def remove(self, txid: str) -> None:
        """Stop tracking ``txid`` (e.g. it was committed)."""
        tx = self._txs.pop(txid, None)
        if tx is not None:
            self._unlink(tx)

    def _unlink(self, tx: Transaction) -> None:
        for parent in tx.parent_txids:
            children = self._children.get(parent)
            if children is not None:
                children.discard(tx.txid)
                if not children:
                    del self._children[parent]

    def __contains__(self, txid: str) -> bool:
        return txid in self._txs

    def __len__(self) -> int:
        return len(self._txs)

    def parents_of(self, txid: str) -> frozenset[str]:
        """In-set parents of ``txid``."""
        tx = self._txs.get(txid)
        if tx is None:
            return frozenset()
        return frozenset(p for p in tx.parent_txids if p in self._txs)

    def children_of(self, txid: str) -> frozenset[str]:
        """In-set children of ``txid`` (incremental reverse index; O(k)).

        Previously recomputed by an O(n) scan over every tracked
        transaction on each call, which made descendant walks quadratic;
        the reverse index is maintained by :meth:`add`/:meth:`remove`
        and cross-checked against the scan in a property test.
        """
        return frozenset(self._children.get(txid, ()))

    def ancestors_of(self, txid: str) -> frozenset[str]:
        """All in-set ancestors of ``txid`` (excluding itself)."""
        ancestors: set[str] = set()
        queue = deque(self.parents_of(txid))
        while queue:
            parent = queue.popleft()
            if parent in ancestors:
                continue
            ancestors.add(parent)
            queue.extend(self.parents_of(parent) - ancestors)
        return frozenset(ancestors)

    def descendants_of(self, txid: str) -> frozenset[str]:
        """All in-set descendants of ``txid`` (excluding itself)."""
        descendants: set[str] = set()
        queue = deque(self.children_of(txid))
        while queue:
            child = queue.popleft()
            if child in descendants:
                continue
            descendants.add(child)
            queue.extend(self.children_of(child) - descendants)
        return frozenset(descendants)

    def package_stats(self, txid: str) -> PackageStats:
        """Fee/size aggregate of ``txid`` plus its unconfirmed ancestors."""
        tx = self._txs[txid]
        ancestors = self.ancestors_of(txid)
        fee = tx.fee + sum(self._txs[a].fee for a in ancestors)
        vsize = tx.vsize + sum(self._txs[a].vsize for a in ancestors)
        return PackageStats(
            txid=txid,
            ancestor_txids=ancestors,
            package_fee=fee,
            package_vsize=vsize,
        )

    def topological_order(self) -> list[Transaction]:
        """All tracked transactions, parents before children.

        Ties (no ordering constraint) preserve insertion order, keeping
        the result deterministic.
        """
        in_degree: dict[str, int] = {}
        for txid in self._txs:
            in_degree[txid] = len(self.parents_of(txid))
        children: dict[str, list[str]] = {txid: [] for txid in self._txs}
        for txid in self._txs:
            for parent in self.parents_of(txid):
                children[parent].append(txid)
        ready = deque(txid for txid, deg in in_degree.items() if deg == 0)
        ordered: list[Transaction] = []
        while ready:
            txid = ready.popleft()
            ordered.append(self._txs[txid])
            for child in children[txid]:
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    ready.append(child)
        if len(ordered) != len(self._txs):
            raise ValueError("dependency cycle among unconfirmed transactions")
        return ordered


def find_cpfp_txids(block: Block) -> frozenset[str]:
    """Txids in ``block`` that spend another transaction in the same block.

    Implements the paper's Appendix E definition of a CPFP-tx.  Note the
    definition marks the *child*; the parent it pays for is identified by
    :func:`find_cpfp_parent_txids`.
    """
    in_block = {tx.txid for tx in block.transactions}
    return frozenset(
        tx.txid for tx in block.transactions if tx.parent_txids & in_block
    )


def find_cpfp_parent_txids(block: Block) -> frozenset[str]:
    """Txids in ``block`` that are spent by another transaction in it."""
    in_block = {tx.txid for tx in block.transactions}
    parents: set[str] = set()
    for tx in block.transactions:
        parents.update(tx.parent_txids & in_block)
    return frozenset(parents)


def cpfp_involved_txids(block: Block) -> frozenset[str]:
    """Union of CPFP children and their in-block parents.

    The paper's in-block ordering analysis (PPE) excludes both sides of a
    CPFP relationship, since neither is expected to sit at its solo
    fee-rate position.
    """
    return find_cpfp_txids(block) | find_cpfp_parent_txids(block)


def cpfp_fraction(blocks: Sequence[Block]) -> float:
    """Fraction of committed transactions that are CPFP-txs.

    Table 1 reports this per dataset (19-26% in the paper's data).
    """
    total = 0
    cpfp = 0
    for block in blocks:
        total += len(block.transactions)
        cpfp += len(find_cpfp_txids(block))
    return cpfp / total if total else 0.0


def dependency_closure(
    transactions: Mapping[str, Transaction], txid: str
) -> frozenset[str]:
    """Ancestor closure of ``txid`` within an arbitrary tx mapping."""
    closure: set[str] = set()
    queue = deque([txid])
    while queue:
        current = queue.popleft()
        tx = transactions.get(current)
        if tx is None:
            continue
        for parent in tx.parent_txids:
            if parent in transactions and parent not in closure:
                closure.add(parent)
                queue.append(parent)
    return frozenset(closure)
