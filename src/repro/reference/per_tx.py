"""The engine's per-tx reference loop: the fast path's differential oracle.

:func:`produce_per_tx` admits one planned transaction at a time into
python dicts and rebuilds every block template from freshly
materialised :class:`~repro.mempool.mempool.MempoolEntry` lists.  It is
small and obviously faithful to the model; production runs
:func:`repro.simulation.fast.produce_fast` instead, which must produce
byte-identical datasets (``tests/test_engine_oracle.py``).  The engine
selects this loop with ``SimulationEngine.run(plan, scalar=True)``; both
producers take the same arguments and return the same
``(committed, chain, orphaned)`` triple.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .. import obs
from ..chain.blockchain import Blockchain
from ..chain.transaction import Transaction
from ..mempool.mempool import MempoolEntry
from ..obs.invariants import InvariantViolation
from ..simulation.workload import PlannedTx

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chain.block import Block
    from ..simulation.engine import SimulationEngine


def check_engine_block_state(
    pending: dict,
    pending_spenders: dict,
    committed: dict,
    block: "Block",
) -> None:
    """Engine contract at a block boundary (after committing ``block``).

    * no committed txid may still be pending;
    * every conflict-index entry must point at a pending transaction;
    * nothing the block just committed may survive in the pending set.
    """
    overlap = pending.keys() & committed.keys()
    if overlap:
        sample = sorted(overlap)[:3]
        raise InvariantViolation(
            f"{len(overlap)} committed txid(s) still pending "
            f"(e.g. {', '.join(sample)})"
        )
    for outpoint, txid in pending_spenders.items():
        if txid not in pending:
            raise InvariantViolation(
                f"conflict index maps {outpoint!r} to non-pending tx {txid}"
            )
    for tx in block.transactions:
        if tx.txid in pending:
            raise InvariantViolation(
                f"tx {tx.txid} committed at height {block.height} "
                "but still pending"
            )


def produce_per_tx(
    engine: "SimulationEngine",
    plan: Sequence[PlannedTx],
    broadcast_times: np.ndarray,
    pool_arrivals: np.ndarray,
    schedule: Sequence[tuple[float, int]],
    stale_mask: Optional[np.ndarray],
    mining_rng: np.random.Generator,
    check_invariants: bool = False,
) -> tuple[dict[str, tuple[int, int, float]], Blockchain, int]:
    """The per-tx reference loop: (committed, chain, orphaned).

    ``broadcast_times`` is unused (the loop reads each planned
    transaction's own broadcast time); it keeps the signature of
    :func:`~repro.simulation.fast.produce_fast`.
    """
    count = len(plan)
    # Pending pool: index into `plan` for not-yet-committed txs,
    # plus conflict bookkeeping (outpoint -> pending spender) so
    # replace-by-fee bumps evict what they displace and stale
    # replacements of already-committed transactions are dropped.
    pending: dict[str, int] = {}
    pending_spenders: dict[object, str] = {}
    committed_outpoints: set = set()
    committed: dict[str, tuple[int, int, float]] = {}  # txid -> (height, pos, time)
    chain = Blockchain()
    plan_index = 0
    # In-plan parent -> children, for cascading evictions when a
    # replaced transaction had dependants.
    plan_txids = {p.tx.txid for p in plan}
    plan_children: dict[str, list[str]] = {}
    for planned in plan:
        for parent in planned.tx.parent_txids:
            if parent in plan_txids:
                plan_children.setdefault(parent, []).append(planned.tx.txid)

    def evict(txid: str) -> None:
        """Drop a pending tx and, recursively, its pending children."""
        index = pending.pop(txid, None)
        if index is None:
            return
        loser_tx = plan[index].tx
        for txin in loser_tx.inputs:
            if pending_spenders.get(txin.prevout) == txid:
                del pending_spenders[txin.prevout]
        for child in plan_children.get(txid, ()):
            evict(child)

    def admit(planned: PlannedTx, index: int) -> None:
        tx = planned.tx
        if any(txin.prevout in committed_outpoints for txin in tx.inputs):
            obs.counter("mempool.pending.chain_conflict")
            return  # conflicts with the chain: the original won
        displaced = {
            pending_spenders[txin.prevout]
            for txin in tx.inputs
            if txin.prevout in pending_spenders
            and pending_spenders[txin.prevout] != tx.txid
        }
        for loser in displaced:
            loser_tx = plan[pending[loser]].tx
            if tx.fee <= loser_tx.fee:
                obs.counter("mempool.pending.rbf_rejected")
                return  # not a valid fee bump: keep the incumbent
        if displaced:
            obs.counter("mempool.rbf_replacements", len(displaced))
        for loser in displaced:
            evict(loser)
        obs.counter("mempool.pending.admitted")
        pending[tx.txid] = index
        for txin in tx.inputs:
            pending_spenders[txin.prevout] = tx.txid
        if planned.accelerate_via is not None:
            service = engine.services.get(planned.accelerate_via)
            if service is not None:
                service.accelerate(
                    tx.txid,
                    public_fee=tx.fee,
                    now=planned.broadcast_time,
                )

    orphaned = 0
    # Every pool's arrival column as a list, converted once per run.
    arrivals_by_pool = pool_arrivals.T.tolist()
    for index, (block_time, winner_index) in enumerate(schedule):
        # Admit all broadcasts up to this discovery.
        while plan_index < count and plan[plan_index].broadcast_time <= block_time:
            admit(plan[plan_index], plan_index)
            plan_index += 1

        winner = engine.pools[winner_index]
        with obs.span("engine.mine_block"):
            if mining_rng.random() < engine.config.empty_block_probability:
                entries: list[MempoolEntry] = []
                obs.counter("engine.blocks.empty")
            else:
                entries = _eligible_entries(
                    pending, plan, arrivals_by_pool[winner_index], block_time
                )
            block = winner.assemble_block(
                height=len(chain),
                prev_hash=chain.tip_hash,
                timestamp=block_time,
                entries=entries,
            )
        if stale_mask is not None and stale_mask[index]:
            # Stale/reorged: the block lost the propagation race and
            # is never committed; its transactions stay pending and
            # re-enter the next winner's candidate set.
            orphaned += 1
            obs.counter("engine.blocks.orphaned")
        else:
            chain.append(block)
            for position, tx in enumerate(block.transactions):
                committed[tx.txid] = (block.height, position, block_time)
                pending.pop(tx.txid, None)
                for txin in tx.inputs:
                    committed_outpoints.add(txin.prevout)
                    if pending_spenders.get(txin.prevout) == tx.txid:
                        del pending_spenders[txin.prevout]
            obs.counter("engine.blocks.committed")
            obs.counter("engine.txs.committed", len(block.transactions))
            if check_invariants:
                check_engine_block_state(
                    pending, pending_spenders, committed, block
                )

    return committed, chain, orphaned


def _eligible_entries(
    pending: dict[str, int],
    plan: Sequence[PlannedTx],
    arrivals: list[float],
    block_time: float,
) -> list[MempoolEntry]:
    """Pending transactions that reached this pool, parent-closed.

    ``arrivals`` is the pool's arrival time of every planned
    transaction, indexed like ``plan``.  A transaction is withheld
    if any parent is still pending but has not reached the pool (or
    was itself withheld) — including it would commit a child before
    its parent exists on-chain.
    """
    candidates: dict[str, tuple[Transaction, float]] = {}
    for txid, index in pending.items():
        arrival = arrivals[index]
        if arrival <= block_time:
            candidates[txid] = (plan[index].tx, arrival)

    pending_set = set(pending)
    # Iterate to a fixpoint: removing a parent can orphan its child.
    changed = True
    selected = dict(candidates)
    while changed:
        changed = False
        for txid in list(selected):
            tx, _ = selected[txid]
            for parent in tx.parent_txids:
                if parent in pending_set and parent not in selected:
                    del selected[txid]
                    changed = True
                    break
    return [
        MempoolEntry(tx=tx, arrival_time=arrival)
        for tx, arrival in selected.values()
    ]
