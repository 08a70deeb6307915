"""The mempool entry: a transaction as one node holds it.

The entry keeps the metadata the audit needs — most importantly the
*arrival time* at this node, which differs across nodes and is the
reason the paper tightens its violation test with an ε slack.  Block
templates (:mod:`repro.mining.gbt`) and the ordering policies rank
entries; the stateful mempool that admits and evicts them lives with
the evented reference substrate in :mod:`repro.reference.mempool`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chain.transaction import Transaction


@dataclass(frozen=True)
class MempoolEntry:
    """A transaction plus node-local bookkeeping."""

    tx: Transaction
    arrival_time: float

    @property
    def txid(self) -> str:
        return self.tx.txid

    @property
    def fee_rate(self) -> float:
        return self.tx.fee_rate

    @property
    def vsize(self) -> int:
        return self.tx.vsize
