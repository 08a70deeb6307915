"""Norm definitions and the fee-rate position predictor.

The paper's audit rests on one predictor: *if the miner followed the
GetBlockTemplate norm, where would each transaction sit inside its
block?*  Predicted positions come from re-sorting the block's own
transactions by fee-rate; comparing them with observed positions yields
PPE (unsigned, §4.2.2) and SPPE (signed, §5.1.1).

Positions are expressed as percentile ranks in [0, 100] so blocks of
different sizes are comparable — the paper normalises "by the size of
the block ... expressed as a percentage".
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from ..chain.block import Block
from ..chain.transaction import Transaction
from ..mempool.ancestry import cpfp_involved_txids, find_cpfp_txids


class CpfpFilter(Enum):
    """Which CPFP-related transactions to drop before position analysis."""

    #: Keep everything (no filtering).
    NONE = "none"
    #: Drop CPFP children — the paper's Appendix E definition.
    CHILDREN = "children"
    #: Drop CPFP children and their in-block parents.
    INVOLVED = "involved"


def filter_block_transactions(
    block: Block, cpfp_filter: CpfpFilter = CpfpFilter.CHILDREN
) -> list[Transaction]:
    """Non-CPFP transactions of ``block`` in observed order."""
    if cpfp_filter is CpfpFilter.NONE:
        return list(block.transactions)
    if cpfp_filter is CpfpFilter.CHILDREN:
        excluded = find_cpfp_txids(block)
    else:
        excluded = cpfp_involved_txids(block)
    return [tx for tx in block.transactions if tx.txid not in excluded]


def percentile_ranks(count: int) -> list[float]:
    """Percentile rank of each position among ``count`` slots.

    Position 0 (top of the block) maps to 0.0 and the last position to
    100.0; a single transaction sits at 0.0.
    """
    if count <= 0:
        return []
    if count == 1:
        return [0.0]
    return [100.0 * index / (count - 1) for index in range(count)]


def predicted_order(transactions: Sequence[Transaction]) -> list[Transaction]:
    """Transactions re-sorted by the norm: descending fee-rate.

    The sort is stable with observed order as the tie-break, so
    transactions with exactly equal fee-rates contribute zero error —
    the norm genuinely does not constrain their relative order.
    """
    indexed = list(enumerate(transactions))
    indexed.sort(key=lambda pair: (-pair[1].fee_rate, pair[0]))
    return [tx for _, tx in indexed]


@dataclass(frozen=True)
class PositionPrediction:
    """Observed vs norm-predicted percentile position of one transaction."""

    txid: str
    fee_rate: float
    observed_rank: float
    predicted_rank: float

    @property
    def error(self) -> float:
        """Unsigned percentile error (PPE contribution)."""
        return abs(self.predicted_rank - self.observed_rank)

    @property
    def signed_error(self) -> float:
        """Signed percentile error: predicted − observed.

        Positive means the transaction appeared *earlier* (closer to the
        top) than its fee-rate warrants — the acceleration signature.
        """
        return self.predicted_rank - self.observed_rank


def predict_block_positions(
    block: Block, cpfp_filter: CpfpFilter = CpfpFilter.CHILDREN
) -> list[PositionPrediction]:
    """Per-transaction observed/predicted percentile ranks for a block.

    Ranks are computed over the *filtered* transaction list: after CPFP
    exclusion, the remaining transactions are re-ranked contiguously in
    both the observed and the predicted orders.
    """
    transactions = filter_block_transactions(block, cpfp_filter)
    count = len(transactions)
    if count == 0:
        return []
    ranks = percentile_ranks(count)
    observed_rank = {tx.txid: ranks[i] for i, tx in enumerate(transactions)}
    predicted = predicted_order(transactions)
    predicted_rank = {tx.txid: ranks[i] for i, tx in enumerate(predicted)}
    return [
        PositionPrediction(
            txid=tx.txid,
            fee_rate=tx.fee_rate,
            observed_rank=observed_rank[tx.txid],
            predicted_rank=predicted_rank[tx.txid],
        )
        for tx in transactions
    ]


def prediction_for(
    block: Block,
    txid: str,
    cpfp_filter: CpfpFilter = CpfpFilter.CHILDREN,
) -> Optional[PositionPrediction]:
    """The prediction record for one transaction, if it survives filtering."""
    for prediction in predict_block_positions(block, cpfp_filter):
        if prediction.txid == txid:
            return prediction
    return None

