"""Position prediction error (PPE) and its signed variant (SPPE).

PPE(B) — §4.2.2 — quantifies how far a block's observed ordering strays
from the fee-rate norm: the mean absolute difference between predicted
and observed percentile positions over the block's non-CPFP
transactions.  A block ordered exactly by fee-rate scores 0.

SPPE — §5.1.1 — keeps the sign: for a *chosen set* of transactions
committed by a miner, the mean of (predicted − observed) percentile
positions.  Large positive SPPE means the miner systematically lifted
those transactions toward the top of its blocks; large negative SPPE
means it buried them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from ..chain.block import Block
from .norms import CpfpFilter, PositionPrediction, predict_block_positions

# ----------------------------------------------------------------------
# Per-block prediction memo
# ----------------------------------------------------------------------
# Blocks are immutable, so their norm predictions are pure functions of
# (block, CPFP filter).  The per-pool Table 2 loop calls sppe() once per
# (owner, target) pair over the same chain; memoising here turns its
# repeated predict_block_positions calls into dictionary lookups.  The
# memo lives *on the block instance* (block_hash is not a safe key:
# txids do not commit to fee/vsize, so distinct blocks can share a
# hash), which also ties the memo's lifetime to the block's own.
_MEMO_ATTR = "_prediction_memo"
_TXIDS_KEY = "txids"


def _block_memo(block: Block) -> dict:
    memo = block.__dict__.get(_MEMO_ATTR)
    if memo is None:
        memo = {}
        object.__setattr__(block, _MEMO_ATTR, memo)
    return memo


def predictions_for(
    block: Block, cpfp_filter: CpfpFilter = CpfpFilter.CHILDREN
) -> tuple[PositionPrediction, ...]:
    """Memoised :func:`predict_block_positions` for one block instance."""
    memo = _block_memo(block)
    cached = memo.get(cpfp_filter)
    if cached is None:
        cached = tuple(predict_block_positions(block, cpfp_filter))
        memo[cpfp_filter] = cached
    return cached


def _block_txids(block: Block) -> frozenset[str]:
    """Memoised full txid set of a block (pre-filter)."""
    memo = _block_memo(block)
    cached = memo.get(_TXIDS_KEY)
    if cached is None:
        cached = frozenset(tx.txid for tx in block.transactions)
        memo[_TXIDS_KEY] = cached
    return cached


def clear_prediction_cache() -> None:
    """Compatibility hook for benchmark cells.

    Memos are stored on block instances, so they vanish with the blocks
    themselves (e.g. when the dataset memory cache is cleared); there is
    no process-global state left to drop.
    """


@dataclass(frozen=True)
class BlockPpe:
    """PPE of one block plus the context Fig 7 aggregates."""

    height: int
    block_hash: str
    tx_count: int
    ppe: float


def block_ppe(
    block: Block, cpfp_filter: CpfpFilter = CpfpFilter.CHILDREN
) -> Optional[BlockPpe]:
    """PPE of ``block``, or None when no transaction survives filtering.

    The paper computes Fig 7 over the 99.55% of blocks with at least one
    non-CPFP transaction; returning None lets callers apply the same
    exclusion explicitly.
    """
    predictions = predictions_for(block, cpfp_filter)
    if not predictions:
        return None
    errors = [prediction.error for prediction in predictions]
    return BlockPpe(
        height=block.height,
        block_hash=block.block_hash,
        tx_count=len(predictions),
        ppe=float(np.mean(errors)),
    )


def chain_ppe(
    blocks: Iterable[Block], cpfp_filter: CpfpFilter = CpfpFilter.CHILDREN
) -> list[BlockPpe]:
    """PPE for every block that has at least one non-CPFP transaction."""
    results = []
    for block in blocks:
        result = block_ppe(block, cpfp_filter)
        if result is not None:
            results.append(result)
    return results


@dataclass(frozen=True)
class PpeSummary:
    """Distributional summary of PPE over a set of blocks (Fig 7a text)."""

    block_count: int
    mean: float
    std: float
    median: float
    percentile_80: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "PpeSummary":
        if not len(values):
            return cls(0, float("nan"), float("nan"), float("nan"), float("nan"))
        array = np.asarray(values, dtype=float)
        return cls(
            block_count=int(array.size),
            mean=float(array.mean()),
            std=float(array.std(ddof=0)),
            median=float(np.median(array)),
            percentile_80=float(np.percentile(array, 80)),
        )


def summarize_ppe(results: Sequence[BlockPpe]) -> PpeSummary:
    """Aggregate per-block PPE values into the Fig 7 headline numbers."""
    return PpeSummary.from_values([result.ppe for result in results])


@dataclass(frozen=True)
class SppeResult:
    """SPPE of a transaction set within one miner's blocks."""

    tx_count: int
    sppe: float
    per_tx: tuple[PositionPrediction, ...]

    @property
    def accelerated_fraction(self) -> float:
        """Share of the set observed above its predicted position.

        An empty set is *no evidence*, not "no acceleration": it
        returns ``nan``, matching :func:`sppe`'s degenerate result, so
        Table 2/4-style aggregations cannot mistake an unmatched
        transaction set for a well-behaved pool.
        """
        if not self.per_tx:
            return float("nan")
        lifted = sum(1 for p in self.per_tx if p.signed_error > 0)
        return lifted / len(self.per_tx)


def sppe(
    blocks: Iterable[Block],
    txids: Iterable[str],
    cpfp_filter: CpfpFilter = CpfpFilter.CHILDREN,
) -> SppeResult:
    """SPPE of ``txids`` over the blocks that committed them.

    Only blocks containing at least one target transaction are scanned;
    targets that were filtered out as CPFP children contribute nothing
    (their position is legitimately off-norm).
    """
    target = set(txids)
    matched: list[PositionPrediction] = []
    for block in blocks:
        if not target.intersection(_block_txids(block)):
            continue
        for prediction in predictions_for(block, cpfp_filter):
            if prediction.txid in target:
                matched.append(prediction)
    if not matched:
        return SppeResult(tx_count=0, sppe=float("nan"), per_tx=())
    mean_signed = float(np.mean([p.signed_error for p in matched]))
    return SppeResult(tx_count=len(matched), sppe=mean_signed, per_tx=tuple(matched))


def per_transaction_sppe(
    blocks: Iterable[Block], cpfp_filter: CpfpFilter = CpfpFilter.CHILDREN
) -> dict[str, float]:
    """Signed prediction error of every committed transaction.

    This per-transaction view powers the dark-fee detector (§5.4.2):
    Table 4 thresholds on exactly this quantity.
    """
    errors: dict[str, float] = {}
    for block in blocks:
        for prediction in predictions_for(block, cpfp_filter):
            errors[prediction.txid] = prediction.signed_error
    return errors


class PpeAccumulator:
    """Incremental PPE/SPPE state: fold one committed block at a time.

    The batch path scans the whole chain per question (``chain_ppe``
    walks every block; ``blocks_of(pool)`` re-filters the chain per
    pool).  A long-running audit service cannot afford either, so this
    accumulator maintains, per fold:

    * the chain-order ``BlockPpe`` list (identical to
      ``chain_ppe(blocks_so_far)`` — same function, same order),
    * the same list partitioned by attributed pool (Fig 7b),
    * per-pool chain-order block lists, so an SPPE query over a pool
      touches only that pool's blocks and reuses the per-block
      prediction memos built at fold time.

    Equivalence with the batch functions is the load-bearing contract:
    ``tests/test_streaming_differential.py`` pins bit-identical results
    over full datasets.
    """

    def __init__(self, cpfp_filter: CpfpFilter = CpfpFilter.CHILDREN) -> None:
        self.cpfp_filter = cpfp_filter
        #: Chain-order per-block PPE — ``chain_ppe`` of the folded prefix.
        self.results: list[BlockPpe] = []
        #: The same results keyed by attributed pool.
        self.by_pool: dict[str, list[BlockPpe]] = {}
        self._pool_blocks: dict[str, list[Block]] = {}
        self.block_count = 0

    def fold(self, block: Block, pool: Optional[str] = None) -> Optional[BlockPpe]:
        """Fold one committed block; returns its BlockPpe (None if empty).

        Folding also warms the block's prediction memo, so later SPPE
        queries over the same block are dictionary lookups.
        """
        self.block_count += 1
        result = block_ppe(block, self.cpfp_filter)
        if result is not None:
            self.results.append(result)
            if pool is not None:
                self.by_pool.setdefault(pool, []).append(result)
        if pool is not None:
            self._pool_blocks.setdefault(pool, []).append(block)
        return result

    def pool_blocks(self, pool: str) -> list[Block]:
        """Chain-order blocks attributed to ``pool`` among folded blocks."""
        return list(self._pool_blocks.get(pool, ()))

    def summary(self) -> PpeSummary:
        """Fig 7a summary over everything folded so far."""
        return summarize_ppe(self.results)

    def sppe(self, pool: str, txids: Iterable[str]) -> SppeResult:
        """SPPE of ``txids`` within ``pool``'s folded blocks.

        Identical to ``sppe(dataset.blocks_of(pool), txids)`` on the
        folded prefix: the per-pool lists preserve chain order.
        """
        return sppe(self._pool_blocks.get(pool, ()), txids, self.cpfp_filter)

    def per_transaction_sppe(self, pool: str) -> dict[str, float]:
        """Per-transaction signed errors within ``pool``'s folded blocks."""
        return per_transaction_sppe(
            self._pool_blocks.get(pool, ()), self.cpfp_filter
        )
