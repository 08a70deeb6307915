"""NumPy batch implementations of the audit metrics.

This module is the *fast path* of the two-implementation architecture:
the scalar functions in :mod:`.norms`, :mod:`.ppe`, :mod:`.violations`
and :mod:`.stattests` are the **reference oracle** — small, literal
transcriptions of the paper's definitions — while everything here
recomputes the same quantities over packed per-chain arrays built once
by :class:`ChainArrays`.

The contract, enforced by the differential harness in
``tests/oracle.py``:

* ranks, per-block PPE, SPPE and violation counts are computed with the
  same IEEE operations in the same order as the oracle and match it
  **bit for bit**;
* binomial tail p-values share the oracle's log-gamma terms (one cached
  ``math.lgamma`` factorial table) and differ only in log-sum-exp
  accumulation order — documented tolerance 1e-9 *relative*.

Production code (:class:`~repro.core.audit.Auditor`) runs only this
path; to audit with the oracle, call the scalar function by name (the
differential tests and ``repro-audit bench --suite metrics`` do).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .. import obs
from ..chain.block import Block
from .norms import CpfpFilter, filter_block_transactions
from .ppe import BlockPpe
from .violations import SnapshotView, ViolationStats

# ----------------------------------------------------------------------
# ChainArrays: the packed per-chain adapter
# ----------------------------------------------------------------------
#: Owner id used for blocks without a pool attribution.
UNATTRIBUTED = -1

#: Process-cumulative count of object-graph packs (the slow path).
#: Exported as the ``vectorized.chain_arrays.fallbacks`` gauge so a
#: regression that silently drops the mmap path shows up in bench
#: obs deltas, not just in wall time.
_FALLBACK_PACKS = 0


def _note_pack(via_mmap: bool) -> None:
    """Count one ChainArrays pack on the mmap or the fallback path."""
    global _FALLBACK_PACKS
    if via_mmap:
        obs.counter("vectorized.chain_arrays.mmap")
    else:
        _FALLBACK_PACKS += 1
        obs.counter("vectorized.chain_arrays.fallback")
        obs.gauge("vectorized.chain_arrays.fallbacks", _FALLBACK_PACKS)


@dataclass
class ChainArrays:
    """One chain packed into parallel arrays, ranks precomputed.

    Blocks appear in chain order; the per-transaction arrays hold every
    transaction that survives the CPFP filter, in (block, observed
    position) order — exactly the order the scalar oracle walks.  Empty
    (post-filter) blocks keep a zero-length segment so block indexes
    stay aligned with the chain.
    """

    cpfp_filter: CpfpFilter
    # -- per block (length B, chain order) --
    heights: np.ndarray
    block_hashes: tuple[str, ...]
    owner_ids: np.ndarray
    owner_names: tuple[str, ...]
    starts: np.ndarray  # (B + 1,) packed segment offsets
    counts: np.ndarray  # (B,) post-filter transaction counts
    # -- per packed transaction (length N) --
    txids: tuple[str, ...]
    block_index: np.ndarray
    fee_rates: np.ndarray
    vsizes: np.ndarray
    observed_rank: np.ndarray
    predicted_rank: np.ndarray
    signed_error: np.ndarray
    abs_error: np.ndarray
    tx_index: dict[str, int] = field(repr=False)
    _owner_of: dict[str, int] = field(repr=False, default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_blocks(
        cls,
        blocks: Iterable[Block],
        block_pools: Optional[Mapping[int, str]] = None,
        cpfp_filter: CpfpFilter = CpfpFilter.CHILDREN,
    ) -> "ChainArrays":
        """Pack ``blocks`` (one pass; CPFP filtering happens here)."""
        block_pools = block_pools or {}
        heights: list[int] = []
        hashes: list[str] = []
        owner_labels: list[Optional[str]] = []
        counts: list[int] = []
        txids: list[str] = []
        fee_rates: list[float] = []
        vsizes: list[int] = []
        for block in blocks:
            heights.append(block.height)
            hashes.append(block.block_hash)
            owner_labels.append(block_pools.get(block.height))
            kept = filter_block_transactions(block, cpfp_filter)
            counts.append(len(kept))
            for tx in kept:
                txids.append(tx.txid)
                fee_rates.append(tx.fee_rate)
                vsizes.append(tx.vsize)

        names = sorted({label for label in owner_labels if label is not None})
        name_to_id = {name: index for index, name in enumerate(names)}
        owner_ids = np.asarray(
            [
                name_to_id[label] if label is not None else UNATTRIBUTED
                for label in owner_labels
            ],
            dtype=np.int64,
        )
        counts_arr = np.asarray(counts, dtype=np.int64)
        starts = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts_arr, out=starts[1:])
        rates = np.asarray(fee_rates, dtype=float)
        block_index = np.repeat(
            np.arange(len(counts), dtype=np.int64), counts_arr
        )
        observed, predicted = _block_ranks(rates, block_index, starts, counts_arr)
        signed = predicted - observed
        return cls(
            cpfp_filter=cpfp_filter,
            heights=np.asarray(heights, dtype=np.int64),
            block_hashes=tuple(hashes),
            owner_ids=owner_ids,
            owner_names=tuple(names),
            starts=starts,
            counts=counts_arr,
            txids=tuple(txids),
            block_index=block_index,
            fee_rates=rates,
            vsizes=np.asarray(vsizes, dtype=np.int64),
            observed_rank=observed,
            predicted_rank=predicted,
            signed_error=signed,
            abs_error=np.abs(signed),
            tx_index={txid: index for index, txid in enumerate(txids)},
            _owner_of=name_to_id,
        )

    @classmethod
    def from_columnar(
        cls,
        store,
        block_pools: Optional[Mapping[int, str]] = None,
        cpfp_filter: CpfpFilter = CpfpFilter.CHILDREN,
    ) -> "ChainArrays":
        """Pack straight from a memory-mapped :class:`ColumnStore`.

        No object graph is walked: fee/vsize/CPFP columns come off disk
        and the CPFP filter is a boolean mask over the precomputed
        child/parent flags.  Bit-identical to :meth:`from_blocks` on the
        same chain — the fee-rates are the same IEEE quotients (both
        sides divide exactly-represented int64 fees by vsizes) and the
        segmentation/rank code is shared.
        """
        block_pools = block_pools or {}
        heights = np.asarray(store["block_height"], dtype=np.int64)
        tx_start = np.asarray(store["block_tx_start"], dtype=np.int64)
        block_count = len(heights)
        child = np.asarray(store["ctx_cpfp_child"], dtype=bool)
        if cpfp_filter is CpfpFilter.NONE:
            keep = np.ones(len(child), dtype=bool)
        elif cpfp_filter is CpfpFilter.CHILDREN:
            keep = ~child
        else:
            parent = np.asarray(store["ctx_cpfp_parent"], dtype=bool)
            keep = ~(child | parent)
        full_index = np.repeat(
            np.arange(block_count, dtype=np.int64), np.diff(tx_start)
        )
        block_index = full_index[keep]
        counts_arr = np.bincount(block_index, minlength=block_count).astype(
            np.int64
        )
        starts = np.zeros(block_count + 1, dtype=np.int64)
        np.cumsum(counts_arr, out=starts[1:])
        fees = np.asarray(store["ctx_fee"], dtype=np.int64)[keep]
        vsizes = np.asarray(store["ctx_vsize"], dtype=np.int64)[keep]
        rates = fees.astype(float) / vsizes.astype(float)
        txids = tuple(store["ctx_txid"][keep].tolist())
        owner_labels = [block_pools.get(int(h)) for h in heights]
        names = sorted({label for label in owner_labels if label is not None})
        name_to_id = {name: index for index, name in enumerate(names)}
        owner_ids = np.asarray(
            [
                name_to_id[label] if label is not None else UNATTRIBUTED
                for label in owner_labels
            ],
            dtype=np.int64,
        )
        observed, predicted = _block_ranks(rates, block_index, starts, counts_arr)
        signed = predicted - observed
        return cls(
            cpfp_filter=cpfp_filter,
            heights=heights,
            block_hashes=tuple(store["block_hash"].tolist()),
            owner_ids=owner_ids,
            owner_names=tuple(names),
            starts=starts,
            counts=counts_arr,
            txids=txids,
            block_index=block_index,
            fee_rates=rates,
            vsizes=vsizes,
            observed_rank=observed,
            predicted_rank=predicted,
            signed_error=signed,
            abs_error=np.abs(signed),
            tx_index={txid: index for index, txid in enumerate(txids)},
            _owner_of=name_to_id,
        )

    @classmethod
    def from_dataset(
        cls, dataset, cpfp_filter: CpfpFilter = CpfpFilter.CHILDREN
    ) -> "ChainArrays":
        """Pack a :class:`~repro.datasets.dataset.Dataset`'s chain.

        Datasets loaded from the columnar store carry an open
        ``ColumnStore`` on ``dataset.columnar``; those pack zero-copy
        via :meth:`from_columnar` after a cheap identity check (name,
        counts, tip hash) so a mutated or derived dataset never reuses
        a stale sidecar.  Everything else — and any store that fails to
        map (torn file, vanished path in a worker) — falls back to the
        object-graph walk, counted in ``vectorized.chain_arrays.*`` so
        the bench grids surface regressions.
        """
        store = getattr(dataset, "columnar", None)
        if store is not None:
            try:
                if store.matches(dataset):
                    arrays = cls.from_columnar(
                        store, dataset.block_pools, cpfp_filter
                    )
                    _note_pack(via_mmap=True)
                    return arrays
            except (ValueError, OSError, KeyError):
                pass
        _note_pack(via_mmap=False)
        return cls.from_blocks(
            dataset.chain, dataset.block_pools, cpfp_filter
        )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    @property
    def block_count(self) -> int:
        return len(self.counts)

    @property
    def tx_count(self) -> int:
        return len(self.txids)

    def owner_id(self, pool: str) -> int:
        """Integer owner id of ``pool`` (UNATTRIBUTED when unknown)."""
        return self._owner_of.get(pool, UNATTRIBUTED)

    def match_indices(self, txids: Iterable[str]) -> np.ndarray:
        """Packed indices of ``txids`` that survive the filter, ascending.

        Ascending packed order is (block, observed position) order —
        the order the scalar oracle appends matches in.
        """
        index = self.tx_index
        matched = [index[txid] for txid in txids if txid in index]
        matched.sort()
        return np.asarray(matched, dtype=np.int64)

    def owner_mask(self, indices: np.ndarray, pool: str) -> np.ndarray:
        """Boolean mask over ``indices`` of transactions in ``pool`` blocks."""
        if pool not in self._owner_of:
            return np.zeros(len(indices), dtype=bool)
        return self.owner_ids[self.block_index[indices]] == self._owner_of[pool]

    def block_mask(self, pool: str) -> np.ndarray:
        """Boolean per-block mask selecting ``pool``'s blocks."""
        if pool not in self._owner_of:
            return np.zeros(self.block_count, dtype=bool)
        return self.owner_ids == self._owner_of[pool]


def _block_ranks(
    fee_rates: np.ndarray,
    block_index: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Observed and norm-predicted percentile ranks, whole chain at once.

    Reproduces :func:`repro.core.norms.percentile_ranks` and
    :func:`repro.core.norms.predicted_order` bit for bit: ranks are
    ``(100.0 * position) / (count - 1)`` (0.0 for singleton blocks) and
    the predicted order is a stable sort by descending fee-rate with
    observed position as the tie-break.
    """
    total = len(fee_rates)
    positions = np.arange(total, dtype=np.int64) - starts[block_index]
    denominators = counts[block_index] - 1
    safe = np.maximum(denominators, 1)
    observed = np.where(
        denominators > 0, (100.0 * positions) / safe, 0.0
    )
    # lexsort uses the last key as primary: blocks stay contiguous, the
    # norm sorts by descending fee-rate, observed position breaks ties.
    order = np.lexsort((positions, -fee_rates, block_index))
    predicted_positions = np.arange(total, dtype=np.int64) - starts[
        block_index[order]
    ]
    predicted = np.empty(total, dtype=float)
    predicted[order] = np.where(
        denominators[order] > 0,
        (100.0 * predicted_positions) / safe[order],
        0.0,
    )
    return observed, predicted


# ----------------------------------------------------------------------
# PPE / SPPE over packed arrays
# ----------------------------------------------------------------------
def chain_ppe_arrays(
    arrays: ChainArrays, block_mask: Optional[np.ndarray] = None
) -> list[BlockPpe]:
    """Per-block PPE, skipping blocks with no surviving transaction.

    Matches :func:`repro.core.ppe.chain_ppe` bit for bit: each block's
    PPE is ``np.mean`` over the same error values in the same order.
    """
    results: list[BlockPpe] = []
    starts = arrays.starts
    counts = arrays.counts
    errors = arrays.abs_error
    for index in range(arrays.block_count):
        count = int(counts[index])
        if count == 0:
            continue
        if block_mask is not None and not block_mask[index]:
            continue
        start = int(starts[index])
        results.append(
            BlockPpe(
                height=int(arrays.heights[index]),
                block_hash=arrays.block_hashes[index],
                tx_count=count,
                ppe=float(np.mean(errors[start : start + count])),
            )
        )
    return results


@dataclass(frozen=True)
class VectorSppe:
    """SPPE of a transaction set, computed on packed arrays.

    Mirrors :class:`repro.core.ppe.SppeResult` in the fields the table
    loops consume; the per-transaction prediction records are not
    materialised (that is the point of the fast path) — callers needing
    them use the scalar oracle.
    """

    tx_count: int
    sppe: float
    accelerated_fraction: float


def sppe_arrays(
    arrays: ChainArrays,
    txids: Iterable[str],
    pool: Optional[str] = None,
    matched: Optional[np.ndarray] = None,
) -> VectorSppe:
    """SPPE of ``txids`` (optionally restricted to ``pool``'s blocks).

    ``matched`` short-circuits the txid lookup when the caller already
    holds :meth:`ChainArrays.match_indices` output for the same set —
    the Table 2 loop reuses one match across every target pool.
    """
    if matched is None:
        matched = arrays.match_indices(txids)
    if pool is not None and len(matched):
        matched = matched[arrays.owner_mask(matched, pool)]
    if not len(matched):
        return VectorSppe(
            tx_count=0, sppe=float("nan"), accelerated_fraction=float("nan")
        )
    values = arrays.signed_error[matched]
    lifted = int(np.count_nonzero(values > 0))
    return VectorSppe(
        tx_count=int(len(values)),
        sppe=float(np.mean(values)),
        accelerated_fraction=lifted / len(values),
    )


def per_transaction_sppe_arrays(
    arrays: ChainArrays, pool: Optional[str] = None
) -> dict[str, float]:
    """Signed error of every packed transaction (Table 4 detector input).

    Insertion order matches the scalar oracle's block-by-block walk, so
    downstream random sampling over ``list(result)`` draws identically.
    """
    if pool is None:
        indices: Sequence[int] = range(arrays.tx_count)
    else:
        owner = arrays.owner_id(pool)
        keep = arrays.owner_ids[arrays.block_index] == owner
        indices = np.nonzero(keep)[0]
    txids = arrays.txids
    signed = arrays.signed_error
    return {txids[int(i)]: float(signed[int(i)]) for i in indices}


# ----------------------------------------------------------------------
# Snapshot violation counting
# ----------------------------------------------------------------------
def count_violations_multi(
    arrival_times: Sequence[float],
    fee_rates: Sequence[float],
    commit_heights: Sequence[int],
    epsilons: Sequence[float],
    block_size: int = 512,
) -> list[tuple[int, int]]:
    """(eligible, violating) pair counts for every ε in one sweep.

    The ε-independent comparisons (fee-rate dominance, later commit) are
    evaluated once per row block and reused across the ε grid; counts
    are integers, so the result equals the oracle's exactly.
    """
    times = np.asarray(arrival_times, dtype=float)
    rates = np.asarray(fee_rates, dtype=float)
    heights = np.asarray(commit_heights, dtype=np.int64)
    count = times.size
    if not (rates.size == count and heights.size == count):
        raise ValueError("input arrays must have equal length")
    eligible = [0] * len(epsilons)
    violating = [0] * len(epsilons)
    for start in range(0, count, block_size):
        stop = min(start + block_size, count)
        t_i = times[start:stop, None]
        richer = rates[start:stop, None] > rates[None, :]
        richer_and_later = richer & (
            heights[start:stop, None] > heights[None, :]
        )
        for index, epsilon in enumerate(epsilons):
            earlier = t_i + epsilon < times[None, :]
            eligible[index] += int((earlier & richer).sum())
            violating[index] += int((earlier & richer_and_later).sum())
    return list(zip(eligible, violating))


def analyze_snapshot_multi(
    view: SnapshotView, epsilons: Sequence[float]
) -> list[ViolationStats]:
    """Violation stats of one joined snapshot for every ε at once."""
    count = view.tx_count
    total_pairs = count * (count - 1) // 2
    counted = count_violations_multi(
        view.arrival_times, view.fee_rates, view.commit_heights, epsilons
    )
    return [
        ViolationStats(
            snapshot_time=view.time,
            tx_count=count,
            total_pairs=total_pairs,
            eligible_pairs=eligible,
            violating_pairs=violating,
            epsilon=epsilon,
        )
        for epsilon, (eligible, violating) in zip(epsilons, counted)
    ]


def analyze_snapshots_multi(
    views: Sequence[SnapshotView], epsilons: Sequence[float]
) -> dict[float, list[ViolationStats]]:
    """Fig 6 batch: every (snapshot, ε) cell with one mask pass each."""
    per_view = [analyze_snapshot_multi(view, epsilons) for view in views]
    return {
        epsilon: [stats[index] for stats in per_view]
        for index, epsilon in enumerate(epsilons)
    }


# ----------------------------------------------------------------------
# Binomial tails, batched
# ----------------------------------------------------------------------
#: Cached log-factorial table: _LOG_FACTORIALS[k] == math.lgamma(k + 1).
#: Built with math.lgamma so every term is the same double the scalar
#: oracle computes.
_LOG_FACTORIALS = np.zeros(1, dtype=float)


def _log_factorials(n: int) -> np.ndarray:
    """The table up to ``n`` inclusive (grown geometrically, cached)."""
    global _LOG_FACTORIALS
    if n >= len(_LOG_FACTORIALS):
        size = max(n + 1, 2 * len(_LOG_FACTORIALS))
        table = np.empty(size, dtype=float)
        table[: len(_LOG_FACTORIALS)] = _LOG_FACTORIALS
        for k in range(len(_LOG_FACTORIALS), size):
            table[k] = math.lgamma(k + 1)
        _LOG_FACTORIALS = table
    return _LOG_FACTORIALS


def _log_pmf_range(k_lo: int, k_hi: int, n: int, p: float) -> np.ndarray:
    """log P(B = k) for k in [k_lo, k_hi] with B ~ Binomial(n, p in (0,1))."""
    table = _log_factorials(n)
    k = np.arange(k_lo, k_hi + 1, dtype=np.int64)
    return (
        table[n]
        - table[k]
        - table[n - k]
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )


def _sum_exp(log_terms: np.ndarray) -> float:
    """exp(log-sum-exp), the peak-anchored form the oracle uses."""
    if not len(log_terms):
        return 0.0
    peak = float(log_terms.max())
    if peak == float("-inf"):
        return 0.0
    return float(math.exp(peak + math.log(float(np.sum(np.exp(log_terms - peak))))))


def binom_tail_upper_vec(x: int, n: int, p: float) -> float:
    """Vectorized P(B ≥ x); same branch logic as the scalar oracle."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0,1], got {p}")
    if x <= 0:
        return 1.0
    if x > n:
        return 0.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    if x > n * p:
        return min(1.0, _sum_exp(_log_pmf_range(x, n, n, p)))
    return max(0.0, 1.0 - min(1.0, _sum_exp(_log_pmf_range(0, x - 1, n, p))))


def binom_tail_lower_vec(x: int, n: int, p: float) -> float:
    """Vectorized P(B ≤ x); same branch logic as the scalar oracle."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0,1], got {p}")
    if x < 0:
        return 0.0
    if x >= n:
        return 1.0
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    if x < n * p:
        return min(1.0, _sum_exp(_log_pmf_range(0, x, n, p)))
    return max(0.0, 1.0 - min(1.0, _sum_exp(_log_pmf_range(x + 1, n, n, p))))


def binom_tail_upper_batch(
    xs: Sequence[int], n: int, p: float
) -> np.ndarray:
    """P(B ≥ x) for many x under one Binomial(n, p).

    The ext_power Monte-Carlo evaluates hundreds of draws against one
    null; deduplicating x values makes each distinct tail a single
    numpy reduction.
    """
    xs = np.asarray(xs, dtype=np.int64)
    unique, inverse = np.unique(xs, return_inverse=True)
    tails = np.asarray(
        [binom_tail_upper_vec(int(x), n, p) for x in unique], dtype=float
    )
    return tails[inverse]


def binom_tail_lower_batch(
    xs: Sequence[int], n: int, p: float
) -> np.ndarray:
    """P(B ≤ x) for many x under one Binomial(n, p)."""
    xs = np.asarray(xs, dtype=np.int64)
    unique, inverse = np.unique(xs, return_inverse=True)
    tails = np.asarray(
        [binom_tail_lower_vec(int(x), n, p) for x in unique], dtype=float
    )
    return tails[inverse]


def windowed_prioritization_test_vec(
    pool: str,
    windows: Sequence[tuple[float, Sequence[str]]],
    direction: str = "accelerate",
) -> float:
    """Vectorized §5.1.3 windowed test (Fisher-combined per-window tails)."""
    from .stattests import fishers_method

    if direction not in ("accelerate", "decelerate"):
        raise ValueError("direction must be 'accelerate' or 'decelerate'")
    tail = (
        binom_tail_upper_vec if direction == "accelerate" else binom_tail_lower_vec
    )
    p_values = []
    for theta0, miners in windows:
        if not miners:
            continue
        if not 0.0 < theta0 < 1.0:
            raise ValueError(f"theta0 must be in (0,1), got {theta0}")
        y = len(miners)
        x = sum(1 for miner in miners if miner == pool)
        p_values.append(tail(x, y, theta0))
    if not p_values:
        raise ValueError("no window contained c-blocks")
    if len(p_values) == 1:
        return p_values[0]
    return fishers_method(p_values)
