"""The Auditor: the paper's methodology as one high-level API.

``Auditor`` wraps a :class:`~repro.datasets.dataset.Dataset` and exposes
each analysis of §4 and §5 as a method.  Example::

    auditor = Auditor(build_dataset_c(scale=0.2))
    for row in auditor.self_interest_table(top_n=10):
        print(row.target_pool, row.test.p_accelerate, row.sppe)

Everything here is a thin join between the dataset's derived mappings
and the pure analysis functions in the sibling modules, so each piece
stays independently testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

import numpy as np

from ..chain.attribution import HashRateEstimate, estimate_hash_rates
from ..chain.block import Block
from ..chain.blockchain import Blockchain
from ..datasets.dataset import Dataset
from ..faults.quality import DataQualityReport, assess_quality
from ..mempool.snapshots import CONGESTION_BINS
from .acceleration import (
    TABLE4_THRESHOLDS,
    DetectionReport,
    DetectorScore,
    detection_sweep,
    score_detector,
)
from .congestion import (
    DelaySummary,
    commit_delays_in_blocks,
    delays_by_fee_band,
    fee_rates_by_congestion,
)
from .norms import CpfpFilter
from .ppe import (
    BlockPpe,
    PpeAccumulator,
    PpeSummary,
    SppeResult,
    sppe,
    summarize_ppe,
)
from .stattests import (
    PrioritizationAccumulator,
    PrioritizationTestResult,
    prioritization_test,
)
from .vectorized import (
    ChainArrays,
    analyze_snapshots_multi,
    chain_ppe_arrays,
    per_transaction_sppe_arrays,
    sppe_arrays,
)
from .violations import (
    SnapshotView,
    ViolationAccumulator,
    ViolationStats,
    analyze_snapshot,
    build_snapshot_view,
)


@dataclass(frozen=True)
class SelfInterestRow:
    """One Table 2 row: a (transaction owner, tested miner) pair."""

    owner_pool: str
    target_pool: str
    test: PrioritizationTestResult
    sppe: float
    tx_count: int


@dataclass(frozen=True)
class ScamRow:
    """One Table 3 row."""

    pool: str
    test: PrioritizationTestResult
    sppe: float


@dataclass
class AuditReport:
    """Everything :meth:`Auditor.audit` produces over one dataset.

    Fields degrade to None/empty instead of the audit raising; the
    ``quality`` report says how much to trust them, and ``notes``
    records every analysis that had to be skipped and why.
    """

    quality: DataQualityReport
    ppe: Optional[PpeSummary] = None
    delay: Optional[DelaySummary] = None
    violations: list[ViolationStats] = field(default_factory=list)
    self_interest: list[SelfInterestRow] = field(default_factory=list)
    scam: list[ScamRow] = field(default_factory=list)
    congested_fraction: float = float("nan")
    notes: list[str] = field(default_factory=list)


_T = TypeVar("_T")


class Auditor:
    """Run the paper's audits against one dataset.

    The auditor tolerates degraded inputs: partial mempool coverage,
    snapshot gaps, orphaned blocks and unmined pools produce degenerate
    results plus a :class:`DataQualityReport` — never an exception from
    :meth:`audit`.
    """

    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset
        self._quality: Optional[DataQualityReport] = None
        self._arrays: dict[CpfpFilter, ChainArrays] = {}

    def arrays(
        self, cpfp_filter: CpfpFilter = CpfpFilter.CHILDREN
    ) -> ChainArrays:
        """The dataset's chain packed for the vectorized path (cached)."""
        cached = self._arrays.get(cpfp_filter)
        if cached is None:
            cached = ChainArrays.from_dataset(self.dataset, cpfp_filter)
            self._arrays[cpfp_filter] = cached
        return cached

    def quality_report(self) -> DataQualityReport:
        """Measured coverage/gap statistics of this dataset (cached)."""
        if self._quality is None:
            self._quality = assess_quality(self.dataset)
        return self._quality

    # ------------------------------------------------------------------
    # §4.2.2 — in-block ordering
    # ------------------------------------------------------------------
    def ppe_distribution(
        self, cpfp_filter: CpfpFilter = CpfpFilter.CHILDREN
    ) -> list[BlockPpe]:
        """Per-block PPE over the whole chain (Fig 7a input)."""
        return chain_ppe_arrays(self.arrays(cpfp_filter))

    def ppe_summary(self) -> PpeSummary:
        return summarize_ppe(self.ppe_distribution())

    def ppe_by_pool(self, pools: Sequence[str]) -> dict[str, list[BlockPpe]]:
        """PPE distributions for named pools (Fig 7b input)."""
        arrays = self.arrays()
        return {
            pool: chain_ppe_arrays(arrays, block_mask=arrays.block_mask(pool))
            for pool in pools
        }

    # ------------------------------------------------------------------
    # §4.2.1 — pairwise selection violations
    # ------------------------------------------------------------------
    def snapshot_views(
        self,
        count: int = 30,
        rng: Optional[np.random.Generator] = None,
        exclude_cpfp: bool = False,
    ) -> list[SnapshotView]:
        """Join ``count`` random snapshots with commit data (Fig 6 input)."""
        rng = rng if rng is not None else np.random.default_rng(30)
        snapshots = self.dataset.snapshots.sample(count, rng)
        commit_heights = self.dataset.commit_heights()
        cpfp = self.dataset.cpfp_txids() if exclude_cpfp else None
        return [
            build_snapshot_view(snapshot, commit_heights, cpfp)
            for snapshot in snapshots
        ]

    def violation_stats(
        self,
        epsilon: float = 0.0,
        count: int = 30,
        exclude_cpfp: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> list[ViolationStats]:
        """Violation fractions per sampled snapshot at one ε."""
        views = self.snapshot_views(count, rng=rng, exclude_cpfp=exclude_cpfp)
        return [analyze_snapshot(view, epsilon) for view in views]

    def violation_stats_multi(
        self,
        epsilons: Sequence[float],
        count: int = 30,
        exclude_cpfp: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> dict[float, list[ViolationStats]]:
        """Violation stats for a whole ε grid over one snapshot sample.

        Joins the snapshots once and reuses the ε-independent pair
        comparisons across the grid — the Fig 6 entry point.
        """
        views = self.snapshot_views(count, rng=rng, exclude_cpfp=exclude_cpfp)
        return analyze_snapshots_multi(views, epsilons)

    # ------------------------------------------------------------------
    # §5.1/§5.2 — differential prioritization
    # ------------------------------------------------------------------
    def prioritization_test_for(
        self, target_pool: str, txids: Iterable[str], coverage: float = 1.0
    ) -> PrioritizationTestResult:
        """Both directional binomial tests of ``target_pool`` on ``txids``.

        A pool with no attributable blocks (or one owning the whole
        chain) admits no binomial test — instead of raising, the result
        degenerates to x = y = 0 with p-values of 1.0, which downstream
        tables treat as "no evidence".
        """
        theta0 = self.dataset.hash_rate_of(target_pool)
        if not 0.0 < theta0 < 1.0:
            return PrioritizationTestResult(
                pool=target_pool,
                theta0=theta0,
                x=0,
                y=0,
                p_accelerate=1.0,
                p_decelerate=1.0,
                coverage=coverage,
            )
        miners = self.dataset.c_block_miners(txids)
        return prioritization_test(target_pool, theta0, miners, coverage=coverage)

    def observed_prioritization_test_for(
        self, target_pool: str, txids: Iterable[str]
    ) -> PrioritizationTestResult:
        """Prioritization test restricted to what the observer saw.

        A degraded observer cannot audit transactions it never
        recorded; this variant intersects the candidate set with the
        observed transactions and stamps the result with the resulting
        coverage, so detection power degrades with measurement loss the
        way it would for a real, lossy vantage point.
        """
        txids = set(txids)
        observed = {
            txid
            for txid in txids
            if (record := self.dataset.tx_records.get(txid)) is not None
            and record.observed
        }
        committed = sum(
            1
            for txid in txids
            if (record := self.dataset.tx_records.get(txid)) is not None
            and record.committed
        )
        committed_observed = sum(
            1
            for txid in observed
            if self.dataset.tx_records[txid].committed
        )
        coverage = committed_observed / committed if committed else 1.0
        return self.prioritization_test_for(
            target_pool, observed, coverage=max(coverage, 1e-9)
        )

    def sppe_for(
        self, target_pool: str, txids: Iterable[str]
    ) -> SppeResult:
        """SPPE of ``txids`` inside blocks mined by ``target_pool``.

        The scalar oracle: the result carries the full per-tx prediction
        records.  Table loops that only need the SPPE scalar go through
        :meth:`sppe_value` instead.
        """
        return sppe(self.dataset.blocks_of(target_pool), txids)

    def sppe_value(self, target_pool: str, txids: Iterable[str]) -> float:
        """SPPE of ``txids`` in ``target_pool``'s blocks, scalar only."""
        return sppe_arrays(self.arrays(), txids, pool=target_pool).sppe

    def self_interest_table(
        self,
        owner_pools: Optional[Sequence[str]] = None,
        target_pools: Optional[Sequence[str]] = None,
        min_target_share: float = 0.035,
        use_inferred: bool = True,
    ) -> list[SelfInterestRow]:
        """Reproduce Table 2: every (owner, target) pair's test + SPPE.

        ``use_inferred`` selects between the auditor's wallet-based
        inference of self-interest transactions (the paper's §5.2
        method) and the simulator's ground-truth labels.

        Hash shares are read once, each owner's transaction set comes
        from the chain's address index (one pass, not one scan per
        owner), its c-block labels are computed once instead of once per
        target, and SPPE selects from the packed arrays via a
        precomputed match.  The binomial tails reuse the scalar oracle
        (they are cheap and this keeps p-values bit-identical).  Row for
        row identical to :func:`self_interest_table_reference`.
        """
        owner_pools, target_pools = _table2_pools(
            self.dataset, owner_pools, target_pools, min_target_share
        )
        arrays = self.arrays()
        shares = {est.pool: est.share for est in self.dataset.hash_rates()}
        rows: list[SelfInterestRow] = []
        for owner in owner_pools:
            txids = (
                self.dataset.inferred_self_interest_txids_indexed(owner)
                if use_inferred
                else self.dataset.self_interest_txids(owner)
            )
            if not txids:
                continue
            miners = self.dataset.c_block_miners(txids)
            matched = arrays.match_indices(txids)
            for target in target_pools:
                theta0 = shares.get(target, 0.0)
                if not 0.0 < theta0 < 1.0:
                    continue  # mirrors the degenerate y == 0 skip
                test = prioritization_test(target, theta0, miners)
                if test.y == 0:
                    continue
                sppe_result = sppe_arrays(
                    arrays, txids, pool=target, matched=matched
                )
                rows.append(
                    SelfInterestRow(
                        owner_pool=owner,
                        target_pool=target,
                        test=test,
                        sppe=sppe_result.sppe,
                        tx_count=len(txids),
                    )
                )
        return rows

    # ------------------------------------------------------------------
    # §5.3 — scam payments
    # ------------------------------------------------------------------
    def scam_table(
        self, target_pools: Optional[Sequence[str]] = None, min_share: float = 0.05
    ) -> list[ScamRow]:
        """Reproduce Table 3 over the dataset's scam transactions."""
        scam_txids = self.dataset.scam_txids()
        if target_pools is None:
            target_pools = [
                est.pool
                for est in self.dataset.hash_rates()
                if est.share >= min_share and est.pool != "unknown"
            ]
        rows = []
        for pool in target_pools:
            test = self.prioritization_test_for(pool, scam_txids)
            rows.append(
                ScamRow(
                    pool=pool,
                    test=test,
                    sppe=self.sppe_value(pool, scam_txids),
                )
            )
        return rows

    # ------------------------------------------------------------------
    # §5.4 — dark-fee acceleration
    # ------------------------------------------------------------------
    def dark_fee_sweep(
        self,
        pool: str,
        service_name: str = "",
        thresholds: Sequence[float] = TABLE4_THRESHOLDS,
        rng: Optional[np.random.Generator] = None,
    ) -> DetectionReport:
        """Reproduce Table 4 for one pool.

        The dataset's accelerated-transaction labels play the role of
        the service's public checker.  The per-tx SPPE comes from the
        packed arrays, so the sweep reads no blocks.
        """
        accelerated = self.dataset.accelerated_txids(service_name)
        return detection_sweep(
            (),
            is_accelerated=lambda txid: txid in accelerated,
            pool=pool,
            thresholds=thresholds,
            rng=rng if rng is not None else np.random.default_rng(4),
            sppe_by_txid=per_transaction_sppe_arrays(self.arrays(), pool=pool),
        )

    def dark_fee_scores(
        self, pool: str, service_name: str = ""
    ) -> list[DetectorScore]:
        """Precision *and* recall against ground truth (extension)."""
        accelerated = self.dataset.accelerated_txids(service_name)
        return score_detector(
            (),
            accelerated,
            sppe_by_txid=per_transaction_sppe_arrays(self.arrays(), pool=pool),
        )

    # ------------------------------------------------------------------
    # §4.1 — congestion and delays
    # ------------------------------------------------------------------
    def commit_delays(
        self, include_censored: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """(fee-rates, delays-in-blocks) for observed transactions.

        With ``include_censored``, transactions the observer saw but
        that never committed within the measurement window contribute a
        right-censored delay (blocks remaining until the chain tip).
        Committed-only delays suffer survivor bias: the most-delayed
        low-fee transactions are exactly the ones still pending when
        the window closes.
        """
        block_times = self.dataset.block_times()
        arrivals, heights, rates = self.dataset.observed_records()
        committed = heights >= 0
        if include_censored:
            heights = np.where(committed, heights, len(block_times) - 1)
        else:
            arrivals = arrivals[committed]
            heights = heights[committed]
            rates = rates[committed]
        if not arrivals.size:
            return np.empty(0), np.empty(0, dtype=np.int64)
        delays = commit_delays_in_blocks(arrivals, heights, block_times)
        return rates, delays

    def delay_summary(self) -> DelaySummary:
        """Headline commit-delay stats (Fig 4a text)."""
        _, delays = self.commit_delays()
        return DelaySummary.from_delays(delays)

    def delay_by_fee_band(
        self, include_censored: bool = False
    ) -> dict[str, np.ndarray]:
        """Delay distributions per fee band (Fig 5 / Fig 12)."""
        rates, delays = self.commit_delays(include_censored=include_censored)
        return delays_by_fee_band(rates, delays)

    def fee_rates_by_congestion_level(self) -> dict[str, np.ndarray]:
        """Fee-rates grouped by congestion at issuance (Fig 4c / Fig 11).

        An observer whose snapshot timeline is entirely missing (total
        downtime) yields empty groups rather than an error.
        """
        source = self.dataset.size_series or self.dataset.snapshots
        if len(source.times) == 0:
            return {label: np.empty(0) for label in CONGESTION_BINS}
        arrivals, _, rates = self.dataset.observed_records()
        return fee_rates_by_congestion(arrivals, rates, source)

    def congested_fraction(self) -> float:
        """Share of snapshot ticks with a >1 MvB backlog (Fig 3b)."""
        if self.dataset.size_series is not None:
            return self.dataset.size_series.congested_fraction()
        return self.dataset.snapshots.congested_fraction()

    # ------------------------------------------------------------------
    # Degradation-tolerant facade
    # ------------------------------------------------------------------
    def _safe(
        self,
        label: str,
        compute: Callable[[], _T],
        fallback: _T,
        notes: list[str],
    ) -> _T:
        try:
            return compute()
        except Exception as exc:  # degradation tolerance: record, don't raise
            notes.append(f"{label}: skipped ({exc})")
            return fallback

    def audit(self, snapshot_count: int = 10) -> AuditReport:
        """Every audit section over this dataset, degradation-tolerant.

        Never raises on partial data: each section that cannot be
        computed is skipped with a note, and the attached
        :class:`DataQualityReport` quantifies how degraded the inputs
        were.
        """
        notes: list[str] = []
        report = AuditReport(quality=self.quality_report(), notes=notes)
        report.ppe = self._safe("ppe", self.ppe_summary, None, notes)
        report.delay = self._safe("delay", self.delay_summary, None, notes)
        report.violations = self._safe(
            "violations",
            lambda: self.violation_stats(count=snapshot_count),
            [],
            notes,
        )
        report.self_interest = self._safe(
            "self-interest", self.self_interest_table, [], notes
        )
        report.scam = self._safe("scam", self.scam_table, [], notes)
        report.congested_fraction = self._safe(
            "congestion", self.congested_fraction, float("nan"), notes
        )
        return report


def _table2_pools(
    dataset: Dataset,
    owner_pools: Optional[Sequence[str]],
    target_pools: Optional[Sequence[str]],
    min_target_share: float,
) -> tuple[Sequence[str], Sequence[str]]:
    """Table 2's default owners (top 20) and targets (share floor)."""
    estimates = dataset.hash_rates()
    if owner_pools is None:
        named = [est.pool for est in estimates if est.pool != "unknown"]
        owner_pools = named[:20]
    if target_pools is None:
        target_pools = [
            est.pool
            for est in estimates
            if est.share >= min_target_share and est.pool != "unknown"
        ]
    return owner_pools, target_pools


def self_interest_table_reference(
    auditor: Auditor,
    owner_pools: Optional[Sequence[str]] = None,
    target_pools: Optional[Sequence[str]] = None,
    min_target_share: float = 0.035,
    use_inferred: bool = True,
) -> list[SelfInterestRow]:
    """Reference Table 2 loop: per-pair scans, no shared state.

    The oracle for :meth:`Auditor.self_interest_table` — same arguments,
    same rows — built from the scalar wallet scan, the per-pair
    :meth:`Auditor.prioritization_test_for` and :meth:`Auditor.sppe_for`.
    """
    dataset = auditor.dataset
    owner_pools, target_pools = _table2_pools(
        dataset, owner_pools, target_pools, min_target_share
    )
    rows: list[SelfInterestRow] = []
    for owner in owner_pools:
        txids = (
            dataset.inferred_self_interest_txids(owner)
            if use_inferred
            else dataset.self_interest_txids(owner)
        )
        if not txids:
            continue
        for target in target_pools:
            test = auditor.prioritization_test_for(target, txids)
            if test.y == 0:
                continue
            rows.append(
                SelfInterestRow(
                    owner_pool=owner,
                    target_pool=target,
                    test=test,
                    sppe=auditor.sppe_for(target, txids).sppe,
                    tx_count=len(txids),
                )
            )
    return rows


# ----------------------------------------------------------------------
# Streaming (incremental) auditing
# ----------------------------------------------------------------------
class _StreamingDatasetView(Dataset):
    """A :class:`Dataset` whose chain-derived mappings come from folds.

    The batch :class:`Dataset` answers ``hash_rates``/``commit_heights``/
    ``cpfp_txids``/``c_block_miners``/``blocks_of`` with full scans of
    the chain or the record table.  This view delegates them to the
    accumulators a :class:`StreamingAuditor` maintains, so a query after
    block *h* touches only fold-time state — while every *other* Dataset
    method (labels, wallets, delays, summaries) keeps its inherited
    batch semantics over the same underlying objects.

    Equivalence with the batch answers over the folded prefix is the
    contract (see each accumulator's docstring); one deliberate
    exception is documented on :meth:`commit_heights`.
    """

    # The three accumulators are attached by StreamingAuditor right
    # after construction (they are plain attributes, not dataclass
    # fields, so __eq__/__repr__ never see them).
    _ppe_acc: PpeAccumulator
    _violation_acc: ViolationAccumulator
    _prio_acc: PrioritizationAccumulator

    def blocks_of(self, pool: str) -> list[Block]:
        return self._ppe_acc.pool_blocks(pool)

    def hash_rates(self) -> list[HashRateEstimate]:
        return estimate_hash_rates(self._prio_acc.labels)

    def hash_rate_of(self, pool: str) -> float:
        return self._prio_acc.share(pool)

    def commit_heights(self) -> dict[str, int]:
        """txid → height over *folded blocks* (not just recorded txs).

        Superset of the batch mapping when the chain holds transactions
        the observer never recorded; such transactions can never appear
        in a mempool snapshot, so every snapshot join is unaffected.
        """
        return dict(self._violation_acc.commit_heights)

    def cpfp_txids(self) -> frozenset[str]:
        return frozenset(self._violation_acc.cpfp_txids)

    def c_block_miners(self, txids: Iterable[str]) -> list[str]:
        return self._prio_acc.miners(self._violation_acc.heights_of(txids))


def stream_blocks(dataset: Dataset) -> Iterator[tuple[int, str, Block]]:
    """Yield (height, pool, block) in chain order — the replay feed.

    Blocks without an attribution fall back to the ``"unknown"`` label,
    mirroring what attribution produces for unmatched coinbases.
    """
    for block in dataset.chain:
        pool = dataset.block_pools.get(block.height, "unknown")
        yield block.height, pool, block


class StreamingAuditor(Auditor):
    """An :class:`Auditor` that folds one committed block at a time.

    Construction takes only the *observer context* — mempool snapshots
    and transaction records with their commit columns cleared — and an
    empty chain.  Each :meth:`fold_block` appends a block (validated for
    height/prev-hash continuity by :class:`Blockchain`), re-marks the
    committed records, and folds the three incremental accumulators.

    Equivalence contract (pinned by the streaming differential tests):
    after folding every block of a dataset in chain order, every query —
    including the full :meth:`Auditor.audit` — returns bit-identical
    results to a batch :class:`Auditor` over the original dataset.
    This holds because the accumulator-backed overrides reuse the exact
    batch functions over identical state, and the differential tests
    pin every vectorized :class:`Auditor` method to its scalar oracle,
    which they call by name.
    """

    def __init__(
        self,
        name: str,
        snapshots,
        tx_records: dict[str, "TxRecord"],
        pool_wallets=None,
        size_series=None,
        metadata=None,
        cpfp_filter: CpfpFilter = CpfpFilter.CHILDREN,
    ) -> None:
        records = {
            txid: (
                replace(record, commit_height=None, commit_position=None)
                if record.commit_height is not None
                else record
            )
            for txid, record in tx_records.items()
        }
        view = _StreamingDatasetView(
            name=name,
            chain=Blockchain(),
            snapshots=snapshots,
            tx_records=records,
            block_pools={},
            pool_wallets=dict(pool_wallets or {}),
            size_series=size_series,
            metadata=dict(metadata or {}),
        )
        self._ppe_acc = PpeAccumulator(cpfp_filter)
        self._violation_acc = ViolationAccumulator()
        self._prio_acc = PrioritizationAccumulator()
        view._ppe_acc = self._ppe_acc
        view._violation_acc = self._violation_acc
        view._prio_acc = self._prio_acc
        super().__init__(view)

    @classmethod
    def from_dataset(
        cls, dataset: Dataset, cpfp_filter: CpfpFilter = CpfpFilter.CHILDREN
    ) -> "StreamingAuditor":
        """Observer context of ``dataset`` with nothing folded yet.

        The dataset's chain is *not* copied: blocks are expected to
        arrive through :meth:`fold_block` (e.g. via
        :func:`stream_blocks`), which is exactly what the differential
        tests exploit.
        """
        return cls(
            name=dataset.name,
            snapshots=dataset.snapshots,
            tx_records=dataset.tx_records,
            pool_wallets=dataset.pool_wallets,
            size_series=dataset.size_series,
            metadata=dataset.metadata,
            cpfp_filter=cpfp_filter,
        )

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------
    @property
    def applied_height(self) -> int:
        """Height of the last folded block (-1 before the first)."""
        return self.dataset.chain.height

    @property
    def expected_height(self) -> int:
        """The only height :meth:`fold_block` will accept next."""
        return self.dataset.chain.height + 1

    def fold_block(self, block: Block, pool: str) -> None:
        """Fold one committed, attributed block into every accumulator.

        Appending validates chain linkage, so a gapped or reordered feed
        raises before any state is touched; afterwards the records of
        the block's transactions regain their commit columns exactly as
        batch curation set them (height + in-block position).
        """
        chain = self.dataset.chain
        chain.append(block)
        self.dataset.block_pools[block.height] = pool
        records = self.dataset.tx_records
        for position, tx in enumerate(block.transactions):
            record = records.get(tx.txid)
            if record is not None:
                records[tx.txid] = replace(
                    record,
                    commit_height=block.height,
                    commit_position=position,
                )
        self._ppe_acc.fold(block, pool)
        self._violation_acc.fold(block)
        self._prio_acc.fold(block.height, pool)
        # Chain-derived caches are stale the moment the tip moves.
        self._arrays.clear()
        self._quality = None

    # ------------------------------------------------------------------
    # Accumulator-backed query overrides
    # ------------------------------------------------------------------
    def ppe_distribution(
        self, cpfp_filter: CpfpFilter = CpfpFilter.CHILDREN
    ) -> list[BlockPpe]:
        if cpfp_filter is not self._ppe_acc.cpfp_filter:
            return super().ppe_distribution(cpfp_filter)
        return list(self._ppe_acc.results)

    def ppe_by_pool(self, pools: Sequence[str]) -> dict[str, list[BlockPpe]]:
        return {pool: list(self._ppe_acc.by_pool.get(pool, ())) for pool in pools}

    def snapshot_views(
        self,
        count: int = 30,
        rng: Optional[np.random.Generator] = None,
        exclude_cpfp: bool = False,
    ) -> list[SnapshotView]:
        rng = rng if rng is not None else np.random.default_rng(30)
        snapshots = self.dataset.snapshots.sample(count, rng)
        return [
            self._violation_acc.snapshot_view(snapshot, exclude_cpfp)
            for snapshot in snapshots
        ]

    def prioritization_test_for(
        self, target_pool: str, txids: Iterable[str], coverage: float = 1.0
    ) -> PrioritizationTestResult:
        return self._prio_acc.test_for(
            target_pool,
            self._violation_acc.heights_of(txids),
            coverage=coverage,
        )

    def sppe_for(self, target_pool: str, txids: Iterable[str]) -> SppeResult:
        return self._ppe_acc.sppe(target_pool, txids)

    def sppe_value(self, target_pool: str, txids: Iterable[str]) -> float:
        return self._ppe_acc.sppe(target_pool, txids).sppe

    def self_interest_table(
        self,
        owner_pools: Optional[Sequence[str]] = None,
        target_pools: Optional[Sequence[str]] = None,
        min_target_share: float = 0.035,
        use_inferred: bool = True,
    ) -> list[SelfInterestRow]:
        """Table 2 off accumulator state — no packed-array rebuild.

        Row-for-row identical to the batch table and its reference: pool
        selection reads the accumulator-backed ``hash_rates``, each test
        uses the same (θ0, c-block miners) inputs, and the SPPE comes
        from the scalar oracle over the per-pool block lists (which the
        oracle pins equal to ``sppe_arrays``).
        """
        owner_pools, target_pools = _table2_pools(
            self.dataset, owner_pools, target_pools, min_target_share
        )
        rows: list[SelfInterestRow] = []
        for owner in owner_pools:
            txids = (
                self.dataset.inferred_self_interest_txids_indexed(owner)
                if use_inferred
                else self.dataset.self_interest_txids(owner)
            )
            if not txids:
                continue
            heights = self._violation_acc.heights_of(txids)
            for target in target_pools:
                test = self._prio_acc.test_for(target, heights)
                if test.y == 0:
                    continue
                rows.append(
                    SelfInterestRow(
                        owner_pool=owner,
                        target_pool=target,
                        test=test,
                        sppe=self._ppe_acc.sppe(target, txids).sppe,
                        tx_count=len(txids),
                    )
                )
        return rows
