"""Decade-scale macro history: chain growth, fee revenue, norm eras.

Three of the paper's artefacts span years of chain history rather than
one measurement campaign:

* **Fig 3a** — cumulative transactions and blocks since 2009, showing
  60% of all transactions arriving in the last 3.5 years;
* **Table 5** — the fee share of miner revenue per year, 2016-2020;
* **Fig 1** — the April 2016 switch from coin-age-priority ordering to
  fee-rate ordering in Bitcoin Core, visible as a step change in
  position-prediction error.

Simulating a decade at transaction granularity is wasteful; instead the
history generator works at block granularity with a calibrated demand
curve (documented substitution in DESIGN.md): per-block fee totals are
*derived from a per-era fee-rate level* and then measured, never echoed
straight into the output tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..chain.address import AddressFactory
from ..chain.block import Block, GENESIS_HASH, build_block
from ..chain.constants import COIN, MAX_BLOCK_VSIZE, block_subsidy, HALVING_INTERVAL
from ..chain.transaction import TransactionBuilder, coinbase_value, make_coinbase
from ..mempool.mempool import MempoolEntry
from ..mining.policies import FeeRatePolicy, OrderingPolicy, PriorityPolicy
from .rng import RngStreams

#: Blocks per calendar year at the 10-minute target.
BLOCKS_PER_YEAR = 52_560

#: Bitcoin Core moved fully to fee-rate ordering in April 2016 (Fig 1).
NORM_SWITCH_YEAR = 2016.25


@dataclass(frozen=True)
class YearDemand:
    """Calibrated demand level for one year.

    ``tx_millions`` approximates the real yearly transaction volume;
    ``fee_share_target`` is the paper's Table 5 mean fee share, from
    which we back out a per-block fee level.  The generator adds noise
    and *measures* the resulting share.
    """

    year: int
    tx_millions: float
    fee_share_target: float


#: Yearly transaction volumes (approximate public chain statistics) and
#: the paper's measured mean fee shares (Table 5; pre-2016 years get
#: small shares consistent with the era).
YEARLY_DEMAND: tuple[YearDemand, ...] = (
    YearDemand(2009, 0.03, 0.0001),
    YearDemand(2010, 0.19, 0.0005),
    YearDemand(2011, 1.9, 0.002),
    YearDemand(2012, 8.4, 0.004),
    YearDemand(2013, 19.8, 0.008),
    YearDemand(2014, 25.4, 0.009),
    YearDemand(2015, 45.7, 0.011),
    YearDemand(2016, 82.7, 0.0248),
    YearDemand(2017, 104.0, 0.1177),
    YearDemand(2018, 81.2, 0.0319),
    YearDemand(2019, 119.8, 0.0275),
    YearDemand(2020, 112.5, 0.0629),
)


def chain_growth_series(
    demands: Sequence[YearDemand] = YEARLY_DEMAND,
) -> dict[str, np.ndarray]:
    """Cumulative blocks and transactions per year (Fig 3a series).

    Returns arrays keyed ``years``, ``cumulative_blocks``,
    ``cumulative_txs`` — blocks grow linearly by protocol design while
    transactions accelerate sharply from 2017.
    """
    years = np.asarray([d.year for d in demands], dtype=float)
    blocks = np.cumsum(np.full(len(demands), BLOCKS_PER_YEAR, dtype=float))
    txs = np.cumsum(np.asarray([d.tx_millions * 1e6 for d in demands]))
    return {
        "years": years,
        "cumulative_blocks": blocks,
        "cumulative_txs": txs,
    }


def recent_transaction_share(
    growth: dict[str, np.ndarray], last_years: float = 3.5
) -> float:
    """Fraction of all transactions issued in the final ``last_years``.

    The paper highlights that ~60% of all transactions arrived in the
    last 3.5 years of the decade.  ``cumulative_txs[i]`` is the total at
    the *end* of ``years[i]``, so the interpolation axis is shifted to
    calendar year-ends before cutting.
    """
    year_ends = growth["years"] + 1.0
    txs = growth["cumulative_txs"]
    cutoff = year_ends[-1] - last_years
    before = float(np.interp(cutoff, year_ends, txs))
    return float((txs[-1] - before) / txs[-1])


@dataclass(frozen=True)
class YearRevenue:
    """Measured Table 5 row."""

    year: int
    block_count: int
    mean: float
    std: float
    min: float
    p25: float
    median: float
    p75: float
    max: float


def _height_for_year(year: int) -> int:
    """Approximate starting block height of a calendar year."""
    return max(int((year - 2009) * BLOCKS_PER_YEAR), 0)


def sample_fee_revenue(
    years: Sequence[int] = (2016, 2017, 2018, 2019, 2020),
    blocks_per_year: int = 600,
    seed: int = 5_2021,
    demands: Sequence[YearDemand] = YEARLY_DEMAND,
) -> list[YearRevenue]:
    """Generate per-block fee revenue samples and measure Table 5.

    For each sampled block we draw a fee-rate level around the year's
    calibrated mean (log-normal, long-tailed), a fill level, and compute
    fees over a 1 MvB block; the revenue share is then *measured*
    against the era's halving-correct subsidy.
    """
    by_year = {demand.year: demand for demand in demands}
    rng = np.random.default_rng(seed)
    rows: list[YearRevenue] = []
    for year in years:
        demand = by_year[year]
        start_height = _height_for_year(year)
        heights = rng.integers(
            start_height, start_height + BLOCKS_PER_YEAR, size=blocks_per_year
        )
        subsidies = np.asarray([block_subsidy(int(h)) for h in heights], dtype=float)
        # Back out the mean per-block fee from the calibrated share s:
        # fees = s / (1 - s) * subsidy, then spread it log-normally.
        share = demand.fee_share_target
        mean_fees = share / (1.0 - share) * subsidies
        sigma = 0.85
        fees = rng.lognormal(
            mean=np.log(np.maximum(mean_fees, 1.0)) - sigma**2 / 2.0, sigma=sigma
        )
        # A few near-empty blocks collect almost nothing.
        empty = rng.random(blocks_per_year) < 0.005
        fees[empty] = rng.uniform(0.0, 0.01 * COIN, size=int(empty.sum()))
        shares = 100.0 * fees / (fees + subsidies)
        rows.append(
            YearRevenue(
                year=year,
                block_count=blocks_per_year,
                mean=float(shares.mean()),
                std=float(shares.std(ddof=0)),
                min=float(shares.min()),
                p25=float(np.percentile(shares, 25)),
                median=float(np.median(shares)),
                p75=float(np.percentile(shares, 75)),
                max=float(shares.max()),
            )
        )
    return rows


# ----------------------------------------------------------------------
# Fig 1: the April 2016 ordering-norm switch
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EraBlock:
    """A generated block tagged with its fractional year."""

    year: float
    block: Block


def iter_era_blocks(
    start_year: float = 2015.0,
    end_year: float = 2017.0,
    blocks_per_month: int = 12,
    txs_per_block: int = 120,
    seed: int = 1_2016,
    switch_year: float = NORM_SWITCH_YEAR,
):
    """Stream era blocks one at a time (the Fig 1 hot path).

    Yields exactly the :class:`EraBlock` sequence of
    :func:`generate_era_blocks` without ever materialising the history:
    consumers that fold each block into an accumulator (per-block PPE,
    era CDFs) hold one block at a time instead of two years of chain.
    """
    rng = RngStreams(seed).stream("era")
    builder = TransactionBuilder(namespace=f"era/{seed}")
    addresses = AddressFactory(namespace=f"era-users/{seed}")
    prev_hash = GENESIS_HASH
    nonce = 0
    pre_policy = PriorityPolicy()
    post_policy = FeeRatePolicy(package_selection=False)
    months = int(round((end_year - start_year) * 12))
    for height in range(months * blocks_per_month):
        month = height // blocks_per_month
        year = start_year + month / 12.0
        policy: OrderingPolicy = pre_policy if year < switch_year else post_policy
        entries = []
        for _ in range(txs_per_block):
            vsize = int(rng.integers(150, 2000))
            rate = float(rng.lognormal(np.log(20.0), 1.0))
            nonce += 1
            tx = builder.build(
                to_address=addresses.next(),
                value=int(rng.integers(10**4, 10**9)),
                fee=max(int(rate * vsize), 1),
                vsize=vsize,
                nonce=nonce,
            )
            entries.append(MempoolEntry(tx=tx, arrival_time=0.0))
        template = policy.build(entries, max_vsize=MAX_BLOCK_VSIZE, reserved_vsize=200)
        timestamp = (year - 2009.0) * 365.25 * 86400.0 + height
        coinbase = make_coinbase(
            reward_address=addresses.next(),
            value=coinbase_value(
                block_subsidy(_height_for_year(int(year))), template.total_fee
            ),
            marker="/era/",
            height=height,
            vsize=200,
        )
        block = build_block(
            height=height,
            prev_hash=prev_hash,
            timestamp=timestamp,
            coinbase=coinbase,
            transactions=template.transactions,
        )
        prev_hash = block.block_hash
        yield EraBlock(year=year, block=block)


def generate_era_blocks(
    start_year: float = 2015.0,
    end_year: float = 2017.0,
    blocks_per_month: int = 12,
    txs_per_block: int = 120,
    seed: int = 1_2016,
    switch_year: float = NORM_SWITCH_YEAR,
) -> list[EraBlock]:
    """Blocks mined under the era-appropriate ordering norm.

    Before ``switch_year`` miners order by coin-age priority
    (:class:`PriorityPolicy`); from it onward they order by fee-rate.
    Each block draws a fresh synthetic mempool so PPE reflects ordering
    policy, not workload idiosyncrasies.

    This is ``list(iter_era_blocks(...))``; streaming consumers should
    call the iterator directly instead of materialising the history.
    """
    return list(
        iter_era_blocks(
            start_year=start_year,
            end_year=end_year,
            blocks_per_month=blocks_per_month,
            txs_per_block=txs_per_block,
            seed=seed,
            switch_year=switch_year,
        )
    )


def split_by_switch(
    era_blocks: Sequence[EraBlock], switch_year: float = NORM_SWITCH_YEAR
) -> tuple[list[Block], list[Block]]:
    """(pre-switch blocks, post-switch blocks)."""
    pre = [eb.block for eb in era_blocks if eb.year < switch_year]
    post = [eb.block for eb in era_blocks if eb.year >= switch_year]
    return pre, post


def halving_heights(max_height: Optional[int] = None) -> list[int]:
    """Heights at which the subsidy halves (for documentation plots)."""
    top = max_height if max_height is not None else 4 * HALVING_INTERVAL
    return list(range(HALVING_INTERVAL, top + 1, HALVING_INTERVAL))
