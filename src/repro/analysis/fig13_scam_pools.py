"""Fig 13 — pool activity during the scam window.

Blocks mined and transactions confirmed by each pool during the Twitter
scam episode.  The shape target: the per-pool block shares within the
window track the pools' overall hash rates (nobody joined or left the
race because of the scam).
"""

from __future__ import annotations

import numpy as np

from .base import DataContext, ExperimentResult, check
from .tables import render_table

PAPER = {
    "window_blocks": 3697,
    "window_txs": 8_318_621,
    "top5": ["Poolin", "F2Pool", "BTC.com", "AntPool", "Huobi"],
}


def run(ctx: DataContext) -> ExperimentResult:
    """Regenerate Fig 13's scam-window pool distribution."""
    dataset = ctx.dataset_c()
    window = dataset.metadata.get("scam_window")
    if window is None:
        # Derive the window from the scam transactions themselves.
        scam_records = [
            dataset.tx_records[txid] for txid in dataset.scam_txids()
        ]
        times = [r.broadcast_time for r in scam_records]
        window = (min(times), max(times)) if times else (0.0, 0.0)
    start, end = window

    # Heights index the chain, so both arrays are indexed by height.
    times = dataset.block_times()
    tx_counts = dataset.block_tx_counts().tolist()
    in_window = np.flatnonzero((start <= times) & (times <= end)).tolist()
    pool_blocks: dict[str, int] = {}
    pool_txs: dict[str, int] = {}
    for height in in_window:
        pool = dataset.block_pools.get(height, "unknown")
        pool_blocks[pool] = pool_blocks.get(pool, 0) + 1
        pool_txs[pool] = pool_txs.get(pool, 0) + tx_counts[height]
    total_blocks = len(in_window)
    overall = {est.pool: est.share for est in dataset.hash_rates()}
    rows = sorted(
        (
            (
                pool,
                count,
                count / total_blocks if total_blocks else float("nan"),
                overall.get(pool, 0.0),
                pool_txs.get(pool, 0),
            )
            for pool, count in pool_blocks.items()
        ),
        key=lambda row: -row[1],
    )
    rendered = render_table(
        ["pool", "window blocks", "window share", "overall share", "window txs"],
        rows,
        title="Fig 13: pool activity during the scam window",
    )
    # Shares within the window should track overall shares for pools
    # with enough blocks to measure; the sample-size floor and the
    # tolerated deviation adapt to how small the window is.
    min_blocks = 5 if total_blocks >= 100 else 2
    tolerance = 0.08 if total_blocks >= 100 else 0.15
    deviations = [
        abs(row[2] - row[3])
        for row in rows
        if row[0] != "unknown" and row[1] >= min_blocks
    ]
    tracks = bool(deviations) and float(np.mean(deviations)) < tolerance
    measured = {
        "window_blocks": total_blocks,
        "window_txs": sum(pool_txs.values()),
        "top5": [row[0] for row in rows[:5]],
        "mean_share_deviation": round(float(np.mean(deviations)), 4)
        if deviations
        else None,
    }
    checks = [
        check("the scam window contains blocks from many pools", len(rows) >= 5),
        check(
            "window shares track overall hash rates",
            tracks,
            f"mean |dev|={float(np.mean(deviations)):.3f}" if deviations else "no data",
        ),
    ]
    return ExperimentResult(
        experiment_id="fig13",
        title="Mining during the scam episode",
        paper=PAPER,
        measured=measured,
        rendered=rendered,
        checks=checks,
    )
