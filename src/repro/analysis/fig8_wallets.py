"""Fig 8 — pool reward wallets and inferred self-interest transactions.

(a) the number of distinct payout wallets per pool (SlushPool used 56,
Poolin 23 in the paper's data); (b) how many committed transactions the
auditor attributes to each pool's wallets — the §5.2 inference step that
feeds Table 2.
"""

from __future__ import annotations

from .base import DataContext, ExperimentResult, check
from .tables import render_table

PAPER = {
    "slushpool_wallets": 56,
    "poolin_wallets": 23,
    "total_inferred_self_interest": 12_121,
    "inferred_share_of_issued": 0.00011,
}


def run(ctx: DataContext) -> ExperimentResult:
    """Regenerate Fig 8's wallet and self-interest-transaction counts."""
    dataset = ctx.dataset_c()
    top_pools = [
        est.pool for est in dataset.hash_rates() if est.pool != "unknown"
    ][:10]
    rows = []
    inferred_counts: dict[str, int] = {}
    commit_heights = dataset.commit_heights()
    for pool in top_pools:
        wallets = dataset.pool_wallets.get(pool, frozenset())
        inferred = dataset.inferred_self_interest_txids_indexed(pool)
        truth = dataset.self_interest_txids(pool)
        committed_truth = truth & commit_heights.keys()
        inferred_counts[pool] = len(inferred)
        rows.append(
            (
                pool,
                len(wallets),
                len(inferred),
                len(committed_truth),
            )
        )
    total_inferred = sum(inferred_counts.values())
    share = total_inferred / max(dataset.tx_count, 1)
    rendered = render_table(
        ["pool", "reward wallets", "inferred self-interest txs", "ground-truth committed"],
        rows,
        title="Fig 8: wallets per pool and inferred MPO transactions (dataset C)",
    )
    measured = {
        "total_inferred_self_interest": total_inferred,
        "inferred_share_of_issued": round(share, 6),
        "wallet_counts": {row[0]: row[1] for row in rows},
    }
    recall_ok = all(
        row[2] >= row[3] * 0.9 for row in rows if row[3] > 0
    )
    checks = [
        check(
            "pools use multiple payout wallets (SlushPool the most)",
            max((row[1] for row in rows), default=0) > 10,
        ),
        check(
            "self-interest transactions are a tiny share of all traffic",
            share < 0.05,
            f"share={share:.4f}",
        ),
        check(
            "wallet-based inference recovers the injected self-interest txs",
            recall_ok,
        ),
    ]
    return ExperimentResult(
        experiment_id="fig8",
        title="Pool wallets and self-interest transactions",
        paper=PAPER,
        measured=measured,
        rendered=rendered,
        checks=checks,
    )
