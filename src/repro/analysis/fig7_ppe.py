"""Fig 7 — position prediction error across blocks and pools.

(a) PPE over all dataset-C blocks: the paper finds mean 2.65%, with 80%
of blocks under 4.03% — ordering is largely norm-conformant; (b) per-
pool PPE for the top-6 pools, with ViaBTC deviating more than peers.
"""

from __future__ import annotations

import numpy as np

from ..core.audit import Auditor
from ..core.ppe import summarize_ppe
from .base import DataContext, ExperimentResult, check
from .tables import render_table

PAPER = {
    "mean_ppe": 2.65,
    "std_ppe": 2.89,
    "p80_ppe": 4.03,
    "viabtc_deviates_more": True,
}


def run(ctx: DataContext) -> ExperimentResult:
    """Regenerate Fig 7 (overall and per-pool PPE)."""
    auditor = Auditor(ctx.dataset_c())
    overall = auditor.ppe_distribution()
    summary = summarize_ppe(overall)
    top6 = [
        est.pool
        for est in auditor.dataset.hash_rates()
        if est.pool != "unknown"
    ][:6]
    per_pool = auditor.ppe_by_pool(top6)
    pool_rows = []
    pool_means: dict[str, float] = {}
    for pool in top6:
        values = [r.ppe for r in per_pool[pool]]
        mean = float(np.mean(values)) if values else float("nan")
        pool_means[pool] = mean
        pool_rows.append(
            (
                pool,
                len(values),
                mean,
                float(np.percentile(values, 80)) if values else float("nan"),
            )
        )
    rendered = "\n\n".join(
        [
            render_table(
                ["blocks", "mean PPE %", "std", "median", "p80"],
                [
                    (
                        summary.block_count,
                        summary.mean,
                        summary.std,
                        summary.median,
                        summary.percentile_80,
                    )
                ],
                title="Fig 7a: PPE over all blocks (dataset C)",
            ),
            render_table(
                ["pool", "blocks", "mean PPE %", "p80"],
                pool_rows,
                title="Fig 7b: PPE of the top-6 pools",
            ),
        ]
    )
    others = [m for p, m in pool_means.items() if p != "ViaBTC" and m == m]
    viabtc_mean = pool_means.get("ViaBTC")
    if viabtc_mean is None:
        # Ranked below the top six: the table leaves ViaBTC out, the
        # check still compares it with the top-six peers.
        values = [r.ppe for r in auditor.ppe_by_pool(["ViaBTC"])["ViaBTC"]]
        viabtc_mean = float(np.mean(values)) if values else float("nan")
    measured = {
        "mean_ppe": round(summary.mean, 3),
        "std_ppe": round(summary.std, 3),
        "p80_ppe": round(summary.percentile_80, 3),
        "viabtc_mean": round(viabtc_mean, 3) if viabtc_mean == viabtc_mean else None,
    }
    checks = [
        check(
            "transactions are by and large ordered by fee-rate (mean PPE < 10%)",
            summary.mean < 10.0,
            f"mean={summary.mean:.2f}%",
        ),
        check(
            "80% of blocks have single-digit PPE",
            summary.percentile_80 < 10.0,
            f"p80={summary.percentile_80:.2f}%",
        ),
        check(
            "ViaBTC deviates more from the norm than its peers",
            viabtc_mean == viabtc_mean
            and bool(others)
            and viabtc_mean > float(np.mean(others)),
            f"ViaBTC={viabtc_mean:.2f}% peers={float(np.mean(others)) if others else float('nan'):.2f}%",
        ),
    ]
    return ExperimentResult(
        experiment_id="fig7",
        title="Position prediction error (overall and per pool)",
        paper=PAPER,
        measured=measured,
        rendered=rendered,
        checks=checks,
    )
