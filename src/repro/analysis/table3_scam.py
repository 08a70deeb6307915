"""Table 3 — scam-payment transactions are treated like any other.

During the July 2020 Twitter-scam episode, no pool shows statistically
significant acceleration or deceleration of the scam payments, and the
SPPE values sit near zero.  The same holds in the simulation: scam
transactions pay ordinary fees and no policy singles them out.
"""

from __future__ import annotations

from ..core.audit import Auditor
from .base import DataContext, ExperimentResult, check
from .tables import render_table

PAPER = {
    "significant_pools": [],
    "scam_txs": 386,
    "scam_blocks": 53,
    "note": "no evidence of scam acceleration or deceleration (p >= 0.001)",
}

ALPHA = 0.001


def run(ctx: DataContext) -> ExperimentResult:
    """Regenerate Table 3 over the scam episode in dataset C."""
    auditor = Auditor(ctx.dataset_c())
    scam_txids = auditor.dataset.scam_txids()
    rows = auditor.scam_table()
    table_rows = [
        (
            row.pool,
            row.test.theta0,
            row.test.x,
            row.test.y,
            row.test.p_accelerate,
            row.test.p_decelerate,
            row.sppe,
        )
        for row in rows
    ]
    rendered = render_table(
        ["mining pool", "theta0", "x", "y", "p (accel)", "p (decel)", "SPPE %"],
        table_rows,
        title="Table 3: differential prioritization of scam payments",
    )
    significant = [
        row.pool
        for row in rows
        if row.test.accelerates(ALPHA) or row.test.decelerates(ALPHA)
    ]
    committed_scam = len(scam_txids & auditor.dataset.commit_heights().keys())
    measured = {
        "significant_pools": significant,
        "scam_txs": len(scam_txids),
        "scam_txs_committed": committed_scam,
        "pools_tested": len(rows),
    }
    checks = [
        check(
            "no pool shows significant scam acceleration/deceleration",
            not significant,
            f"significant={significant}",
        ),
        check(
            "scam payments were committed like ordinary traffic",
            committed_scam > 0.7 * max(len(scam_txids), 1),
            f"{committed_scam}/{len(scam_txids)}",
        ),
        check(
            "several large pools were tested",
            len(rows) >= 5,
        ),
    ]
    return ExperimentResult(
        experiment_id="table3",
        title="Scam-payment prioritization (null result)",
        paper=PAPER,
        measured=measured,
        rendered=rendered,
        checks=checks,
    )
