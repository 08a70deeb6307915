"""Table 1 — dataset summaries.

Blocks, transactions issued, CPFP share and empty-block counts for the
three curated datasets.  Absolute counts scale with the simulation
scale; the shape targets are the CPFP percentage band (~19-26%) and the
presence of a small number of empty blocks.
"""

from __future__ import annotations

from ..datasets.dataset import Dataset
from .base import DataContext, ExperimentResult, check
from .tables import render_table

PAPER = {
    "A": {"blocks": 3119, "txs": 6_816_375, "cpfp_pct": 26.45, "empty": 38},
    "B": {"blocks": 4520, "txs": 10_484_201, "cpfp_pct": 23.17, "empty": 18},
    "C": {"blocks": 53214, "txs": 112_489_054, "cpfp_pct": 19.11, "empty": 240},
}


def _row(name: str, dataset: Dataset) -> tuple:
    summary = dataset.summary()
    return (
        name,
        summary["blocks"],
        summary["transactions_issued"],
        round(100.0 * summary["cpfp_fraction"], 2),
        summary["empty_blocks"],
        summary["snapshots"],
    )


def run(ctx: DataContext) -> ExperimentResult:
    """Regenerate Table 1 for the three scenario datasets."""
    datasets = {
        "A": ctx.dataset_a(),
        "B": ctx.dataset_b(),
        "C": ctx.dataset_c(),
    }
    rows = [_row(name, dataset) for name, dataset in datasets.items()]
    rendered = render_table(
        ["dataset", "blocks", "txs issued", "CPFP %", "empty blocks", "snapshots"],
        rows,
        title="Table 1: data set summaries (scaled simulation)",
    )
    measured = {
        name: {
            "blocks": row[1],
            "txs": row[2],
            "cpfp_pct": row[3],
            "empty": row[4],
        }
        for (name, *_), row in zip(datasets.items(), rows)
    }
    checks = []
    for name, dataset in datasets.items():
        cpfp_pct = 100.0 * dataset.summary()["cpfp_fraction"]
        checks.append(
            check(
                f"dataset {name}: CPFP share in the paper's 15-35% band",
                15.0 <= cpfp_pct <= 35.0,
                f"{cpfp_pct:.1f}%",
            )
        )
    checks.append(
        check(
            "every dataset committed most issued transactions",
            all(
                d.committed_count() > 0.5 * d.tx_count
                for d in datasets.values()
            ),
        )
    )
    return ExperimentResult(
        experiment_id="table1",
        title="Dataset summaries",
        paper=PAPER,
        measured=measured,
        rendered=rendered,
        checks=checks,
    )
