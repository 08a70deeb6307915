"""Experiment registry: every table and figure, by id."""

from __future__ import annotations

from typing import Iterable

from .base import DataContext, ExperimentResult, ExperimentRunner
from . import (
    ablations,
    ext_adversaries,
    ext_censorship,
    ext_faults,
    ext_norms,
    ext_power,
    ext_rbf,
    ext_verification,
    fig1_norm_shift,
    fig2_pools,
    fig3_congestion,
    fig4_delays_fees,
    fig5_fee_delay,
    fig6_violations,
    fig7_ppe,
    fig8_wallets,
    fig9_12_datasetB,
    fig13_scam_pools,
    fig14_accel_fees,
    table1_datasets,
    table2_self_interest,
    table3_scam,
    table4_dark_fee,
    table5_fee_revenue,
)

#: All experiments in paper order.
EXPERIMENTS: dict[str, ExperimentRunner] = {
    "fig1": fig1_norm_shift.run,
    "table1": table1_datasets.run,
    "fig2": fig2_pools.run,
    "fig3": fig3_congestion.run,
    "fig4": fig4_delays_fees.run,
    "fig5": fig5_fee_delay.run,
    "fig6": fig6_violations.run,
    "fig7": fig7_ppe.run,
    "fig8": fig8_wallets.run,
    "table2": table2_self_interest.run,
    "table3": table3_scam.run,
    "table4": table4_dark_fee.run,
    "table5": table5_fee_revenue.run,
    "fig9_12": fig9_12_datasetB.run,
    "fig13": fig13_scam_pools.run,
    "fig14": fig14_accel_fees.run,
}

#: Extensions beyond the paper: §6.1 follow-ups and design ablations.
EXTENSIONS: dict[str, ExperimentRunner] = {
    "ext_norms": ext_norms.run,
    "ext_censorship": ext_censorship.run,
    "ext_verification": ext_verification.run,
    "ext_rbf": ext_rbf.run,
    "ext_power": ext_power.run,
    "ext_faults": ext_faults.run,
    "ext_adversaries": ext_adversaries.run,
    "abl_selection": ablations.run_selection,
    "abl_epsilon": ablations.run_epsilon,
    "abl_jitter": ablations.run_jitter,
}

#: Everything runnable, paper artefacts first.
ALL_RUNNERS: dict[str, ExperimentRunner] = {**EXPERIMENTS, **EXTENSIONS}


def run_experiment(experiment_id: str, ctx: DataContext) -> ExperimentResult:
    """Run one experiment by id (paper artefact or extension)."""
    try:
        runner = ALL_RUNNERS[experiment_id]
    except KeyError:
        known = ", ".join(ALL_RUNNERS)
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}")
    return runner(ctx)


def run_experiments(
    experiment_ids: Iterable[str], ctx: DataContext
) -> list[ExperimentResult]:
    """Run several experiments, sharing one data context."""
    return [run_experiment(eid, ctx) for eid in experiment_ids]
