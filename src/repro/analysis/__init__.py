"""Analyses reproducing every table and figure of the paper."""

from .base import (
    DEFAULT_SCALE,
    DataContext,
    ExperimentResult,
    ShapeCheck,
    check,
    paper_vs_measured_rows,
)
from .cdf import Ecdf, dominates, ecdf, quantile_table
from .experiments import EXPERIMENTS, run_experiment, run_experiments
from .runner import (
    BatteryResult,
    ExperimentOutcome,
    run_battery,
    run_one,
)
from .tables import format_cell, render_kv, render_table

__all__ = [
    "DEFAULT_SCALE",
    "DataContext",
    "ExperimentResult",
    "ShapeCheck",
    "check",
    "paper_vs_measured_rows",
    "Ecdf",
    "dominates",
    "ecdf",
    "quantile_table",
    "EXPERIMENTS",
    "run_experiment",
    "run_experiments",
    "BatteryResult",
    "ExperimentOutcome",
    "run_battery",
    "run_one",
    "format_cell",
    "render_kv",
    "render_table",
]
