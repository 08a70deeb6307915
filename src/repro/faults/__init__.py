"""Deterministic fault injection for the measurement pipeline.

The paper's audit ran on *imperfect* data: its two vantage nodes missed
transactions each other saw (Table 1), snapshot series have gaps, and
the chain occasionally discards stale blocks.  This package reproduces
those degradations deterministically so experiments can ask how much
measurement loss the PPE/violation/binomial analyses absorb before
ground-truth misbehaviour becomes undetectable.

Layout:

* :mod:`~repro.faults.schedule` — :class:`FaultSchedule`, the seedable
  description of what goes wrong (relay loss, observer downtime,
  partitions, stale blocks) with RNG streams isolated from the
  simulation's own (:mod:`repro.simulation.rng` derivation), so a
  zero-rate schedule leaves every artifact byte-identical;
* :mod:`~repro.faults.degrade` — apply observer-side faults to an
  already-curated :class:`~repro.datasets.dataset.Dataset`;
* :mod:`~repro.faults.quality` — :class:`DataQualityReport`, measured
  coverage/gap/orphan statistics of a (possibly degraded) dataset.
"""

from .degrade import degrade_dataset
from .quality import DataQualityReport, assess_quality, detect_gaps
from .schedule import (
    FaultSchedule,
    NodeCrash,
    OutageWindow,
    spread_downtime,
)

__all__ = [
    "degrade_dataset",
    "DataQualityReport",
    "assess_quality",
    "detect_gaps",
    "FaultSchedule",
    "NodeCrash",
    "OutageWindow",
    "spread_downtime",
]
