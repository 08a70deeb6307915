"""Extension: statistical power of the differential-prioritization test.

§5.1.3 discusses scaling the binomial test; the practical question for
an auditor is the reverse: *how many c-blocks does it take to catch a
pool accelerating with a given strength?*  This experiment computes,
by Monte-Carlo over the exact test, the detection probability at
α = 0.001 as a function of the pool's hash share θ0, the acceleration
strength (the true probability θ that a c-block is theirs), and the
number of observed c-blocks y — and reads off the minimum y per cell.

It then situates the paper's Table 2 rows on that map: every reported
detection sits comfortably above its power threshold, i.e. the paper's
sample sizes were sufficient, not lucky.
"""

from __future__ import annotations

import numpy as np

from ..core.stattests import STRONG_EVIDENCE_P
from ..core.vectorized import binom_tail_upper_batch
from .base import DataContext, ExperimentResult, check
from .tables import render_table

PAPER = {
    "table2_rows": [
        ("F2Pool", 0.1753, 466 / 839, 839),
        ("ViaBTC", 0.0676, 412 / 720, 720),
        ("SlushPool", 0.0375, 214 / 1343, 1343),
    ],
    "alpha": STRONG_EVIDENCE_P,
}

#: Hash shares representative of large and small pools.
THETA0_GRID = (0.175, 0.07, 0.0375)
#: Acceleration strengths: observed c-block share under misbehaviour.
THETA_GRID = (0.10, 0.2, 0.3, 0.5)
#: Sample sizes to probe.
Y_GRID = (10, 25, 50, 100, 250, 500, 1000)


def detection_power(
    theta0: float,
    theta: float,
    y: int,
    alpha: float = STRONG_EVIDENCE_P,
    trials: int = 400,
    rng: np.random.Generator | None = None,
) -> float:
    """Monte-Carlo P(test rejects at level alpha | true share theta)."""
    rng = rng if rng is not None else np.random.default_rng(0)
    xs = rng.binomial(y, theta, size=trials)
    rejections = int(
        np.count_nonzero(binom_tail_upper_batch(xs, y, theta0) < alpha)
    )
    return rejections / trials


def minimum_detectable_y(
    theta0: float, theta: float, power_target: float = 0.9
) -> int | None:
    """Smallest probed y with detection power >= ``power_target``."""
    rng = np.random.default_rng(17)
    for y in Y_GRID:
        if theta <= theta0:
            return None
        if detection_power(theta0, theta, y, rng=rng) >= power_target:
            return y
    return None


def run(ctx: DataContext) -> ExperimentResult:
    """Map the test's power surface and situate Table 2's rows on it."""
    rng = np.random.default_rng(42)
    rows = []
    power_map: dict[tuple[float, float], dict[int, float]] = {}
    for theta0 in THETA0_GRID:
        for theta in THETA_GRID:
            if theta <= theta0:
                continue
            powers = {
                y: detection_power(theta0, theta, y, rng=rng) for y in Y_GRID
            }
            power_map[(theta0, theta)] = powers
            min_y = next(
                (y for y in Y_GRID if powers[y] >= 0.9), None
            )
            rows.append(
                (
                    theta0,
                    theta,
                    *(round(powers[y], 2) for y in Y_GRID),
                    min_y if min_y is not None else ">1000",
                )
            )
    rendered = render_table(
        ["theta0", "true share"] + [f"y={y}" for y in Y_GRID] + ["min y (90%)"],
        rows,
        title=(
            "Detection power of the acceleration test at alpha=0.001 "
            "(Monte-Carlo, 400 trials/cell)"
        ),
    )

    # The paper's detections vs their power thresholds.
    paper_rows = []
    for pool, theta0, observed_share, y in PAPER["table2_rows"]:
        power = detection_power(
            theta0, observed_share, y, rng=np.random.default_rng(7)
        )
        paper_rows.append((pool, theta0, round(observed_share, 3), y, round(power, 3)))
    rendered += "\n\n" + render_table(
        ["pool", "theta0", "observed share", "y", "power at that y"],
        paper_rows,
        title="The paper's Table 2 detections on the power map",
    )

    measured = {
        "cells": len(rows),
        "paper_rows_power": {row[0]: row[4] for row in paper_rows},
    }
    strong = power_map.get((0.07, 0.5), {})
    weak = power_map.get((0.07, 0.1), {})
    checks = [
        check(
            "power increases with sample size in every cell",
            all(
                all(
                    powers[a] <= powers[b] + 0.1
                    for a, b in zip(Y_GRID, Y_GRID[1:])
                )
                for powers in power_map.values()
            ),
        ),
        check(
            "strong acceleration (0.5 share at theta0=0.07) is detectable "
            "with few dozen c-blocks",
            strong.get(25, 0.0) > 0.8,
            f"power at y=25: {strong.get(25, 0.0):.2f}",
        ),
        check(
            "weak acceleration (0.1 share at theta0=0.07) is invisible at "
            "small y and only slowly becomes detectable",
            weak.get(50, 1.0) < 0.5
            and weak.get(1000, 0.0) > weak.get(50, 1.0) + 0.3,
            f"y=50: {weak.get(50, 1.0):.2f}, y=1000: {weak.get(1000, 0.0):.2f}",
        ),
        check(
            "every Table 2 detection sits above the 95% power threshold",
            all(row[4] > 0.95 for row in paper_rows),
        ),
    ]
    return ExperimentResult(
        experiment_id="ext_power",
        title="Power analysis of the prioritization test (§5.1.3 extension)",
        paper=PAPER,
        measured=measured,
        rendered=rendered,
        checks=checks,
    )
