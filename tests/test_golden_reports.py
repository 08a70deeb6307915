"""Golden-report regression fixtures for the scale-0.1 battery.

The rendered reports for the paper's ordering-metrics artefacts (Figs
6-7, Tables 2-4) are pure functions of (experiment ids, scale, seeds):
every RNG in the pipeline is seeded and the five experiments below
never route through scipy, so their report text is byte-stable across
runs and platforms.

These tests pin that text: a metric refactor that silently shifts an
SPPE cell, a p-value, or even table formatting fails the byte-for-byte
diff instead of slipping through.  To intentionally update the fixture
after a *deliberate* metric change::

    PYTHONPATH=src python -m pytest tests/test_golden_reports.py \
        --regen-golden

(or delete ``tests/golden/battery_scale01.txt`` and re-run with the
flag) — then review the diff like any other source change.
"""

from __future__ import annotations

import difflib
from pathlib import Path

import pytest

from repro.analysis.runner import run_battery
from repro.datasets.cache import DEFAULT_CACHE_DIR

#: The battery pinned by the fixture: the paper's ordering-metrics
#: artefacts.  All five avoid scipy entirely, so the report text is
#: deterministic pure python + numpy.
GOLDEN_IDS = ["fig6", "fig7", "table2", "table3", "table4"]
GOLDEN_SCALE = 0.1
GOLDEN_PATH = Path(__file__).parent / "golden" / "battery_scale01.txt"


def _run_report() -> str:
    battery = run_battery(
        GOLDEN_IDS, scale=GOLDEN_SCALE, cache_dir=str(DEFAULT_CACHE_DIR)
    )
    return battery.report() + "\n"


def _assert_matches_golden(actual: str) -> None:
    expected = GOLDEN_PATH.read_text(encoding="utf-8")
    if actual == expected:
        return
    diff = "\n".join(
        difflib.unified_diff(
            expected.splitlines(),
            actual.splitlines(),
            fromfile="tests/golden/battery_scale01.txt",
            tofile="re-run report",
            lineterm="",
        )
    )
    pytest.fail(
        "battery report diverged from the golden fixture "
        "(regenerate deliberately with --regen-golden):\n" + diff
    )


@pytest.fixture(scope="module")
def vectorized_report(request) -> str:
    report = _run_report()
    if request.config.getoption("--regen-golden", default=False):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(report, encoding="utf-8")
    return report


class TestGoldenBattery:
    def test_report_matches_fixture_byte_for_byte(self, vectorized_report):
        _assert_matches_golden(vectorized_report)

    def test_fixture_contains_every_experiment(self):
        text = GOLDEN_PATH.read_text(encoding="utf-8")
        for experiment_id in GOLDEN_IDS:
            assert f"=== {experiment_id}:" in text, experiment_id
