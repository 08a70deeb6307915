"""Differential suite: the fast block-production path vs the scalar engine.

`repro.simulation.fast` replays the per-tx engine loop over packed
arrays; the scalar loop (mempool heap + template builders) stays live
as the oracle, selected with ``Scenario.run(scalar=True)``.  The
contract is *byte
identity* of the curated datasets — every observer's serialized
artefact, not just summary statistics — across the paper's three
dataset analogues, including the misbehaving-policy lineup (dataset C:
self-interest acceleration, dark-fee boosts, zero-floor pools, noisy
ordering) and a fault-degraded cell (loss rates + forced stale blocks).

Scale defaults to 0.2 per the engine-vectorization acceptance
criterion; set ``REPRO_ORACLE_SCALE`` to rerun the contract at another
size.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.datasets.io import dataset_to_dict
from repro.faults.schedule import FaultSchedule
from repro.simulation.scenarios import (
    ADVERSARY_KINDS,
    adversary_scenario,
    dataset_a_scenario,
    dataset_b_scenario,
    dataset_c_scenario,
)

SCALE = float(os.environ.get("REPRO_ORACLE_SCALE", "0.2"))
#: Adversary-zoo cells run at the detection-sweep scale: the zoo has 8
#: lineups and each runs twice per cell, so the full-size SCALE would
#: dominate the suite's wall time without adding coverage.
ADVERSARY_SCALE = min(SCALE, 0.08)
#: Zoo kinds whose *template policy* is unknown to the fast path's
#: policy compiler — the cell must go through (and thereby prove) the
#: compiled-policy-program fallback.  "selfish" keeps honest templates
#: (the attack is a mining-race overlay) and must NOT fall back;
#: "max-boost" composes known policy types and compiles.
FALLBACK_KINDS = frozenset(
    {"fifo", "bucketed", "call-auction", "sandwich", "censor-for-rent"}
)


def _degraded_faults() -> FaultSchedule:
    return FaultSchedule(
        seed=5,
        tx_loss_rate=0.05,
        pool_loss_rate=0.05,
        stale_block_indexes=(1, 3),
    )


CELLS = {
    "dataset-A": lambda: dataset_a_scenario(scale=SCALE),
    "dataset-A-degraded": lambda: dataset_a_scenario(
        scale=SCALE, faults=_degraded_faults()
    ),
    "dataset-B": lambda: dataset_b_scenario(scale=SCALE),
    "dataset-C-misbehaving": lambda: dataset_c_scenario(scale=SCALE),
}


def _run_cell(factory, scalar: bool):
    """Run a fresh scenario and serialize every observer's dataset."""
    with obs.tracing(reset=True):
        result = factory().run(scalar=scalar)
        snapshot = obs.snapshot()
    blobs = {
        name: json.dumps(
            dataset_to_dict(dataset), separators=(",", ":"), sort_keys=True
        )
        for name, dataset in sorted(result.datasets_by_observer.items())
    }
    return blobs, snapshot


def _first_divergence(scalar_blob: str, fast_blob: str) -> str:
    limit = min(len(scalar_blob), len(fast_blob))
    for i in range(limit):
        if scalar_blob[i] != fast_blob[i]:
            lo = max(0, i - 60)
            return (
                f"first diff at char {i}:\n"
                f"  scalar: …{scalar_blob[lo:i + 90]}…\n"
                f"  fast:   …{fast_blob[lo:i + 90]}…"
            )
    return f"length diff: {len(scalar_blob)} vs {len(fast_blob)}"


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_fast_engine_is_byte_identical_to_scalar_oracle(cell):
    factory = CELLS[cell]
    scalar_blobs, _ = _run_cell(factory, scalar=True)
    fast_blobs, fast_snapshot = _run_cell(factory, scalar=False)

    # The comparison must not be vacuous: the fast path has to have
    # actually compiled and driven the pools.
    counters = fast_snapshot["counters"]
    assert counters.get("engine.fast.pools_compiled", 0) > 0
    assert counters.get("engine.fast.pools_fallback", 0) == 0

    assert sorted(scalar_blobs) == sorted(fast_blobs)
    for name in scalar_blobs:
        if scalar_blobs[name] != fast_blobs[name]:
            pytest.fail(
                f"observer {name!r} diverged in cell {cell}:\n"
                + _first_divergence(scalar_blobs[name], fast_blobs[name])
            )


@pytest.mark.parametrize(
    "kind", [k for k in ADVERSARY_KINDS if k != "honest"]
)
def test_adversary_lineups_are_byte_identical_across_substrates(kind):
    """Every zoo adversary must satisfy the same byte-identity contract.

    The zoo template policies are deliberately unknown to the fast
    path's policy compiler, so these cells are the standing proof that
    the compiled-policy-program *fallback* produces datasets byte-
    identical to the scalar engine (the plain cells above prove the
    compiled programs do).
    """
    factory = lambda: adversary_scenario(  # noqa: E731
        kind, seed=11, scale=ADVERSARY_SCALE, intensity=1.0
    )
    scalar_blobs, _ = _run_cell(factory, scalar=True)
    fast_blobs, fast_snapshot = _run_cell(factory, scalar=False)

    counters = fast_snapshot["counters"]
    assert counters.get("engine.fast.pools_compiled", 0) > 0
    if kind in FALLBACK_KINDS:
        # The target pool's zoo policy must have exercised the
        # fallback — otherwise this cell silently stopped testing it.
        assert counters.get("engine.fast.pools_fallback", 0) > 0
    else:
        assert counters.get("engine.fast.pools_fallback", 0) == 0
    if kind == "selfish":
        # The withholding attack must actually have orphaned races —
        # an attack that never engages proves nothing.
        assert counters.get("engine.attacks.withheld_races", 0) > 0

    assert sorted(scalar_blobs) == sorted(fast_blobs)
    for name in scalar_blobs:
        if scalar_blobs[name] != fast_blobs[name]:
            pytest.fail(
                f"observer {name!r} diverged for adversary {kind!r}:\n"
                + _first_divergence(scalar_blobs[name], fast_blobs[name])
            )


def test_noisy_policy_runs_are_seed_stable_across_substrates():
    """Identical seeds => identical datasets, per run and per substrate.

    Every dataset-C pool wraps its policy in ``NoisyPolicy`` whose
    ``JitterSource`` draws from the scenario's seeded RNG registry, so
    re-running the same scenario — in the same substrate or the other
    one — must reproduce the jittered templates exactly.  A regression
    here means some jitter draw escaped the seeded streams.
    """
    factory = lambda: dataset_c_scenario(seed=11, scale=0.04)  # noqa: E731
    runs = [
        _run_cell(factory, scalar=scalar)[0]
        for scalar in (True, True, False, False)
    ]
    assert runs[0] == runs[1], "scalar run not reproducible under one seed"
    assert runs[2] == runs[3], "fast run not reproducible under one seed"
    assert runs[0] == runs[2], "substrates diverged under one seed"


def test_scalar_oracle_does_not_take_the_fast_path():
    """Engine dispatch: only a default run takes the fast path.

    ``scalar=True`` selects the per-tx oracle loop.
    """

    def pools_compiled(**run_kwargs):
        with obs.tracing(reset=True):
            dataset_a_scenario(scale=0.05).run(**run_kwargs)
            return obs.snapshot()["counters"].get("engine.fast.pools_compiled")

    assert pools_compiled(scalar=True) is None
    assert pools_compiled() > 0
