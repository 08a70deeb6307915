"""Golden per-block txid digests for the scale-0.1 dataset analogues.

The engine's committed block sequences are pure functions of
(scenario, seed, scale): every RNG is seeded and block content is
deterministic.  These fixtures pin a digest of each dataset's per-block
txid sequence so a future engine edit — scalar or vectorized — cannot
silently reorder or re-select transactions.  The same digest must come
out of:

* the vectorized engine (cold build),
* a cache-warm reload of that build (serialization round-trip),
* the scalar oracle engine (``Scenario.run(scalar=True)``, fresh run).

To intentionally update after a deliberate engine change::

    PYTHONPATH=src python -m pytest tests/test_golden_engine_digests.py \
        --regen-golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.datasets.builder import build_dataset
from repro.simulation.scenarios import (
    adversary_scenario,
    dataset_a_scenario,
    dataset_b_scenario,
    dataset_c_scenario,
)

GOLDEN_SCALE = 0.1
GOLDEN_PATH = Path(__file__).parent / "golden" / "engine_digests_scale01.json"

#: Golden lineups at the golden scale.  "adv-sandwich" is the
#: adversarial one, an MEV-sandwiching target pool: it pins the zoo's
#: workload hooks (victim/attacker injections) and the fast path's
#: compiled-policy fallback alongside the honest analogues, so an
#: engine edit cannot silently change adversarial datasets either.
SCENARIOS = {
    "dataset-A": lambda: dataset_a_scenario(scale=GOLDEN_SCALE),
    "dataset-B": lambda: dataset_b_scenario(scale=GOLDEN_SCALE),
    "dataset-C": lambda: dataset_c_scenario(scale=GOLDEN_SCALE),
    "adv-sandwich": lambda: adversary_scenario("sandwich", scale=GOLDEN_SCALE),
}


def block_txid_digest(dataset) -> str:
    """SHA-256 over every block's height, coinbase, and ordered txids."""
    hasher = hashlib.sha256()
    for block in dataset.chain:
        line = "{}:{}:{}\n".format(
            block.height,
            block.coinbase.txid,
            ",".join(tx.txid for tx in block.transactions),
        )
        hasher.update(line.encode("ascii"))
    return hasher.hexdigest()


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("digest-cache")


@pytest.fixture(scope="module")
def vectorized_digests(cache_dir, request) -> dict[str, str]:
    digests = {
        name: block_txid_digest(build_dataset(scenario(), cache_dir=cache_dir))
        for name, scenario in SCENARIOS.items()
    }
    if request.config.getoption("--regen-golden", default=False):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(digests, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return digests


class TestGoldenEngineDigests:
    def test_vectorized_build_matches_fixture(self, vectorized_digests):
        expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert vectorized_digests == expected, (
            "per-block txid digests diverged from tests/golden/"
            "engine_digests_scale01.json (regenerate deliberately "
            "with --regen-golden)"
        )

    def test_cache_warm_reload_matches(self, vectorized_digests, cache_dir):
        """A reload from the on-disk cache must round-trip the digest."""
        for name, scenario in SCENARIOS.items():
            reloaded = build_dataset(scenario(), cache_dir=cache_dir)
            assert block_txid_digest(reloaded) == vectorized_digests[name]

    def test_scalar_oracle_build_matches(self, vectorized_digests):
        """The scalar engine must commit the exact same block sequences."""
        for name, scenario in SCENARIOS.items():
            dataset = scenario().run(scalar=True).dataset
            assert block_txid_digest(dataset) == vectorized_digests[name]
