"""Named, independently seeded RNG streams.

Every stochastic subsystem (arrival process, fee draws, mining races,
latency, policy jitter, ...) pulls its own stream derived from the
scenario seed and a stream name.  Adding a new consumer therefore never
perturbs the draws of existing ones, which keeps scenario outputs stable
across code evolution — the property that makes EXPERIMENTS.md numbers
reproducible.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from a root seed and a stream name."""
    digest = hashlib.sha256(f"{root_seed}/{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngStreams:
    """Factory of named :class:`numpy.random.Generator` streams."""

    def __init__(self, root_seed: int) -> None:
        self.root_seed = root_seed
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """The stream for ``name`` (created on first use, then cached).

        Repeated calls return the *same* generator object, so a consumer
        that draws twice advances its own stream — two consumers never
        share state.
        """
        if name not in self._streams:
            self._streams[name] = np.random.default_rng(
                derive_seed(self.root_seed, name)
            )
        return self._streams[name]

    def fresh(self, name: str) -> np.random.Generator:
        """A brand-new generator for ``name`` (not cached)."""
        return np.random.default_rng(derive_seed(self.root_seed, name))

