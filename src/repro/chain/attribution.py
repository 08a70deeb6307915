"""Mining-pool attribution from coinbase markers and reward addresses.

Mining pools typically embed a signature string in the coinbase
transaction ("/F2Pool/", "/ViaBTC/", ...) to claim ownership of the
block.  Following prior work (Judmayer et al. 2017, Romiti et al. 2019)
the paper attributes each block to a pool by matching these markers, and
falls back to the coinbase *reward address* when the marker is unknown.
Around 1.3% of blocks in dataset C resisted attribution; our attributor
reproduces that behaviour by returning :data:`UNKNOWN_POOL` for blocks
whose marker and reward address both fail to match.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .block import Block

#: Label used for blocks whose operator could not be identified.
UNKNOWN_POOL = "unknown"


@dataclass
class PoolDirectory:
    """Known coinbase markers and reward addresses per pool.

    ``aliases`` maps a pool to pools whose addresses it shares; the paper
    notes BitDeer shares addresses with BTC.com and Buffett with
    Lubian.com, and counts the former as the latter.  We model that by
    resolving an alias to its canonical owner during attribution.
    """

    markers: dict[str, str] = field(default_factory=dict)  # marker -> pool
    reward_addresses: dict[str, str] = field(default_factory=dict)  # addr -> pool
    aliases: dict[str, str] = field(default_factory=dict)  # alias pool -> canonical

    def register_pool(
        self,
        name: str,
        marker: Optional[str] = None,
        addresses: Iterable[str] = (),
    ) -> None:
        """Add a pool's marker and any known reward addresses."""
        if marker is not None:
            self.markers[marker] = name
        for address in addresses:
            self.reward_addresses[address] = name

    def register_alias(self, alias: str, canonical: str) -> None:
        """Record that blocks signed by ``alias`` belong to ``canonical``."""
        self.aliases[alias] = canonical

    def canonical(self, pool: str) -> str:
        """Resolve an alias chain to its canonical pool name."""
        seen = set()
        while pool in self.aliases and pool not in seen:
            seen.add(pool)
            pool = self.aliases[pool]
        return pool


class PoolAttributor:
    """Attribute blocks to mining pools.

    Attribution order follows the literature: coinbase marker first, then
    reward address, then :data:`UNKNOWN_POOL`.  The attributor also
    *learns* reward addresses: once a marker identifies a pool, the
    coinbase payout address is remembered, so later unmarked blocks
    paying the same address still attribute correctly.
    """

    def __init__(self, directory: PoolDirectory, learn_addresses: bool = True) -> None:
        self._directory = directory
        self._learn = learn_addresses

    def attribute(self, block: Block) -> str:
        """Return the canonical pool name for ``block``."""
        marker = getattr(block.coinbase, "marker", "")
        pool = self._match_marker(marker)
        reward_address = (
            block.coinbase.outputs[0].address if block.coinbase.outputs else None
        )
        if pool is None and reward_address is not None:
            pool = self._directory.reward_addresses.get(reward_address)
        if pool is None:
            return UNKNOWN_POOL
        pool = self._directory.canonical(pool)
        if self._learn and reward_address is not None:
            self._directory.reward_addresses.setdefault(reward_address, pool)
        return pool

    def _match_marker(self, marker: str) -> Optional[str]:
        if not marker:
            return None
        if marker in self._directory.markers:
            return self._directory.markers[marker]
        # Markers sometimes carry extra payload ("/F2Pool/mined by x/");
        # fall back to substring matching as prior work does.
        for known, pool in self._directory.markers.items():
            if known and known in marker:
                return pool
        return None


@dataclass(frozen=True)
class HashRateEstimate:
    """A pool's observed share of mined blocks over a window."""

    pool: str
    blocks: int
    share: float


def estimate_hash_rates(
    attributions: Mapping[str, str] | Iterable[str],
) -> list[HashRateEstimate]:
    """Estimate pools' normalized hash rates as their share of blocks.

    This is the paper's θ0: "normalized hash rate (estimated as fraction
    of blocks mined by m)".  Accepts either a block-hash->pool mapping or
    a plain iterable of pool labels.
    """
    labels = (
        list(attributions.values())
        if isinstance(attributions, Mapping)
        else list(attributions)
    )
    if not labels:
        return []
    counts = Counter(labels)
    total = len(labels)
    estimates = [
        HashRateEstimate(pool=pool, blocks=count, share=count / total)
        for pool, count in counts.items()
    ]
    estimates.sort(key=lambda est: (-est.blocks, est.pool))
    return estimates


def top_pools(
    attributions: Mapping[str, str] | Iterable[str],
    count: int,
    exclude_unknown: bool = True,
) -> list[HashRateEstimate]:
    """The ``count`` largest pools by block share."""
    estimates = estimate_hash_rates(attributions)
    if exclude_unknown:
        estimates = [est for est in estimates if est.pool != UNKNOWN_POOL]
    return estimates[:count]


def blocks_by_pool(
    blocks: Iterable[Block], attributor: PoolAttributor
) -> dict[str, list[Block]]:
    """Group blocks by their attributed pool."""
    grouped: dict[str, list[Block]] = defaultdict(list)
    for block in blocks:
        grouped[attributor.attribute(block)].append(block)
    return dict(grouped)
