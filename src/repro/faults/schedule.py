"""The fault schedule: a deterministic, seedable description of loss.

A :class:`FaultSchedule` says *what goes wrong* during a measurement
campaign, without touching the simulation's own randomness:

* **tx-relay loss** — each transaction independently fails to reach a
  node (observer or pool) with a configured probability;
* **observer downtime** — windows during which a node records nothing
  (arrivals censored, 15-second snapshots dropped);
* **partitions/eclipse** — windows during which a node is cut off; it
  catches up when the partition heals, so arrivals shift to the window
  end instead of vanishing;
* **stale blocks** — discoveries that lose the propagation race: the
  block is assembled but never joins the chain, and its transactions
  return to the mempool;
* **per-hop drop** — gossip-level message loss on the evented path.

Every fault decision draws from a generator seeded by
``derive_seed(fault_seed, channel)`` — the same derivation the
simulation uses for its own streams, but rooted at the *fault* seed.
Fault draws therefore never perturb simulation streams, which is what
makes a zero-rate schedule leave every artifact byte-identical to a
run without faults (asserted in ``tests/test_seed_robustness.py``).

Loss masks are drawn as one uniform variate per (channel, transaction)
and thresholded against the rate, so the lost set at a higher rate is a
superset of the lost set at a lower rate under the same seed.  Sweeps
over loss rates (the ``power-under-faults`` experiment) are monotone by
construction, not by luck.

The per-transaction mask is indexed over the *canonical plan order* —
``sorted`` by ``(broadcast_time, txid)`` — which both simulation
substrates and the post-hoc dataset degrader share, so the same
schedule selects the same lost transactions everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Optional, Tuple

import numpy as np

from ..simulation.rng import derive_seed


@dataclass(frozen=True)
class OutageWindow:
    """A half-open time window ``[start, end)`` during which a named
    node is unavailable (downtime) or unreachable (partition)."""

    node: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(
                f"window end must be after start, got [{self.start}, {self.end})"
            )
        if self.start < 0:
            raise ValueError("window start must be non-negative")

    def contains(self, time: float) -> bool:
        return self.start <= time < self.end

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class NodeCrash:
    """A crash/restart: the node's mempool is wiped at ``time``.

    The node keeps running afterwards (pair with an
    :class:`OutageWindow` ending at ``time`` to model a crash that also
    took the node offline while it restarted).
    """

    node: str
    time: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("crash time must be non-negative")


def _validate_rate(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class FaultSchedule:
    """Everything that goes wrong in one campaign, deterministically."""

    #: Root seed of the fault RNG streams (independent of scenario seed).
    seed: int = 0
    #: Probability each transaction never reaches an observer node.
    tx_loss_rate: float = 0.0
    #: Probability each transaction never reaches a mining pool.
    pool_loss_rate: float = 0.0
    #: Per-hop gossip drop probability (evented reference substrate only).
    per_hop_loss_rate: float = 0.0
    #: Probability each block discovery goes stale (loses the race).
    stale_block_rate: float = 0.0
    #: Explicit schedule indexes forced stale (in addition to the rate).
    stale_block_indexes: Tuple[int, ...] = ()
    #: Observer/node downtime windows: nothing is recorded inside them.
    downtime: Tuple[OutageWindow, ...] = ()
    #: Partition/eclipse windows: traffic is deferred to the window end.
    partitions: Tuple[OutageWindow, ...] = ()
    #: Crash/restart events (mempool wipes) on the evented reference substrate.
    crashes: Tuple[NodeCrash, ...] = ()

    def __post_init__(self) -> None:
        _validate_rate("tx_loss_rate", self.tx_loss_rate)
        _validate_rate("pool_loss_rate", self.pool_loss_rate)
        _validate_rate("per_hop_loss_rate", self.per_hop_loss_rate)
        _validate_rate("stale_block_rate", self.stale_block_rate)
        if any(index < 0 for index in self.stale_block_indexes):
            raise ValueError("stale_block_indexes must be non-negative")

    # ------------------------------------------------------------------
    # Basics
    # ------------------------------------------------------------------
    @property
    def is_null(self) -> bool:
        """True when this schedule injects nothing at all."""
        return (
            self.tx_loss_rate == 0.0
            and self.pool_loss_rate == 0.0
            and self.per_hop_loss_rate == 0.0
            and self.stale_block_rate == 0.0
            and not self.stale_block_indexes
            and not self.downtime
            and not self.partitions
            and not self.crashes
        )

    def describe(self) -> dict:
        """Non-default fields as a JSON-able dict (dataset metadata)."""
        out: dict = {"seed": self.seed}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "seed" or value == spec.default:
                continue
            if spec.name in ("downtime", "partitions"):
                out[spec.name] = [[w.node, w.start, w.end] for w in value]
            elif spec.name == "crashes":
                out[spec.name] = [[c.node, c.time] for c in value]
            elif spec.name == "stale_block_indexes":
                out[spec.name] = list(value)
            else:
                out[spec.name] = value
        return out

    # ------------------------------------------------------------------
    # RNG channels
    # ------------------------------------------------------------------
    def channel_rng(self, channel: str) -> np.random.Generator:
        """A fresh generator for one named fault channel."""
        return np.random.default_rng(derive_seed(self.seed, f"faults/{channel}"))

    def loss_mask(self, channel: str, count: int, rate: float) -> np.ndarray:
        """Boolean lost-mask of length ``count`` for one channel.

        One uniform draw per slot, thresholded against ``rate`` — masks
        at increasing rates are nested, and a zero rate returns all
        False without drawing at all.
        """
        if rate <= 0.0 or count == 0:
            return np.zeros(count, dtype=bool)
        return self.channel_rng(channel).random(count) < rate

    # ------------------------------------------------------------------
    # Transaction loss
    # ------------------------------------------------------------------
    @staticmethod
    def canonical_order(pairs: Iterable[Tuple[float, str]]) -> list:
        """Sort (broadcast_time, txid) pairs into canonical plan order."""
        return sorted(pairs)

    def lost_txids(
        self,
        channel: str,
        pairs: Iterable[Tuple[float, str]],
        rate: float,
    ) -> frozenset:
        """Txids lost on ``channel`` at ``rate`` over a plan.

        ``pairs`` are ``(broadcast_time, txid)`` tuples for every
        planned transaction; they are canonically sorted internally so
        callers need not pre-sort.
        """
        ordered = self.canonical_order(pairs)
        mask = self.loss_mask(channel, len(ordered), rate)
        if not mask.any():
            return frozenset()
        return frozenset(
            txid for (_, txid), lost in zip(ordered, mask) if lost
        )

    def observer_lost_txids(
        self, observer: str, pairs: Iterable[Tuple[float, str]]
    ) -> frozenset:
        """Transactions that never reach the named observer."""
        return self.lost_txids(f"tx-loss/{observer}", pairs, self.tx_loss_rate)

    def pool_lost_txids(
        self, pool: str, pairs: Iterable[Tuple[float, str]]
    ) -> frozenset:
        """Transactions that never reach the named pool."""
        return self.lost_txids(f"pool-loss/{pool}", pairs, self.pool_loss_rate)

    # ------------------------------------------------------------------
    # Stale blocks
    # ------------------------------------------------------------------
    def stale_mask(self, count: int) -> np.ndarray:
        """Which of ``count`` scheduled discoveries go stale."""
        mask = self.loss_mask("stale-blocks", count, self.stale_block_rate)
        if self.stale_block_indexes:
            mask = mask.copy()
            for index in self.stale_block_indexes:
                if index < count:
                    mask[index] = True
        return mask

    # ------------------------------------------------------------------
    # Windows
    # ------------------------------------------------------------------
    def downtime_for(self, node: str) -> Tuple[OutageWindow, ...]:
        return tuple(w for w in self.downtime if w.node == node)

    def partitions_for(self, node: str) -> Tuple[OutageWindow, ...]:
        return tuple(w for w in self.partitions if w.node == node)

    def crash_times_for(self, node: str) -> Tuple[float, ...]:
        return tuple(sorted(c.time for c in self.crashes if c.node == node))

    def is_down(self, node: str, time: float) -> bool:
        return any(w.contains(time) for w in self.downtime if w.node == node)

    def in_partition(self, node: str, time: float) -> bool:
        return any(w.contains(time) for w in self.partitions if w.node == node)

    def partition_at(self, node: str, time: float) -> Optional[OutageWindow]:
        for window in self.partitions:
            if window.node == node and window.contains(time):
                return window
        return None


def spread_downtime(
    node: str,
    duration: float,
    fraction: float,
    windows: int = 3,
) -> Tuple[OutageWindow, ...]:
    """``windows`` evenly spread outages totalling ``fraction`` of
    ``duration`` — the downtime axis of the power-under-faults sweep."""
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"downtime fraction must be in [0, 1), got {fraction}")
    if windows < 1:
        raise ValueError("need at least one window")
    if fraction == 0.0:
        return ()
    length = duration * fraction / windows
    out = []
    for i in range(windows):
        center = duration * (2 * i + 1) / (2 * windows)
        start = max(center - length / 2.0, 0.0)
        out.append(OutageWindow(node=node, start=start, end=start + length))
    return tuple(out)
