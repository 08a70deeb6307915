"""Adversary zoo: labelled ordering-attack policies and pool strategies.

The misbehaviour layer in :mod:`repro.mining.policies` knows four
hand-rolled perturbations (self-interest boosts, collusion, dark-fee,
censorship).  This module grows it into a *zoo* of richer adversaries,
each expressed in the same :class:`~repro.mining.policies.OrderingPolicy`
algebra so the paper's detectors see only blocks, never intent — and
experiments keep labelled ground truth for free:

* :class:`SandwichPolicy` — MEV-style insertion: the pool's own
  transactions are committed immediately around victim transactions
  matched by a predicate (front-run + back-run).
* :class:`FifoPolicy` — first-come-first-served: selection *and*
  in-block order follow arrival time, not fee-rate.  Per-sender FIFO is
  implied: one sender's transactions can never commit out of submission
  order.
* :class:`BucketedPriorityPolicy` — fee-rates quantised into coarse
  buckets; FIFO inside a bucket.  A deliberately opaque "priority
  class" scheme that only loosely tracks the fee-rate norm.
* :class:`CallAuctionPolicy` — a uniform-price call auction: the
  highest bids that fit are selected, but everyone pays the clearing
  price, so the block is *committed in arrival order* — selection
  honours fees, ordering does not.
* :class:`CensorForRentPolicy` — censorship-for-rent: matching
  transactions are excluded until they pay at least a ransom fee-rate.
* :class:`SelfishMiningAttack` — a *pool-level* strategy (block
  withholding) hooked into the engine's mining race rather than the
  template builder; see :meth:`SelfishMiningAttack.stale_overlay`.

Every template policy here is input-order-insensitive (all sorts use
total orders with txid tiebreaks) and is deliberately *not* known to
the fast path's policy compiler — scenarios that install one exercise
the compiled-policy-program fallback, and the byte-identity contract
(tests/test_engine_oracle.py) holds regardless.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from ..chain.constants import MAX_BLOCK_VSIZE
from ..chain.transaction import Transaction
from ..mempool.feerate import fee_rate_rank
from ..mempool.mempool import MempoolEntry
from .gbt import BlockTemplate, _check_budget, repair_topological_order
from .policies import EntryPredicate, OrderingPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass


def _fee_key(entry: MempoolEntry) -> tuple:
    """The norm's exact total order: rate rank, then arrival, then txid."""
    return (-fee_rate_rank(entry.tx.fee, entry.vsize), entry.arrival_time, entry.txid)


def _arrival_key(entry: MempoolEntry) -> tuple:
    return (entry.arrival_time, entry.txid)


def _fill(
    ranked: Sequence[MempoolEntry], budget: int
) -> tuple[list[Transaction], int, int]:
    """Skip-and-continue selection in the given order: (txs, fee, vsize)."""
    chosen: list[Transaction] = []
    fee = 0
    used = 0
    for entry in ranked:
        if used + entry.vsize > budget:
            continue
        chosen.append(entry.tx)
        fee += entry.tx.fee
        used += entry.vsize
    return chosen, fee, used


def _finish(txs: list[Transaction], fee: int, used: int) -> BlockTemplate:
    """Repair topology and seal a template (totals are order-invariant)."""
    return BlockTemplate(
        tuple(repair_topological_order(txs)), total_fee=fee, total_vsize=used
    )


@dataclass
class FifoPolicy:
    """First-come-first-served: arrival order decides selection and order.

    The oldest transactions that fit are committed, in arrival order —
    fee-rates are ignored entirely.  This is the strongest possible
    per-sender FIFO guarantee (a sender's later transaction can never
    overtake an earlier one) and the bluntest violation of the fee-rate
    norm: PPE shoots up because in-block position is uncorrelated with
    fee-rate, and the violation tests fire because low-fee ancestors of
    the queue overtake high-fee newcomers.
    """

    label: str = "fifo"

    def build(
        self,
        entries: Sequence[MempoolEntry],
        max_vsize: int = MAX_BLOCK_VSIZE,
        reserved_vsize: int = 0,
    ) -> BlockTemplate:
        budget = _check_budget(max_vsize, reserved_vsize)
        ranked = sorted(entries, key=_arrival_key)
        return _finish(*_fill(ranked, budget))


def fee_rate_bucket(fee: int, vsize: int, width: float) -> int:
    """The coarse priority class a (fee, vsize) pair falls into."""
    if width <= 0:
        raise ValueError(f"bucket width must be positive, got {width}")
    return int((fee / vsize) // width)


@dataclass
class BucketedPriorityPolicy:
    """Coarse fee-rate buckets, FIFO within a bucket.

    ``width`` is the bucket granularity in sat/vB: with width 16, a
    3 sat/vB and a 15 sat/vB transaction are the same priority class
    and commit in arrival order.  The scheme still *roughly* tracks the
    norm (higher buckets first) — which is exactly what makes it an
    interesting detection target: PPE grows with the width, smoothly.
    """

    width: float = 16.0
    label: str = "bucketed"

    def build(
        self,
        entries: Sequence[MempoolEntry],
        max_vsize: int = MAX_BLOCK_VSIZE,
        reserved_vsize: int = 0,
    ) -> BlockTemplate:
        budget = _check_budget(max_vsize, reserved_vsize)
        ranked = sorted(
            entries,
            key=lambda e: (
                -fee_rate_bucket(e.tx.fee, e.vsize, self.width),
                e.arrival_time,
                e.txid,
            ),
        )
        return _finish(*_fill(ranked, budget))


@dataclass
class CallAuctionPolicy:
    """Uniform-price call auction: bids select, arrival orders.

    Each block is one auction round: the highest fee-rate bids that fit
    win (selection is exactly the greedy norm), but since every winner
    pays the same clearing price there is no reason to order the block
    by bid — winners are committed in arrival order.  Selection-based
    tests (prioritization binomials, violation counts over inclusion)
    stay clean; the in-block ordering tests (PPE) light up.
    """

    label: str = "call-auction"

    def build(
        self,
        entries: Sequence[MempoolEntry],
        max_vsize: int = MAX_BLOCK_VSIZE,
        reserved_vsize: int = 0,
    ) -> BlockTemplate:
        budget = _check_budget(max_vsize, reserved_vsize)
        winners = sorted(entries, key=_fee_key)
        chosen, fee, used = _fill(winners, budget)
        in_block = {tx.txid for tx in chosen}
        ordered = [
            e.tx
            for e in sorted(entries, key=_arrival_key)
            if e.txid in in_block
        ]
        return _finish(ordered, fee, used)


@dataclass
class SandwichPolicy:
    """MEV-style insertion: own transactions wrap victim transactions.

    For every pending entry matched by ``victim`` (ranked by the fee
    norm), up to two entries matched by ``attacker`` are placed
    immediately before and after it at the top of the block — the
    front-run / back-run sandwich.  ``intensity`` is the fraction of
    matched victims actually sandwiched (top of the rank order first),
    the experiment grid's knob.  Unmatched capacity falls through to
    ``base`` exactly like
    :class:`~repro.mining.policies.PrioritizeSetPolicy`.

    The attacker transactions deliberately underpay (the pool commits
    its own transactions for free), so the §5.1 acceleration binomial
    is the natural detector: attacker transactions land in the pool's
    own blocks far more often than its hash share explains.
    """

    base: OrderingPolicy
    victim: EntryPredicate
    attacker: EntryPredicate
    label: str = "sandwich"
    intensity: float = 1.0

    def build(
        self,
        entries: Sequence[MempoolEntry],
        max_vsize: int = MAX_BLOCK_VSIZE,
        reserved_vsize: int = 0,
    ) -> BlockTemplate:
        budget = _check_budget(max_vsize, reserved_vsize)
        attackers = sorted((e for e in entries if self.attacker(e)), key=_fee_key)
        victims = sorted(
            (e for e in entries if self.victim(e) and not self.attacker(e)),
            key=_fee_key,
        )
        if self.intensity < 1.0:
            quota = int(np.ceil(self.intensity * len(victims)))
            victims = victims[:quota]

        head: list[Transaction] = []
        head_ids: set[str] = set()
        fee = 0
        used = 0
        slot = 0
        for victim in victims:
            front = attackers[slot] if slot < len(attackers) else None
            back = attackers[slot + 1] if slot + 1 < len(attackers) else None
            triple = [e for e in (front, victim, back) if e is not None]
            size = sum(e.vsize for e in triple)
            if used + size > budget:
                continue
            for entry in triple:
                head.append(entry.tx)
                head_ids.add(entry.txid)
                fee += entry.tx.fee
                used += entry.vsize
            slot += sum(1 for e in (front, back) if e is not None)

        rest = [e for e in entries if e.txid not in head_ids]
        tail = self.base.build(rest, max_vsize, reserved_vsize + used)
        return _finish(
            head + list(tail.transactions),
            fee + tail.total_fee,
            used + tail.total_vsize,
        )


@dataclass
class CensorForRentPolicy:
    """Censor matching transactions until they pay the ransom fee-rate.

    A matched entry whose fee-rate is below ``ransom_rate`` (sat/vB) is
    never committed; matched entries at or above the ransom pass
    through to ``base`` like anyone else.  This is §6.1's censorship
    discussion with an extortion pricing model attached — and a true
    positive for the deceleration binomial over the sub-ransom set.
    """

    base: OrderingPolicy
    banned: EntryPredicate
    ransom_rate: float = 30.0
    label: str = "censor-for-rent"

    def build(
        self,
        entries: Sequence[MempoolEntry],
        max_vsize: int = MAX_BLOCK_VSIZE,
        reserved_vsize: int = 0,
    ) -> BlockTemplate:
        allowed = [
            e
            for e in entries
            if not (self.banned(e) and e.fee_rate < self.ransom_rate)
        ]
        return self.base.build(allowed, max_vsize, reserved_vsize)


# ----------------------------------------------------------------------
# MEV campaign bookkeeping
# ----------------------------------------------------------------------


@dataclass
class MevCampaign:
    """Live txid registry wiring the workload to a sandwich policy.

    The workload generator registers victim and attacker transactions
    as it mints them; the attacking pool's :class:`SandwichPolicy`
    reads the sets through the same live-callable pattern the
    acceleration service order book uses
    (:class:`~repro.mining.policies.TxidSetPredicate`).
    """

    name: str = "mev"
    victim_txids: set[str] = field(default_factory=set)
    attacker_txids: set[str] = field(default_factory=set)

    def victims(self) -> frozenset[str]:
        return frozenset(self.victim_txids)

    def attackers(self) -> frozenset[str]:
        return frozenset(self.attacker_txids)

    def register_victim(self, txid: str) -> None:
        self.victim_txids.add(txid)

    def register_attacker(self, txid: str) -> None:
        self.attacker_txids.add(txid)


# ----------------------------------------------------------------------
# Selfish mining (pool-level, not a template policy)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SelfishMiningAttack:
    """Block withholding à la Eyal–Sirer, as a mining-race transformation.

    The attack does not touch template ordering — it decides which
    *discoveries* survive the propagation race.  The engine computes a
    stale-block overlay from the (time, winner) schedule before
    dispatching to either substrate, so scalar and fast runs consume
    the identical mask and the byte-identity contract is untouched.

    Simplified state machine over the discovery sequence:

    * the selfish pool withholds each of its discoveries
      (with probability ``engagement`` — the intensity knob; a pool
      mixing honest and selfish behaviour engages per-block);
    * when an honest pool finds a block while the selfish pool holds a
      lead of one, the race resolves immediately: with probability
      ``gamma`` the honest block is orphaned, otherwise the withheld
      selfish block is;
    * at a lead of two or more, the selfish pool publishes its private
      chain and the honest block is orphaned outright.

    All randomness comes from the attack's own ``seed`` — never from
    the engine's streams — so installing the attack perturbs no other
    draw in the simulation.
    """

    pool: str
    gamma: float = 0.5
    engagement: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0,1], got {self.gamma}")
        if not 0.0 <= self.engagement <= 1.0:
            raise ValueError(
                f"engagement must be in [0,1], got {self.engagement}"
            )

    def describe(self) -> dict[str, object]:
        """Stable metadata stamped onto curated datasets."""
        return {
            "kind": "selfish-mining",
            "pool": self.pool,
            "gamma": self.gamma,
            "engagement": self.engagement,
            "seed": self.seed,
        }

    def stale_overlay(
        self,
        schedule: Sequence[tuple[float, int]],
        pool_names: Sequence[str],
    ) -> Optional[np.ndarray]:
        """Boolean mask of schedule entries orphaned by the attack.

        Returns None when the attacked pool is not in the lineup or the
        attack never engages — indistinguishable, byte for byte, from
        no attack at all.
        """
        if self.pool not in pool_names or self.engagement <= 0.0:
            return None
        selfish = list(pool_names).index(self.pool)
        rng = np.random.default_rng(self.seed)
        mask = np.zeros(len(schedule), dtype=bool)
        withheld: list[int] = []
        for index, (_time, winner) in enumerate(schedule):
            if winner == selfish:
                if rng.random() < self.engagement:
                    withheld.append(index)
                continue
            if not withheld:
                continue
            if len(withheld) == 1:
                # Lead-one race, resolved immediately: gamma is the
                # share of the honest network that mines on the
                # selfish branch.
                if rng.random() < self.gamma:
                    mask[index] = True
                else:
                    mask[withheld[0]] = True
            else:
                # Lead >= 2: the private chain is published whole and
                # the honest block loses outright.
                mask[index] = True
            withheld = []
        if not mask.any():
            return None
        return mask


#: Adversary template policies by their registry key (the experiment
#: grid and the docs both index this).
ZOO_POLICIES = {
    "fifo": FifoPolicy,
    "bucketed": BucketedPriorityPolicy,
    "call-auction": CallAuctionPolicy,
    "sandwich": SandwichPolicy,
    "censor-for-rent": CensorForRentPolicy,
}
