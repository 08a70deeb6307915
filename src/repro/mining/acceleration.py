"""Transaction-acceleration ("dark fee") services.

Several large pools sell off-chain acceleration: a user pays the pool
directly (on its website) and the pool commits the transaction with top
priority.  The fee is *opaque* — invisible on-chain and to other miners.
This module models the service end to end:

* a price model calibrated to the paper's Fig 14 measurements of
  BTC.com's service (median quote ≈117x the public fee, mean ≈566x),
* an order book recording accepted accelerations (the ground truth the
  detection experiments score against),
* the public per-txid lookup the paper used to validate its detector
  (BTC.com lets anyone ask whether a txid was accelerated).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

#: Calibration targets lifted from the paper's Appendix G.
PAPER_MEDIAN_MULTIPLE = 116.64
PAPER_MEAN_MULTIPLE = 566.3


def _calibrated_sigma(median: float, mean: float) -> float:
    """Log-normal sigma so that mean/median matches the paper's ratio."""
    if median <= 0 or mean <= median:
        raise ValueError("need mean > median > 0 for a log-normal fit")
    return float(np.sqrt(2.0 * np.log(mean / median)))


@dataclass(frozen=True)
class AccelerationQuote:
    """A price quote for accelerating one transaction."""

    txid: str
    public_fee: int
    acceleration_fee: int

    @property
    def multiple(self) -> float:
        """Quoted dark fee as a multiple of the public fee."""
        if self.public_fee <= 0:
            return float("inf")
        return self.acceleration_fee / self.public_fee


class AccelerationPricer:
    """Quote dark fees as a log-normal multiple of the public fee.

    Quotes are deterministic per txid (hash-seeded), so repeated queries
    return the same price — as a real service's quote endpoint does
    within a congestion regime.
    """

    def __init__(
        self,
        median_multiple: float = PAPER_MEDIAN_MULTIPLE,
        mean_multiple: float = PAPER_MEAN_MULTIPLE,
        min_fee: int = 1000,
    ) -> None:
        self.median_multiple = median_multiple
        self.sigma = _calibrated_sigma(median_multiple, mean_multiple)
        self.min_fee = min_fee

    def multiple_for(self, txid: str) -> float:
        """Deterministic log-normal multiple for ``txid``."""
        digest = hashlib.sha256(f"accel-price/{txid}".encode("ascii")).digest()
        seed = int.from_bytes(digest[:8], "big")
        rng = np.random.default_rng(seed)
        return float(rng.lognormal(mean=np.log(self.median_multiple), sigma=self.sigma))

    def quote(self, txid: str, public_fee: int) -> AccelerationQuote:
        """Price accelerating ``txid`` given its publicly offered fee."""
        base = max(public_fee, self.min_fee)
        acceleration_fee = int(round(base * self.multiple_for(txid)))
        return AccelerationQuote(
            txid=txid, public_fee=public_fee, acceleration_fee=acceleration_fee
        )


@dataclass(frozen=True)
class AccelerationOrder:
    """An accepted acceleration: the dark payment the chain never sees."""

    txid: str
    fee_paid: int
    accepted_at: float
    public_fee: int


@dataclass
class AccelerationService:
    """A pool's (or pool consortium's) acceleration order book.

    ``operators`` names the pools honouring orders placed here; sharing
    one service between pools models acceleration consortia.  Revenue is
    retained even when a *different* miner commits the transaction —
    the asymmetry §5.4.1 highlights.
    """

    name: str
    pricer: AccelerationPricer = field(default_factory=AccelerationPricer)
    operators: tuple[str, ...] = ()
    _orders: dict[str, AccelerationOrder] = field(default_factory=dict, repr=False)
    _txid_cache: Optional[frozenset[str]] = field(default=None, repr=False)

    def quote(self, txid: str, public_fee: int) -> AccelerationQuote:
        """Public price check (does not place an order)."""
        return self.pricer.quote(txid, public_fee)

    def accelerate(
        self, txid: str, public_fee: int, now: float, offered_fee: Optional[int] = None
    ) -> AccelerationOrder:
        """Accept payment and enqueue ``txid`` for priority commitment.

        ``offered_fee`` below the quote is rejected, as real services
        simply do not process underpaid requests.
        """
        quote = self.quote(txid, public_fee)
        paid = quote.acceleration_fee if offered_fee is None else offered_fee
        if paid < quote.acceleration_fee:
            raise ValueError(
                f"offered {paid} sat below quoted {quote.acceleration_fee} sat"
            )
        order = AccelerationOrder(
            txid=txid, fee_paid=paid, accepted_at=now, public_fee=public_fee
        )
        self._orders[txid] = order
        self._txid_cache = None
        return order

    def is_accelerated(self, txid: str) -> bool:
        """The public checker the paper queried for Table 4."""
        return txid in self._orders

    def accelerated_txids(self) -> frozenset[str]:
        """Current order book as a set (consumed by pool policies).

        Cached between mutations — pool policies query this once per
        pending entry while assembling templates.
        """
        if self._txid_cache is None:
            self._txid_cache = frozenset(self._orders)
        return self._txid_cache

    def orders(self) -> list[AccelerationOrder]:
        return list(self._orders.values())

    @property
    def revenue(self) -> int:
        """Total dark fees collected, in satoshi."""
        return sum(order.fee_paid for order in self._orders.values())
