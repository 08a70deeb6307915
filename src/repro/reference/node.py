"""Full nodes: relay, mempool maintenance, and observation.

A :class:`FullNode` mirrors the roles the paper's measurement nodes
play: it admits transactions subject to its configured minimum fee-rate
(dataset A's node kept the 1 sat/vB default, dataset B's node accepted
everything), relays them to peers, removes transactions committed by
blocks it learns about, and — in observer mode — records 15-second
mempool snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from .. import obs
from ..chain.block import Block
from ..chain.constants import DEFAULT_MIN_RELAY_FEE_RATE
from ..chain.transaction import Transaction
from ..mempool.snapshots import SnapshotStore
from .mempool import Mempool, SnapshotRecorder


@dataclass
class NodeConfig:
    """Configuration knobs the paper varies between its two nodes."""

    name: str
    max_peers: int = 8
    min_fee_rate: float = DEFAULT_MIN_RELAY_FEE_RATE
    observer: bool = False
    snapshot_interval: float = 15.0


class FullNode:
    """A Bitcoin node participating in gossip.

    The node tracks which transactions and blocks it has already seen so
    flooding terminates, exactly like the inventory sets in the real
    protocol.
    """

    def __init__(self, config: NodeConfig) -> None:
        self.config = config
        self.mempool = Mempool(min_fee_rate=config.min_fee_rate)
        self.peers: list["FullNode"] = []
        self._seen_txids: set[str] = set()
        self._seen_blocks: set[str] = set()
        self._recorder: Optional[SnapshotRecorder] = (
            SnapshotRecorder(config.snapshot_interval) if config.observer else None
        )
        self.blocks_seen = 0
        #: First admission time per txid — survives mempool removal, so
        #: measurement pipelines can join arrivals with commits.
        self.arrival_log: dict[str, float] = {}
        # Fault profile: [start, end) windows the node is offline, plus
        # crash instants after which it restarts with a wiped mempool.
        self._offline_windows: Tuple[Tuple[float, float], ...] = ()
        self._pending_crashes: list[float] = []
        self.crash_count = 0

    # ------------------------------------------------------------------
    # Fault profile
    # ------------------------------------------------------------------
    def set_fault_profile(
        self,
        offline_windows: Iterable[Tuple[float, float]] = (),
        crash_times: Sequence[float] = (),
    ) -> None:
        """Install downtime windows and crash/restart times.

        While offline the node neither receives gossip nor records
        snapshots — deliveries simply never arrive.  A crash wipes the
        mempool and inventory sets (a restarted node resyncs from its
        peers' *future* gossip; what it held in memory is gone), but
        keeps ``arrival_log``, which models the on-disk measurement log.
        """
        self._offline_windows = tuple(
            (float(start), float(end)) for start, end in offline_windows
        )
        self._pending_crashes = sorted(float(t) for t in crash_times)

    def is_offline(self, now: float) -> bool:
        """True while ``now`` falls inside an offline window."""
        return any(start <= now < end for start, end in self._offline_windows)

    def _service_crashes(self, now: float) -> None:
        while self._pending_crashes and self._pending_crashes[0] <= now:
            self._pending_crashes.pop(0)
            self.mempool.clear()
            self._seen_txids.clear()
            self._seen_blocks.clear()
            self.crash_count += 1
            obs.counter("node.crashes")

    @property
    def name(self) -> str:
        return self.config.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FullNode({self.name!r}, peers={len(self.peers)})"

    # ------------------------------------------------------------------
    # Peering
    # ------------------------------------------------------------------
    def connect(self, peer: "FullNode") -> bool:
        """Create a bidirectional link if both sides have capacity."""
        if peer is self or peer in self.peers:
            return False
        if len(self.peers) >= self.config.max_peers:
            return False
        if len(peer.peers) >= peer.config.max_peers:
            return False
        self.peers.append(peer)
        peer.peers.append(self)
        return True

    # ------------------------------------------------------------------
    # Gossip
    # ------------------------------------------------------------------
    def accept_transaction(self, tx: Transaction, now: float) -> bool:
        """Handle a transaction announcement.

        Returns True when the transaction is new to this node *and*
        passed admission — i.e. when it should be relayed onward.  A
        transaction below the node's fee-rate threshold is dropped and
        not relayed, which is how norm III propagates through the
        network: low-fee transactions simply never reach most miners.
        """
        self._service_crashes(now)
        if self.is_offline(now):
            return False
        if tx.txid in self._seen_txids:
            return False
        self._seen_txids.add(tx.txid)
        result = self.mempool.offer(tx, now)
        if result.accepted:
            self.arrival_log.setdefault(tx.txid, now)
            obs.counter("node.tx.accepted")
        else:
            obs.counter("node.tx.rejected")
        return result.accepted

    def accept_block(self, block: Block, now: float) -> bool:
        """Handle a block announcement; True if new (relay onward)."""
        self._service_crashes(now)
        if self.is_offline(now):
            return False
        if block.block_hash in self._seen_blocks:
            return False
        self._seen_blocks.add(block.block_hash)
        self.blocks_seen += 1
        obs.counter("node.blocks.accepted")
        self.mempool.remove_confirmed(tx.txid for tx in block.transactions)
        return True

    def has_seen_tx(self, txid: str) -> bool:
        return txid in self._seen_txids

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def maybe_snapshot(self, now: float) -> bool:
        """Record a snapshot if this node observes and one is due."""
        if self._recorder is None:
            return False
        self._service_crashes(now)
        if self.is_offline(now):
            return False
        if not self._recorder.due(now):
            return False
        self._recorder.capture(self.mempool, now)
        obs.counter("node.snapshots.recorded")
        return True

    def snapshot_store(self) -> SnapshotStore:
        """All snapshots recorded so far (observer nodes only)."""
        if self._recorder is None:
            raise ValueError(f"node {self.name} is not an observer")
        return self._recorder.store()


def make_observer(
    name: str,
    min_fee_rate: float = DEFAULT_MIN_RELAY_FEE_RATE,
    max_peers: int = 8,
    snapshot_interval: float = 15.0,
) -> FullNode:
    """Convenience constructor for a measurement node.

    ``make_observer("A")`` reproduces the paper's dataset-A node
    (8 peers, default threshold); dataset B's node corresponds to
    ``make_observer("B", min_fee_rate=0.0, max_peers=125)``.
    """
    return FullNode(
        NodeConfig(
            name=name,
            max_peers=max_peers,
            min_fee_rate=min_fee_rate,
            observer=True,
            snapshot_interval=snapshot_interval,
        )
    )
