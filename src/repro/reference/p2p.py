"""P2P network assembly and gossip-flooding.

The network wires :class:`FullNode` objects into a random topology
(using networkx for generation, honouring per-node peer limits) and
floods transactions and blocks along edges with per-hop latency drawn
from a :class:`~repro.reference.latency.LatencyModel`.  Flooding is
duplicate-suppressed by each node's inventory sets, so every broadcast
costs O(edges) events.

This evented network is the *reference* substrate — it is exercised
directly by tests and examples.  Large scenario runs use the vectorised
fast path in :mod:`repro.simulation.engine`, which reproduces the same
observable skews at a fraction of the cost; an integration test checks
the two agree on small inputs.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import networkx as nx
import numpy as np

from ..chain.block import Block
from ..chain.transaction import Transaction
from .events import EventScheduler
from .latency import BlockRelayLatency, LatencyModel, LogNormalLatency
from .node import FullNode

#: Fault hook: (kind, sender, receiver, ident, now) -> True to drop the
#: delivery.  ``kind`` is "tx" or "block", ``ident`` the txid/hash.
DropFilter = Callable[[str, str, str, str, float], bool]


class P2PNetwork:
    """A set of interconnected full nodes with gossip semantics."""

    def __init__(
        self,
        nodes: Sequence[FullNode],
        rng: np.random.Generator,
        tx_latency: Optional[LatencyModel] = None,
        block_latency: Optional[LatencyModel] = None,
    ) -> None:
        names = [node.name for node in nodes]
        if len(set(names)) != len(names):
            raise ValueError("node names must be unique")
        self.nodes = list(nodes)
        self._by_name = {node.name: node for node in nodes}
        self._rng = rng
        self._tx_latency = tx_latency or LogNormalLatency()
        self._block_latency = block_latency or BlockRelayLatency()
        self._drop_filter: Optional[DropFilter] = None

    def node(self, name: str) -> FullNode:
        return self._by_name[name]

    def set_drop_filter(self, drop_filter: Optional[DropFilter]) -> None:
        """Install a per-hop fault hook consulted before each delivery.

        The filter sees ``(kind, sender, receiver, ident, now)`` and
        returns True to silently drop that single hop — modelling lossy
        links, eclipse attacks and partitions without touching node
        logic.  Gossip redundancy means a dropped hop is usually healed
        by another path; a partition mask that drops *every* hop into a
        node set is not.
        """
        self._drop_filter = drop_filter

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def connect_random(self, target_degree: int = 8) -> None:
        """Wire nodes into a random graph of roughly ``target_degree``.

        Uses a Watts-Strogatz-style construction via networkx and then
        applies the links subject to each node's ``max_peers``, matching
        how real nodes cap outbound plus inbound connections.
        """
        count = len(self.nodes)
        if count < 2:
            return
        if target_degree < 1 or target_degree >= count:
            raise ValueError(
                f"target_degree must be between 1 and {count - 1} "
                f"(one less than the node count), got {target_degree}"
            )
        degree = target_degree
        if degree % 2 == 1:
            degree = max(degree - 1, 2) if count > 2 else 1
        if count <= 3 or degree < 2:
            graph = nx.complete_graph(count)
        else:
            seed = int(self._rng.integers(0, 2**31 - 1))
            graph = nx.connected_watts_strogatz_graph(count, degree, p=0.3, seed=seed)
        for left, right in graph.edges():
            self.nodes[left].connect(self.nodes[right])
        self._ensure_connected()

    def _ensure_connected(self) -> None:
        """Link any isolated components so gossip always reaches everyone."""
        graph = self.graph()
        components = list(nx.connected_components(graph))
        for component in components[1:]:
            anchor = self._by_name[next(iter(components[0]))]
            other = self._by_name[next(iter(component))]
            anchor.peers.append(other)
            other.peers.append(anchor)

    def graph(self) -> nx.Graph:
        """The current topology as a networkx graph over node names."""
        graph = nx.Graph()
        graph.add_nodes_from(node.name for node in self.nodes)
        for node in self.nodes:
            for peer in node.peers:
                graph.add_edge(node.name, peer.name)
        return graph

    # ------------------------------------------------------------------
    # Gossip
    # ------------------------------------------------------------------
    def broadcast_transaction(
        self, tx: Transaction, origin: FullNode, scheduler: EventScheduler
    ) -> None:
        """Inject ``tx`` at ``origin`` now and flood it to all peers."""
        if origin.accept_transaction(tx, scheduler.now):
            self._relay_tx(tx, origin, scheduler)

    def _relay_tx(self, tx: Transaction, sender: FullNode, scheduler: EventScheduler) -> None:
        for peer in sender.peers:
            if peer.has_seen_tx(tx.txid):
                continue
            delay = self._tx_latency.delay(self._rng)

            def deliver(sched: EventScheduler, peer: FullNode = peer, sender: FullNode = sender) -> None:
                if self._drop_filter is not None and self._drop_filter(
                    "tx", sender.name, peer.name, tx.txid, sched.now
                ):
                    return
                if peer.accept_transaction(tx, sched.now):
                    self._relay_tx(tx, peer, sched)

            scheduler.schedule_in(delay, deliver)

    def broadcast_block(
        self, block: Block, origin: FullNode, scheduler: EventScheduler
    ) -> None:
        """Announce a freshly mined block from ``origin``."""
        if origin.accept_block(block, scheduler.now):
            self._relay_block(block, origin, scheduler)

    def _relay_block(
        self, block: Block, sender: FullNode, scheduler: EventScheduler
    ) -> None:
        for peer in sender.peers:
            delay = self._block_latency.delay(self._rng)

            def deliver(sched: EventScheduler, peer: FullNode = peer, sender: FullNode = sender) -> None:
                if self._drop_filter is not None and self._drop_filter(
                    "block", sender.name, peer.name, block.block_hash, sched.now
                ):
                    return
                if peer.accept_block(block, sched.now):
                    self._relay_block(block, peer, sched)

            scheduler.schedule_in(delay, deliver)

    # ------------------------------------------------------------------
    # Observation helpers
    # ------------------------------------------------------------------
    def schedule_snapshots(
        self, scheduler: EventScheduler, end_time: float
    ) -> None:
        """Drive every observer node's snapshot timer until ``end_time``."""
        observers = [node for node in self.nodes if node.config.observer]

        def tick(sched: EventScheduler) -> None:
            for node in observers:
                node.maybe_snapshot(sched.now)
            if sched.now < end_time and observers:
                sched.schedule_in(observers[0].config.snapshot_interval, tick)

        if observers:
            scheduler.schedule(scheduler.now, tick)


def build_network(
    nodes: Iterable[FullNode],
    rng: np.random.Generator,
    target_degree: int = 8,
    tx_latency: Optional[LatencyModel] = None,
    block_latency: Optional[LatencyModel] = None,
) -> P2PNetwork:
    """Create a connected network over ``nodes``."""
    network = P2PNetwork(
        list(nodes), rng, tx_latency=tx_latency, block_latency=block_latency
    )
    network.connect_random(target_degree)
    return network
