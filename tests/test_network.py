"""Unit tests for latency models, full nodes, and P2P gossip."""

import numpy as np
import pytest

from repro.reference.events import EventScheduler
from repro.reference.latency import (
    BlockRelayLatency,
    ConstantLatency,
    LogNormalLatency,
    SlowPeerLatency,
)
from repro.reference.node import FullNode, NodeConfig, make_observer
from repro.reference.p2p import build_network

from conftest import TxFactory, make_test_block


@pytest.fixture
def txf():
    return TxFactory("network")


class TestLatencyModels:
    def test_constant(self):
        rng = np.random.default_rng(0)
        assert ConstantLatency(0.7).delay(rng) == 0.7

    def test_lognormal_positive_and_capped(self):
        rng = np.random.default_rng(0)
        model = LogNormalLatency(max_seconds=5.0)
        delays = [model.delay(rng) for _ in range(500)]
        assert all(0.0 < d <= 5.0 for d in delays)

    def test_lognormal_median_near_target(self):
        rng = np.random.default_rng(0)
        model = LogNormalLatency(median_seconds=0.4)
        delays = [model.delay(rng) for _ in range(3000)]
        assert 0.3 < float(np.median(delays)) < 0.55

    def test_slow_peer_adds_tail(self):
        rng = np.random.default_rng(0)
        model = SlowPeerLatency(
            base=ConstantLatency(0.1),
            slow_probability=0.5,
            slow_extra_seconds=10.0,
        )
        delays = [model.delay(rng) for _ in range(500)]
        assert max(delays) > 1.0
        assert min(delays) == pytest.approx(0.1)

    def test_block_relay_faster_than_tx_gossip(self):
        rng = np.random.default_rng(0)
        tx_model = LogNormalLatency()
        block_model = BlockRelayLatency()
        tx_delays = np.median([tx_model.delay(rng) for _ in range(2000)])
        block_delays = np.median([block_model.delay(rng) for _ in range(2000)])
        assert block_delays < tx_delays


class TestFullNode:
    def test_connect_respects_capacity(self):
        a = FullNode(NodeConfig(name="a", max_peers=1))
        b = FullNode(NodeConfig(name="b", max_peers=1))
        c = FullNode(NodeConfig(name="c", max_peers=1))
        assert a.connect(b)
        assert not a.connect(c)  # a is full
        assert not b.connect(c)  # b is full

    def test_connect_rejects_self_and_duplicates(self):
        a = FullNode(NodeConfig(name="a"))
        b = FullNode(NodeConfig(name="b"))
        assert not a.connect(a)
        assert a.connect(b)
        assert not a.connect(b)

    def test_accept_transaction_dedupes(self, txf):
        node = FullNode(NodeConfig(name="n"))
        tx = txf.tx()
        assert node.accept_transaction(tx, now=0.0)
        assert not node.accept_transaction(tx, now=1.0)

    def test_low_fee_not_relayed(self, txf):
        node = FullNode(NodeConfig(name="n", min_fee_rate=1.0))
        assert not node.accept_transaction(txf.tx(fee=0), now=0.0)

    def test_accept_block_removes_confirmed(self, txf):
        node = FullNode(NodeConfig(name="n"))
        tx = txf.tx()
        node.accept_transaction(tx, now=0.0)
        block = make_test_block([tx])
        assert node.accept_block(block, now=1.0)
        assert tx.txid not in node.mempool
        assert not node.accept_block(block, now=2.0)  # dedupe

    def test_observer_snapshots(self, txf):
        node = make_observer("obs")
        node.accept_transaction(txf.tx(), now=0.0)
        assert node.maybe_snapshot(0.0)
        assert not node.maybe_snapshot(5.0)
        assert node.maybe_snapshot(15.0)
        assert len(node.snapshot_store()) == 2

    def test_non_observer_has_no_store(self):
        node = FullNode(NodeConfig(name="n"))
        with pytest.raises(ValueError):
            node.snapshot_store()


class TestP2PNetwork:
    def _network(self, count=8, seed=0):
        nodes = [FullNode(NodeConfig(name=f"n{i}", max_peers=8)) for i in range(count)]
        return build_network(nodes, np.random.default_rng(seed), target_degree=4)

    def test_topology_connected(self):
        import networkx as nx

        network = self._network(count=12)
        assert nx.is_connected(network.graph())

    def test_duplicate_names_rejected(self):
        nodes = [FullNode(NodeConfig(name="same")) for _ in range(2)]
        with pytest.raises(ValueError):
            build_network(nodes, np.random.default_rng(0))

    def test_transaction_floods_everywhere(self, txf):
        network = self._network()
        scheduler = EventScheduler()
        tx = txf.tx()
        network.broadcast_transaction(tx, network.nodes[0], scheduler)
        scheduler.run()
        assert all(node.has_seen_tx(tx.txid) for node in network.nodes)

    def test_arrival_times_differ_across_nodes(self, txf):
        network = self._network()
        scheduler = EventScheduler()
        tx = txf.tx()
        network.broadcast_transaction(tx, network.nodes[0], scheduler)
        scheduler.run()
        arrivals = {
            node.name: node.mempool.arrival_time(tx.txid)
            for node in network.nodes
        }
        values = [v for v in arrivals.values() if v is not None]
        assert len(set(values)) > 1  # propagation skew exists

    def test_block_floods_and_clears_mempools(self, txf):
        network = self._network()
        scheduler = EventScheduler()
        tx = txf.tx()
        network.broadcast_transaction(tx, network.nodes[0], scheduler)
        scheduler.run()
        block = make_test_block([tx])
        network.broadcast_block(block, network.nodes[0], scheduler)
        scheduler.run()
        assert all(node.blocks_seen == 1 for node in network.nodes)
        assert all(tx.txid not in node.mempool for node in network.nodes)

    def test_target_degree_must_fit_node_count(self):
        nodes = [FullNode(NodeConfig(name=f"n{i}")) for i in range(3)]
        with pytest.raises(ValueError, match="target_degree must be between"):
            build_network(nodes, np.random.default_rng(0), target_degree=3)

    def test_target_degree_must_be_positive(self):
        nodes = [FullNode(NodeConfig(name=f"n{i}")) for i in range(3)]
        with pytest.raises(ValueError, match="target_degree must be between"):
            build_network(nodes, np.random.default_rng(0), target_degree=0)

    def test_maximum_valid_target_degree_accepted(self):
        nodes = [FullNode(NodeConfig(name=f"n{i}")) for i in range(4)]
        network = build_network(nodes, np.random.default_rng(0), target_degree=3)
        assert all(node.peers for node in network.nodes)

    def test_scheduled_snapshots(self, txf):
        nodes = [make_observer("obs"), FullNode(NodeConfig(name="other"))]
        network = build_network(nodes, np.random.default_rng(0), target_degree=1)
        scheduler = EventScheduler()
        network.schedule_snapshots(scheduler, end_time=45.0)
        scheduler.run_until(46.0)
        assert len(nodes[0].snapshot_store()) >= 3
