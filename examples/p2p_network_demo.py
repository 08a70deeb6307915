#!/usr/bin/env python3
"""Evented P2P substrate demo: gossip, mining, observation, skew.

Everything the audit later measures happens here in miniature, on the
fully evented reference network (no vectorised shortcuts): transactions
flood a random peer graph, two observer nodes with different
configurations watch their mempools (like the paper's dataset-A and
dataset-B nodes), a pool mines blocks from *its own* view, and the
arrival-time skew between nodes — the reason the paper's violation
test needs an ε — is printed at the end.

Run:  python examples/p2p_network_demo.py
"""

import numpy as np

from repro.chain.blockchain import Blockchain
from repro.mining.pool import MiningPool
from repro.reference.events import EventScheduler
from repro.reference.node import FullNode, NodeConfig, make_observer
from repro.reference.p2p import build_network
from repro.chain.transaction import TransactionBuilder
from repro.chain.address import AddressFactory


def main() -> None:
    rng = np.random.default_rng(2021)

    # The cast: a default observer (dataset A style), a permissive
    # wide-peering observer (dataset B style), one miner, and relays.
    observer_a = make_observer("observer-A", min_fee_rate=1.0, max_peers=8)
    observer_b = make_observer("observer-B", min_fee_rate=0.0, max_peers=125)
    miner_node = FullNode(NodeConfig(name="miner", min_fee_rate=0.0))
    relays = [FullNode(NodeConfig(name=f"relay-{i}")) for i in range(10)]
    network = build_network(
        [observer_a, observer_b, miner_node] + relays, rng, target_degree=6
    )
    print(f"network: {len(network.nodes)} nodes, "
          f"{network.graph().number_of_edges()} links")

    scheduler = EventScheduler()
    network.schedule_snapshots(scheduler, end_time=1800.0)

    # Users broadcast 150 transactions over ~20 minutes, including a
    # handful of zero-fee ones only observer B will admit.
    builder = TransactionBuilder("demo")
    addresses = AddressFactory("demo-users")
    txs = []
    for index in range(150):
        fee_rate = float(rng.lognormal(np.log(20.0), 1.0))
        vsize = int(rng.integers(150, 1500))
        fee = 0 if index % 30 == 0 else max(int(fee_rate * vsize), 1)
        tx = builder.build(addresses.next(), value=10_000, fee=fee, vsize=vsize, nonce=index)
        txs.append(tx)
        origin = relays[index % len(relays)]

        def inject(s, tx=tx, origin=origin):
            network.broadcast_transaction(tx, origin, s)
            if tx.fee == 0:
                # Norm III in action: default relays refuse zero-fee
                # transactions, so they never propagate — a user must
                # hand them to a permissive node directly (as the
                # paper's dataset-B node was configured to accept).
                observer_b.accept_transaction(tx, s.now)

        scheduler.schedule(float(rng.uniform(0, 1200)), inject)

    # The miner finds blocks at t=600 and t=1500.
    pool = MiningPool(name="DemoPool", marker="/DemoPool/", hash_share=1.0)
    chain = Blockchain()

    def mine(s):
        block = pool.assemble_block(
            height=chain.height + 1,
            prev_hash=chain.tip_hash,
            timestamp=s.now,
            entries=miner_node.mempool.entries(),
        )
        chain.append(block)
        network.broadcast_block(block, miner_node, s)
        print(
            f"t={s.now:7.1f}s  mined block {block.height}: "
            f"{block.tx_count} txs, {block.total_fees} sat fees, "
            f"{block.vsize} vB"
        )

    scheduler.schedule(600.0, mine)
    scheduler.schedule(1500.0, mine)
    scheduler.run_until(1800.0)

    # What each observer saw.
    for observer in (observer_a, observer_b):
        store = observer.snapshot_store()
        counts = [s.tx_count for s in store]
        print(
            f"{observer.name}: {len(store)} snapshots, "
            f"peak pending {max(counts)} txs, final {counts[-1]}"
        )
    zero_fee = [tx for tx in txs if tx.fee == 0]
    print(
        f"zero-fee txs ever admitted: observer-A "
        f"{sum(observer_a.has_seen_tx(t.txid) for t in zero_fee)} "
        f"(default 1 sat/vB floor), observer-B "
        f"{sum(observer_b.has_seen_tx(t.txid) for t in zero_fee)} "
        "(no floor, direct submission)"
    )

    # Propagation skew: how differently did A and the miner see arrivals?
    skews = []
    for snapshot in observer_a.snapshot_store():
        for stx in snapshot.txs:
            miner_arrival = miner_node.mempool.arrival_time(stx.txid)
            if miner_arrival is not None:
                skews.append(abs(stx.arrival_time - miner_arrival))
    if skews:
        skews = np.asarray(skews)
        print(
            f"observer-vs-miner arrival skew: median {np.median(skews):.2f}s, "
            f"p99 {np.percentile(skews, 99):.2f}s "
            "(the reason the violation test uses an epsilon)"
        )


if __name__ == "__main__":
    main()
