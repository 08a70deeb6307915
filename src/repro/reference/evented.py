"""The evented simulation path: scenarios over the real P2P substrate.

:class:`~repro.simulation.engine.SimulationEngine` is a vectorised fast
path; this module is the *reference* path.  Every transaction floods an
actual peer graph hop by hop; every pool mines from the mempool of its
own :class:`~repro.reference.node.FullNode`; observers record genuine
15-second snapshots.  It is O(transactions x edges) and therefore only
suitable for modest scenarios — which is exactly its job: the
integration suite runs both paths over comparable workloads and checks
that the audit-relevant observables (delays, violations, ordering
conformance) agree, validating the fast path's shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from ..chain.attribution import PoolAttributor
from ..chain.blockchain import Blockchain
from ..chain.constants import TARGET_BLOCK_INTERVAL
from ..datasets.dataset import Dataset
from ..datasets.records import TxRecord
from ..mempool.snapshots import SizeSeries
from ..mining.pool import MiningPool, make_directory, normalize_hash_shares
from ..simulation.engine import generate_block_schedule
from ..simulation.rng import RngStreams
from ..simulation.workload import PlannedTx
from .events import EventScheduler
from .latency import LatencyModel
from .node import FullNode, NodeConfig, make_observer
from .p2p import P2PNetwork, build_network

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.schedule import FaultSchedule
    from ..mempool.mempool import MempoolEntry


@dataclass
class EventedConfig:
    """Parameters of an evented run."""

    duration: float
    block_interval: float = TARGET_BLOCK_INTERVAL
    relay_count: int = 8
    target_degree: int = 6
    observer_min_fee_rate: float = 0.0
    snapshot_interval: float = 15.0


def minable_entries(
    entries: Sequence["MempoolEntry"],
    plan_txids: frozenset[str],
    chain: Blockchain,
) -> list["MempoolEntry"]:
    """Restrict a mempool view to what the winner may legally commit.

    Block gossip has latency, so the winner's mempool can lag the
    (globally authoritative) ``chain``: it may still hold transactions
    another pool just committed, or replacements that conflict with a
    committed original.  The engine path structurally cannot re-commit
    either (committed transactions leave its pending pool), so they are
    dropped here too.

    It can also hold a child whose parent has not reached this node
    (gossip still in flight, or lost to a fault).  Mining the child
    would commit it before its parent exists on-chain — something the
    engine's ``_eligible_entries`` never does.  Mirroring its
    semantics: only *in-plan* parents constrain (synthetic workload
    UTXOs impose nothing), and a parent already committed to ``chain``
    frees its children.  Entry order is preserved.
    """
    selected = {
        entry.txid: entry
        for entry in entries
        if not chain.contains(entry.txid)
        and not any(chain.is_spent(txin.prevout) for txin in entry.tx.inputs)
    }
    changed = True
    while changed:
        changed = False
        for txid in list(selected):
            entry = selected.get(txid)
            if entry is None:
                continue
            for parent in entry.tx.parent_txids:
                if (
                    parent in plan_txids
                    and parent not in selected
                    and not chain.contains(parent)
                ):
                    del selected[txid]
                    changed = True
                    break
    return list(selected.values())


class EventedSimulation:
    """Run a (small) transaction plan over the evented P2P network."""

    def __init__(
        self,
        config: EventedConfig,
        pools: Sequence[MiningPool],
        streams: RngStreams,
        tx_latency: Optional[LatencyModel] = None,
        faults: Optional["FaultSchedule"] = None,
    ) -> None:
        if not pools:
            raise ValueError("need at least one mining pool")
        self.config = config
        self.pools = list(pools)
        self.streams = streams
        self.faults = faults if faults is not None and not faults.is_null else None
        rng = streams.stream("evented/topology")
        self.observer = make_observer(
            "observer",
            min_fee_rate=config.observer_min_fee_rate,
            snapshot_interval=config.snapshot_interval,
        )
        self.pool_nodes: dict[str, FullNode] = {
            pool.name: FullNode(
                NodeConfig(name=f"pool/{pool.name}", min_fee_rate=0.0)
            )
            for pool in self.pools
        }
        self.relays = [
            FullNode(NodeConfig(name=f"relay-{i}"))
            for i in range(config.relay_count)
        ]
        self.network: P2PNetwork = build_network(
            [self.observer, *self.pool_nodes.values(), *self.relays],
            rng,
            target_degree=config.target_degree,
            tx_latency=tx_latency,
        )
        if self.faults is not None:
            for node in self.network.nodes:
                windows = [
                    (w.start, w.end)
                    for w in self.faults.downtime_for(node.name)
                ]
                crashes = self.faults.crash_times_for(node.name)
                if windows or crashes:
                    node.set_fault_profile(windows, crashes)

    # ------------------------------------------------------------------
    def run(
        self,
        plan: Sequence[PlannedTx],
        schedule: Optional[Sequence[tuple[float, int]]] = None,
    ) -> Dataset:
        """Play the plan out over the network; curate a Dataset.

        Pass ``schedule`` to pin the mining race (times and winners) —
        the cross-validation suite runs both simulation paths over one
        schedule so differences reflect propagation modelling only.
        """
        scheduler = EventScheduler()
        inject_rng = self.streams.stream("evented/injection")
        self.network.schedule_snapshots(scheduler, end_time=self.config.duration)

        faults = self.faults
        if faults is not None:
            # Observer relay loss uses the same canonical channel the
            # fast path consults, so both substrates censor the exact
            # same txid set (asserted in tests/test_faults_pipeline.py).
            pairs = [(p.broadcast_time, p.tx.txid) for p in plan]
            lost = faults.observer_lost_txids(self.observer.name, pairs)
            hop_rng = faults.channel_rng("per-hop") if faults.per_hop_loss_rate else None

            def drop(kind: str, sender: str, receiver: str, ident: str, now: float) -> bool:
                if kind == "tx" and receiver == self.observer.name and ident in lost:
                    return True
                if faults.in_partition(sender, now) or faults.in_partition(receiver, now):
                    return True
                if hop_rng is not None and hop_rng.random() < faults.per_hop_loss_rate:
                    return True
                return False

            self.network.set_drop_filter(drop)

        for planned in sorted(plan, key=lambda p: p.broadcast_time):
            origin = self.relays[
                int(inject_rng.integers(len(self.relays)))
            ]

            def inject(s: EventScheduler, tx=planned.tx, origin=origin) -> None:
                self.network.broadcast_transaction(tx, origin, s)

            scheduler.schedule(planned.broadcast_time, inject)

        chain = Blockchain()
        plan_txids = frozenset(planned.tx.txid for planned in plan)
        if schedule is None:
            schedule = generate_block_schedule(
                self.config.duration,
                self.config.block_interval,
                normalize_hash_shares(self.pools),
                self.streams.stream("evented/mining"),
            )
        stale_mask = faults.stale_mask(len(schedule)) if faults is not None else None
        orphaned = [0]
        for index, (block_time, winner_index) in enumerate(schedule):
            winner = self.pools[winner_index]
            node = self.pool_nodes[winner.name]
            stale = bool(stale_mask[index]) if stale_mask is not None else False

            def mine(
                s: EventScheduler,
                winner=winner,
                node=node,
                stale=stale,
            ) -> None:
                block = winner.assemble_block(
                    height=len(chain),
                    prev_hash=chain.tip_hash,
                    timestamp=s.now,
                    entries=minable_entries(
                        node.mempool.entries(), plan_txids, chain
                    ),
                )
                if stale:
                    # Lost the propagation race: never announced, its
                    # transactions stay in every mempool.
                    orphaned[0] += 1
                    return
                chain.append(block)
                self.network.broadcast_block(block, node, s)

            scheduler.schedule(block_time, mine)

        scheduler.run_until(self.config.duration)
        return self._curate(plan, chain, orphaned[0])

    # ------------------------------------------------------------------
    def _curate(
        self, plan: Sequence[PlannedTx], chain: Blockchain, orphaned: int = 0
    ) -> Dataset:
        directory = make_directory(self.pools)
        attributor = PoolAttributor(directory)
        block_pools = {
            block.height: attributor.attribute(block) for block in chain
        }
        records: dict[str, TxRecord] = {}
        for planned in plan:
            tx = planned.tx
            location = chain.location_of(tx.txid)
            records[tx.txid] = TxRecord(
                txid=tx.txid,
                broadcast_time=planned.broadcast_time,
                observer_arrival=self.observer.arrival_log.get(tx.txid),
                fee=tx.fee,
                vsize=tx.vsize,
                commit_height=location.height if location else None,
                commit_position=location.position if location else None,
                labels=planned.labels,
            )
        store = self.observer.snapshot_store()
        size_series = SizeSeries(
            times=store.times,
            vsizes=store.sizes(),
            tx_counts=[snapshot.tx_count for snapshot in store],
        )
        return Dataset(
            name="evented",
            chain=chain,
            snapshots=store,
            tx_records=records,
            block_pools=block_pools,
            pool_wallets={pool.name: pool.wallet_addresses for pool in self.pools},
            size_series=size_series,
            metadata=(
                {"path": "evented", "duration": self.config.duration}
                if self.faults is None
                else {
                    "path": "evented",
                    "duration": self.config.duration,
                    "observer": self.observer.name,
                    "faults": self.faults.describe(),
                    "orphaned_blocks": orphaned,
                }
            ),
        )


def run_evented_scenario(
    plan: Sequence[PlannedTx],
    pools: Sequence[MiningPool],
    duration: float,
    seed: int = 31,
    block_interval: float = TARGET_BLOCK_INTERVAL,
    faults: Optional["FaultSchedule"] = None,
) -> Dataset:
    """One-call evented run over a prepared plan."""
    simulation = EventedSimulation(
        EventedConfig(duration=duration, block_interval=block_interval),
        pools,
        RngStreams(seed),
        faults=faults,
    )
    return simulation.run(plan)
