"""The simulation engine: from a workload plan to a curated Dataset.

The engine plays out a scenario on a *vectorised fast path*: instead of
flooding every transaction through an evented P2P mesh (see
:mod:`repro.network.p2p`, which remains the reference implementation),
it draws, per transaction, an independent arrival time at every mining
pool and at every observer node from the latency model.  Propagation
skew — the observable that matters to the audit — is preserved, while
the cost drops from O(txs x edges) events to O(txs) work plus one pass
per block.  An integration test cross-checks the two paths on a small
scenario.

Flow per scenario:

1. the workload plan (time-sorted transactions) streams in;
2. a Poisson mining race schedules block discoveries, each won by a
   pool with probability proportional to its hash share;
3. the winning pool assembles a block from the transactions that have
   reached *it* by then, using its (possibly misbehaving) policy;
4. observer mempools are reconstructed analytically afterwards into a
   per-tick size series plus a sample of full snapshots.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .. import obs
from ..chain.attribution import PoolAttributor
from ..chain.blockchain import Blockchain
from ..chain.constants import (
    MAX_BLOCK_VSIZE,
    SNAPSHOT_INTERVAL,
    TARGET_BLOCK_INTERVAL,
)
from ..chain.transaction import Transaction
from ..datasets.dataset import Dataset
from ..datasets.records import TxRecord
from ..mempool.mempool import MempoolEntry
from ..mempool.snapshots import (
    MempoolSnapshot,
    SizeSeries,
    SnapshotStore,
    SnapshotTx,
)
from ..mining.acceleration import AccelerationService
from ..mining.pool import MiningPool, make_directory, normalize_hash_shares
from ..obs.invariants import (
    InvariantViolation,
    check_engine_block_state,
    invariants_enabled,
)
from .rng import RngStreams
from .workload import PlannedTx

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.checkpoint import CheckpointConfig
    from ..faults.schedule import FaultSchedule
    from ..mining.adversaries import SelfishMiningAttack


@dataclass
class ObserverConfig:
    """A measurement node, as the paper ran two of."""

    name: str
    min_fee_rate: float = 1.0
    #: Latency advantage from peering widely: the observer's arrival
    #: delay is the minimum of ``peer_samples`` draws, so the paper's
    #: 125-peer node (dataset B) sees transactions earlier than the
    #: default 8-peer node (dataset A).
    peer_samples: int = 2
    snapshot_interval: float = SNAPSHOT_INTERVAL


@dataclass
class EngineConfig:
    """Scenario-level simulation parameters."""

    duration: float
    block_interval: float = TARGET_BLOCK_INTERVAL
    max_block_vsize: int = MAX_BLOCK_VSIZE
    #: Probability a discovered block is mined empty (validation race).
    empty_block_probability: float = 0.006
    #: Median one-hop propagation delay to a pool, seconds.
    pool_delay_median: float = 1.2
    pool_delay_sigma: float = 0.9
    #: Probability a pool experiences a pathological (slow) delivery.
    slow_delivery_probability: float = 0.004
    slow_delivery_scale: float = 120.0
    #: How many full mempool snapshots to retain per observer.
    full_snapshot_count: int = 48
    mempool_expiry: float = 14 * 24 * 3600.0


@dataclass
class SimulationResult:
    """Everything a scenario run produces, keyed by observer name."""

    dataset: Dataset
    datasets_by_observer: dict[str, Dataset] = field(default_factory=dict)


def generate_block_schedule(
    duration: float,
    block_interval: float,
    shares: Sequence[float],
    rng: np.random.Generator,
) -> list[tuple[float, int]]:
    """The mining race: (discovery time, winning pool index) pairs.

    Inter-block times are exponential (Poisson mining); each discovery
    is won by pool i with probability ``shares[i]``.  Exposed as a
    function so a scenario can draw the schedule *once* and share it
    between the workload generator (whose fee model reacts to the real
    backlog, mining luck included) and the engine.
    """
    probabilities = np.asarray(shares, dtype=float)
    schedule: list[tuple[float, int]] = []
    time = 0.0
    while True:
        time += float(rng.exponential(block_interval))
        if time > duration:
            break
        winner = int(rng.choice(probabilities.size, p=probabilities))
        schedule.append((time, winner))
    return schedule


class SimulationEngine:
    """Drive one scenario to completion."""

    def __init__(
        self,
        config: EngineConfig,
        pools: Sequence[MiningPool],
        observers: Sequence[ObserverConfig],
        streams: RngStreams,
        services: Sequence[AccelerationService] = (),
        schedule: Optional[Sequence[tuple[float, int]]] = None,
        faults: Optional["FaultSchedule"] = None,
        attacks: Sequence["SelfishMiningAttack"] = (),
    ) -> None:
        if not pools:
            raise ValueError("need at least one mining pool")
        if not observers:
            raise ValueError("need at least one observer")
        self.config = config
        self.pools = list(pools)
        self.observers = list(observers)
        self.streams = streams
        self.services = {service.name: service for service in services}
        self._shares = np.asarray(normalize_hash_shares(self.pools), dtype=float)
        self._schedule = list(schedule) if schedule is not None else None
        # A null schedule is normalised away: "no faults" and "zero-rate
        # faults" must be indistinguishable, byte for byte (asserted in
        # tests/test_seed_robustness.py).  Fault draws come from their
        # own RNG root, never from `streams`.
        self.faults = faults if faults is not None and not faults.is_null else None
        # Pool-level mining-race attacks (selfish mining / withholding).
        # Their race outcomes come from each attack's own seed, so an
        # attack that never engages is byte-identical to no attack.
        self.attacks = list(attacks)

    # ------------------------------------------------------------------
    # Arrival-time machinery
    # ------------------------------------------------------------------
    def _pool_delays(self, count: int) -> np.ndarray:
        """(count, n_pools) matrix of per-pool propagation delays."""
        cfg = self.config
        rng = self.streams.stream("latency/pools")
        delays = rng.lognormal(
            mean=np.log(cfg.pool_delay_median),
            sigma=cfg.pool_delay_sigma,
            size=(count, len(self.pools)),
        )
        slow = rng.random(size=delays.shape) < cfg.slow_delivery_probability
        if slow.any():
            delays = delays + slow * rng.exponential(
                cfg.slow_delivery_scale, size=delays.shape
            )
        return delays

    def _observer_delays(self, count: int) -> dict[str, np.ndarray]:
        """Per-observer arrival delays (min over peer samples)."""
        cfg = self.config
        rng = self.streams.stream("latency/observers")
        delays: dict[str, np.ndarray] = {}
        for observer in self.observers:
            samples = max(observer.peer_samples, 1)
            draws = rng.lognormal(
                mean=np.log(cfg.pool_delay_median),
                sigma=cfg.pool_delay_sigma,
                size=(count, samples),
            )
            base = draws.min(axis=1)
            slow = rng.random(size=count) < cfg.slow_delivery_probability
            if slow.any():
                base = base + slow * rng.exponential(cfg.slow_delivery_scale, size=count)
            delays[observer.name] = base
        return delays

    # ------------------------------------------------------------------
    # Mining race
    # ------------------------------------------------------------------
    def _block_schedule(self) -> list[tuple[float, int]]:
        """(time, winning pool index) for every discovery in the run."""
        if self._schedule is not None:
            return self._schedule
        return generate_block_schedule(
            self.config.duration,
            self.config.block_interval,
            self._shares,
            self.streams.stream("mining"),
        )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(
        self,
        plan: Sequence[PlannedTx],
        checkpoint: Optional["CheckpointConfig"] = None,
        *,
        scalar: bool = False,
    ) -> SimulationResult:
        """Execute the scenario over ``plan`` and curate datasets.

        Blocks are produced by the vectorized fast path unless
        ``scalar`` selects the per-tx reference loop (the differential
        oracle).  When ``checkpoint`` is given, the per-tx loop runs
        too: loop state (blocks, commitments, RNG streams, acceleration
        order books) is persisted atomically every
        ``checkpoint.every_blocks`` blocks, and an existing checkpoint
        at ``checkpoint.path`` resumes the run mid-schedule, reproducing
        the uninterrupted run exactly.
        """
        with obs.span("engine.run"):
            return self._run(plan, checkpoint, scalar)

    def _run(
        self,
        plan: Sequence[PlannedTx],
        checkpoint: Optional["CheckpointConfig"],
        scalar: bool,
    ) -> SimulationResult:
        plan = sorted(plan, key=lambda p: (p.broadcast_time, p.tx.txid))
        count = len(plan)
        pool_delays = self._pool_delays(count)
        observer_delays = self._observer_delays(count)
        broadcast_times = np.asarray([p.broadcast_time for p in plan], dtype=float)
        pool_arrivals = broadcast_times[:, None] + pool_delays

        faults = self.faults
        stale_mask = None
        if faults is not None:
            # Chain-side relay loss: a transaction that never reaches a
            # pool simply never becomes eligible for its blocks.
            if faults.pool_loss_rate > 0.0:
                pairs = [(p.broadcast_time, p.tx.txid) for p in plan]
                for pool_index, pool in enumerate(self.pools):
                    lost = faults.pool_lost_txids(pool.name, pairs)
                    if lost:
                        mask = np.fromiter(
                            (p.tx.txid in lost for p in plan),
                            dtype=bool,
                            count=count,
                        )
                        pool_arrivals[mask, pool_index] = np.inf

        schedule = self._block_schedule()
        if faults is not None:
            stale_candidates = faults.stale_mask(len(schedule))
            stale_mask = stale_candidates if stale_candidates.any() else None
        # Mining-race attacks resolve before substrate dispatch: both
        # the scalar loop and the fast path consume the same merged
        # stale mask, so the byte-identity contract holds under attack.
        if self.attacks:
            pool_names = [pool.name for pool in self.pools]
            for attack in self.attacks:
                overlay = attack.stale_overlay(schedule, pool_names)
                if overlay is None:
                    continue
                obs.counter("engine.attacks.withheld_races", int(overlay.sum()))
                stale_mask = (
                    overlay if stale_mask is None else (stale_mask | overlay)
                )
        mining_rng = self.streams.stream("mining/assembly")

        # The vectorized production loop (repro.simulation.fast) is
        # byte-identical to the per-tx loop by contract
        # (tests/test_engine_oracle.py).  The per-tx loop is the
        # differential oracle, selected by ``scalar=True``, and the only
        # loop that resumes from a checkpoint: it keeps per-block dict
        # state that a checkpoint can persist.
        if scalar or checkpoint is not None:
            committed, chain, orphaned = self._produce_per_tx(
                plan, pool_arrivals, schedule, stale_mask, mining_rng, checkpoint
            )
        else:
            from .fast import produce_fast

            committed, chain, orphaned = produce_fast(
                self,
                plan,
                broadcast_times,
                pool_arrivals,
                schedule,
                stale_mask,
                mining_rng,
                check_invariants=invariants_enabled(),
            )
        return self._curate(
            plan, broadcast_times, observer_delays, committed, chain, orphaned
        )

    def _produce_per_tx(
        self,
        plan: Sequence[PlannedTx],
        pool_arrivals: np.ndarray,
        schedule: Sequence[tuple[float, int]],
        stale_mask: Optional[np.ndarray],
        mining_rng: np.random.Generator,
        checkpoint: Optional["CheckpointConfig"],
    ) -> tuple[dict[str, tuple[int, int, float]], Blockchain, int]:
        """The per-tx reference loop: (committed, chain, orphaned)."""
        count = len(plan)
        # Pending pool: index into `plan` for not-yet-committed txs,
        # plus conflict bookkeeping (outpoint -> pending spender) so
        # replace-by-fee bumps evict what they displace and stale
        # replacements of already-committed transactions are dropped.
        pending: dict[str, int] = {}
        pending_spenders: dict[object, str] = {}
        committed_outpoints: set = set()
        committed: dict[str, tuple[int, int, float]] = {}  # txid -> (height, pos, time)
        chain = Blockchain()
        plan_index = 0
        # In-plan parent -> children, for cascading evictions when a
        # replaced transaction had dependants.
        plan_txids = {p.tx.txid for p in plan}
        plan_children: dict[str, list[str]] = {}
        for planned in plan:
            for parent in planned.tx.parent_txids:
                if parent in plan_txids:
                    plan_children.setdefault(parent, []).append(planned.tx.txid)

        def evict(txid: str) -> None:
            """Drop a pending tx and, recursively, its pending children."""
            index = pending.pop(txid, None)
            if index is None:
                return
            loser_tx = plan[index].tx
            for txin in loser_tx.inputs:
                if pending_spenders.get(txin.prevout) == txid:
                    del pending_spenders[txin.prevout]
            for child in plan_children.get(txid, ()):
                evict(child)

        def admit(planned: PlannedTx, index: int) -> None:
            tx = planned.tx
            if any(txin.prevout in committed_outpoints for txin in tx.inputs):
                obs.counter("mempool.pending.chain_conflict")
                return  # conflicts with the chain: the original won
            displaced = {
                pending_spenders[txin.prevout]
                for txin in tx.inputs
                if txin.prevout in pending_spenders
                and pending_spenders[txin.prevout] != tx.txid
            }
            for loser in displaced:
                loser_tx = plan[pending[loser]].tx
                if tx.fee <= loser_tx.fee:
                    obs.counter("mempool.pending.rbf_rejected")
                    return  # not a valid fee bump: keep the incumbent
            if displaced:
                obs.counter("mempool.rbf_replacements", len(displaced))
            for loser in displaced:
                evict(loser)
            obs.counter("mempool.pending.admitted")
            pending[tx.txid] = index
            for txin in tx.inputs:
                pending_spenders[txin.prevout] = tx.txid
            if planned.accelerate_via is not None:
                service = self.services.get(planned.accelerate_via)
                if service is not None:
                    service.accelerate(
                        tx.txid,
                        public_fee=tx.fee,
                        now=planned.broadcast_time,
                    )

        orphaned = 0
        start_index = 0
        fingerprint = None
        if checkpoint is not None:
            from ..faults.checkpoint import load_checkpoint

            fingerprint = self._plan_fingerprint(plan, schedule)
            state = load_checkpoint(checkpoint.path)
            if state is not None:
                start_index, plan_index, orphaned = self._restore_checkpoint(
                    state,
                    checkpoint,
                    fingerprint,
                    plan,
                    pending,
                    pending_spenders,
                    committed_outpoints,
                    committed,
                    chain,
                )

        processed = 0
        # Every pool's arrival column as a list, converted once per run.
        arrivals_by_pool = pool_arrivals.T.tolist()
        for index, (block_time, winner_index) in enumerate(schedule):
            if index < start_index:
                continue
            # Admit all broadcasts up to this discovery.
            while plan_index < count and plan[plan_index].broadcast_time <= block_time:
                admit(plan[plan_index], plan_index)
                plan_index += 1

            winner = self.pools[winner_index]
            with obs.span("engine.mine_block"):
                if mining_rng.random() < self.config.empty_block_probability:
                    entries: list[MempoolEntry] = []
                    obs.counter("engine.blocks.empty")
                else:
                    entries = self._eligible_entries(
                        pending, plan, arrivals_by_pool[winner_index], block_time
                    )
                block = winner.assemble_block(
                    height=len(chain),
                    prev_hash=chain.tip_hash,
                    timestamp=block_time,
                    entries=entries,
                )
            if stale_mask is not None and stale_mask[index]:
                # Stale/reorged: the block lost the propagation race and
                # is never committed; its transactions stay pending and
                # re-enter the next winner's candidate set.
                orphaned += 1
                obs.counter("engine.blocks.orphaned")
            else:
                chain.append(block)
                for position, tx in enumerate(block.transactions):
                    committed[tx.txid] = (block.height, position, block_time)
                    pending.pop(tx.txid, None)
                    for txin in tx.inputs:
                        committed_outpoints.add(txin.prevout)
                        if pending_spenders.get(txin.prevout) == tx.txid:
                            del pending_spenders[txin.prevout]
                obs.counter("engine.blocks.committed")
                obs.counter("engine.txs.committed", len(block.transactions))
                if invariants_enabled():
                    check_engine_block_state(
                        pending, pending_spenders, committed, block
                    )

            processed += 1
            if checkpoint is not None:
                abort = (
                    checkpoint.abort_after_blocks is not None
                    and processed >= checkpoint.abort_after_blocks
                )
                if abort or processed % checkpoint.every_blocks == 0:
                    self._write_checkpoint(
                        checkpoint,
                        fingerprint,
                        index + 1,
                        plan_index,
                        orphaned,
                        pending,
                        committed,
                        chain,
                    )
                if abort:
                    from ..faults.checkpoint import SimulationInterrupted

                    raise SimulationInterrupted(
                        f"aborted after {processed} blocks "
                        f"(checkpoint at {checkpoint.path})"
                    )

        return committed, chain, orphaned

    # ------------------------------------------------------------------
    # Checkpoint/resume
    # ------------------------------------------------------------------
    def _plan_fingerprint(
        self, plan: Sequence[PlannedTx], schedule: Sequence[tuple[float, int]]
    ) -> str:
        """Digest binding a checkpoint to one (seed, plan, schedule, faults)."""
        digest = hashlib.sha256()
        digest.update(str(self.streams.root_seed).encode("utf-8"))
        digest.update(str(len(schedule)).encode("utf-8"))
        if schedule:
            digest.update(repr(schedule[0]).encode("utf-8"))
            digest.update(repr(schedule[-1]).encode("utf-8"))
        if self.faults is not None:
            digest.update(
                repr(sorted(self.faults.describe().items())).encode("utf-8")
            )
        for attack in self.attacks:
            digest.update(repr(sorted(attack.describe().items())).encode("utf-8"))
        for planned in plan:
            digest.update(planned.tx.txid.encode("utf-8"))
        return digest.hexdigest()[:32]

    def _write_checkpoint(
        self,
        checkpoint: "CheckpointConfig",
        fingerprint: str,
        next_index: int,
        plan_index: int,
        orphaned: int,
        pending: dict[str, int],
        committed: dict[str, tuple[int, int, float]],
        chain: Blockchain,
    ) -> None:
        from ..datasets.io import _encode_block
        from ..faults.checkpoint import write_checkpoint

        payload = {
            "version": 1,
            "fingerprint": fingerprint,
            "next_index": next_index,
            "plan_index": plan_index,
            "orphaned": orphaned,
            "blocks": [_encode_block(block) for block in chain],
            "committed": {
                txid: list(value) for txid, value in committed.items()
            },
            "pending": sorted(pending),
            "streams": self.streams.state_dict(),
            "extra_streams": [
                registry.state_dict() for registry in checkpoint.extra_streams
            ],
            "services": {
                name: service.export_orders()
                for name, service in sorted(self.services.items())
            },
            "pool_address_cursors": {
                pool.name: pool._next_address for pool in self.pools
            },
        }
        write_checkpoint(checkpoint.path, payload)

    def _restore_checkpoint(
        self,
        state: dict,
        checkpoint: "CheckpointConfig",
        fingerprint: str,
        plan: Sequence[PlannedTx],
        pending: dict[str, int],
        pending_spenders: dict[object, str],
        committed_outpoints: set,
        committed: dict[str, tuple[int, int, float]],
        chain: Blockchain,
    ) -> tuple[int, int, int]:
        from ..datasets.io import _decode_block
        from ..faults.checkpoint import CheckpointError

        if state.get("fingerprint") != fingerprint:
            raise CheckpointError(
                f"checkpoint {checkpoint.path} belongs to a different run "
                "(seed, plan, schedule or fault configuration differ)"
            )
        txid_to_index = {p.tx.txid: i for i, p in enumerate(plan)}
        try:
            for payload in state["blocks"]:
                chain.append(_decode_block(payload, chain.tip_hash))
            for txid, value in state["committed"].items():
                height, position, block_time = value
                committed[txid] = (int(height), int(position), float(block_time))
                for txin in plan[txid_to_index[txid]].tx.inputs:
                    committed_outpoints.add(txin.prevout)
            for txid in state["pending"]:
                index = txid_to_index[txid]
                pending[txid] = index
                for txin in plan[index].tx.inputs:
                    pending_spenders[txin.prevout] = txid
            self.streams.load_state_dict(state["streams"])
            for registry, payload in zip(
                checkpoint.extra_streams, state["extra_streams"]
            ):
                registry.load_state_dict(payload)
            for name, orders in state["services"].items():
                service = self.services.get(name)
                if service is not None:
                    service.restore_orders(orders)
            cursors = state["pool_address_cursors"]
            for pool in self.pools:
                pool._next_address = int(cursors[pool.name])
            return (
                int(state["next_index"]),
                int(state["plan_index"]),
                int(state["orphaned"]),
            )
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed checkpoint {checkpoint.path}: {exc!r}"
            ) from exc

    def _eligible_entries(
        self,
        pending: dict[str, int],
        plan: Sequence[PlannedTx],
        arrivals: list[float],
        block_time: float,
    ) -> list[MempoolEntry]:
        """Pending transactions that reached this pool, parent-closed.

        ``arrivals`` is the pool's arrival time of every planned
        transaction, indexed like ``plan``.  A transaction is withheld
        if any parent is still pending but has not reached the pool (or
        was itself withheld) — including it would commit a child before
        its parent exists on-chain.
        """
        candidates: dict[str, tuple[Transaction, float]] = {}
        for txid, index in pending.items():
            arrival = arrivals[index]
            if arrival <= block_time:
                candidates[txid] = (plan[index].tx, arrival)

        pending_set = set(pending)
        eligible: dict[str, MempoolEntry] = {}
        # Iterate to a fixpoint: removing a parent can orphan its child.
        changed = True
        selected = dict(candidates)
        while changed:
            changed = False
            for txid in list(selected):
                tx, _ = selected[txid]
                for parent in tx.parent_txids:
                    if parent in pending_set and parent not in selected:
                        del selected[txid]
                        changed = True
                        break
        for txid, (tx, arrival) in selected.items():
            eligible[txid] = MempoolEntry(tx=tx, arrival_time=arrival)
        return list(eligible.values())

    # ------------------------------------------------------------------
    # Dataset curation
    # ------------------------------------------------------------------
    def _curate(
        self,
        plan: Sequence[PlannedTx],
        broadcast_times: np.ndarray,
        observer_delays: dict[str, np.ndarray],
        committed: dict[str, tuple[int, int, float]],
        chain: Blockchain,
        orphaned: int = 0,
    ) -> SimulationResult:
        with obs.span("engine.curate"):
            return self._curate_all(
                plan, broadcast_times, observer_delays, committed, chain, orphaned
            )

    def _curate_all(
        self,
        plan: Sequence[PlannedTx],
        broadcast_times: np.ndarray,
        observer_delays: dict[str, np.ndarray],
        committed: dict[str, tuple[int, int, float]],
        chain: Blockchain,
        orphaned: int = 0,
    ) -> SimulationResult:
        directory = make_directory(self.pools)
        attributor = PoolAttributor(directory)
        block_pools = {
            block.height: attributor.attribute(block) for block in chain
        }
        pool_wallets = {
            pool.name: pool.wallet_addresses for pool in self.pools
        }

        datasets: dict[str, Dataset] = {}
        for observer in self.observers:
            dataset = self._curate_observer(
                observer,
                plan,
                broadcast_times,
                observer_delays[observer.name],
                committed,
                chain,
                block_pools,
                pool_wallets,
                orphaned,
            )
            datasets[observer.name] = dataset
        primary = datasets[self.observers[0].name]
        return SimulationResult(dataset=primary, datasets_by_observer=datasets)

    def _curate_observer(
        self,
        observer: ObserverConfig,
        plan: Sequence[PlannedTx],
        broadcast_times: np.ndarray,
        delays: np.ndarray,
        committed: dict[str, tuple[int, int, float]],
        chain: Blockchain,
        block_pools: dict[int, str],
        pool_wallets: dict[str, frozenset[str]],
        orphaned: int = 0,
    ) -> Dataset:
        cfg = self.config
        arrival_times = broadcast_times + delays
        block_delay_rng = self.streams.fresh(f"latency/blocks/{observer.name}")

        # Observer-side faults.  The removal-delay draw below is keyed
        # on the *fault-free* arrival so the no-fault draw sequence is
        # replayed exactly: engine-injected faults and post-hoc
        # degradation (repro.faults.degrade) then agree tx for tx.
        faults = self.faults
        lost: frozenset = frozenset()
        down: tuple = ()
        partitions: tuple = ()
        effective_arrivals = arrival_times
        if faults is not None:
            pairs = [(p.broadcast_time, p.tx.txid) for p in plan]
            lost = faults.observer_lost_txids(observer.name, pairs)
            down = faults.downtime_for(observer.name)
            partitions = faults.partitions_for(observer.name)
            if lost or down or partitions:
                effective_arrivals = arrival_times.copy()

        tx_records: dict[str, TxRecord] = {}
        add_events: list[tuple[float, int]] = []  # (time, plan index)
        remove_events: list[tuple[float, int]] = []
        for index, planned in enumerate(plan):
            tx = planned.tx
            commit = committed.get(tx.txid)
            accepted = tx.fee_rate >= observer.min_fee_rate
            base_arrival = float(arrival_times[index]) if accepted else None
            observer_arrival = base_arrival
            if observer_arrival is not None and faults is not None:
                if tx.txid in lost:
                    observer_arrival = None
                elif any(w.contains(observer_arrival) for w in down):
                    observer_arrival = None
                else:
                    for window in partitions:
                        if window.contains(observer_arrival):
                            if commit is not None and commit[2] <= window.end:
                                observer_arrival = None
                            else:
                                observer_arrival = window.end
                                effective_arrivals[index] = window.end
                            break
            commit_height = commit[0] if commit else None
            commit_position = commit[1] if commit else None
            tx_records[tx.txid] = TxRecord(
                txid=tx.txid,
                broadcast_time=float(broadcast_times[index]),
                observer_arrival=observer_arrival,
                fee=tx.fee,
                vsize=tx.vsize,
                commit_height=commit_height,
                commit_position=commit_position,
                labels=planned.labels,
            )
            if base_arrival is not None and base_arrival <= cfg.duration:
                if commit is not None:
                    delay = float(block_delay_rng.lognormal(np.log(0.4), 0.5))
            if observer_arrival is None or observer_arrival > cfg.duration:
                continue
            add_events.append((observer_arrival, index))
            if commit is not None:
                removal = max(commit[2] + delay, observer_arrival)
            else:
                removal = observer_arrival + cfg.mempool_expiry
            remove_events.append((removal, index))

        size_series, snapshots = self._reconstruct_mempool(
            observer, plan, add_events, remove_events, effective_arrivals, down
        )
        metadata = {
            "observer": observer.name,
            "min_fee_rate": observer.min_fee_rate,
            "duration": cfg.duration,
        }
        if faults is not None:
            metadata["faults"] = faults.describe()
            metadata["orphaned_blocks"] = orphaned
        if self.attacks:
            metadata["attacks"] = [attack.describe() for attack in self.attacks]
            metadata["orphaned_blocks"] = orphaned
        return Dataset(
            name=observer.name,
            chain=chain,
            snapshots=snapshots,
            tx_records=tx_records,
            block_pools=block_pools,
            pool_wallets=pool_wallets,
            size_series=size_series,
            metadata=metadata,
        )

    def _reconstruct_mempool(
        self,
        observer: ObserverConfig,
        plan: Sequence[PlannedTx],
        add_events: list[tuple[float, int]],
        remove_events: list[tuple[float, int]],
        arrival_times: np.ndarray,
        down: tuple = (),
    ) -> tuple[SizeSeries, SnapshotStore]:
        """Sweep add/remove events into per-tick sizes + sampled snapshots.

        ``down`` windows (observer offline) suppress *recording* at the
        affected ticks — the size series gets a gap and sampled
        snapshots are dropped — while the event sweep keeps running, so
        the state at the first tick after an outage is exact.
        """
        cfg = self.config
        add_events.sort()
        remove_events.sort()
        tick_times = np.arange(0.0, cfg.duration, observer.snapshot_interval)
        sample_rng = self.streams.fresh(f"snapshots/{observer.name}")
        sample_count = min(cfg.full_snapshot_count, tick_times.size)
        sampled_ticks = set(
            int(i)
            for i in sample_rng.choice(
                tick_times.size, size=sample_count, replace=False
            )
        ) if sample_count else set()

        live: set[int] = set()
        times: list[float] = []
        sizes: list[int] = []
        counts: list[int] = []
        total_vsize = 0
        snapshots: list[MempoolSnapshot] = []
        add_ptr = 0
        remove_ptr = 0
        for tick_index, tick in enumerate(tick_times):
            while add_ptr < len(add_events) and add_events[add_ptr][0] <= tick:
                index = add_events[add_ptr][1]
                live.add(index)
                total_vsize += plan[index].tx.vsize
                add_ptr += 1
            while remove_ptr < len(remove_events) and remove_events[remove_ptr][0] <= tick:
                index = remove_events[remove_ptr][1]
                if index in live:
                    live.remove(index)
                    total_vsize -= plan[index].tx.vsize
                remove_ptr += 1
            if down and any(w.contains(float(tick)) for w in down):
                continue
            times.append(float(tick))
            sizes.append(total_vsize)
            counts.append(len(live))
            if tick_index in sampled_ticks:
                txs = tuple(
                    SnapshotTx(
                        txid=plan[index].tx.txid,
                        arrival_time=float(arrival_times[index]),
                        fee=plan[index].tx.fee,
                        vsize=plan[index].tx.vsize,
                    )
                    for index in sorted(live)
                )
                if invariants_enabled():
                    # The incremental sweep totals must match the
                    # materialised snapshot — drift here skews every
                    # congestion bin downstream.
                    recomputed = sum(t.vsize for t in txs)
                    if recomputed != total_vsize or len(txs) != len(live):
                        raise InvariantViolation(
                            f"snapshot at t={float(tick):g} diverges from "
                            f"sweep totals: vsize {recomputed} vs "
                            f"{total_vsize}, count {len(txs)} vs {len(live)}"
                        )
                snapshots.append(MempoolSnapshot(time=float(tick), txs=txs))
        if snapshots:
            obs.counter("engine.snapshots.recorded", len(snapshots))
        obs.gauge_max("engine.peak_pending_vsize", max(sizes, default=0))
        series = SizeSeries(times=times, vsizes=sizes, tx_counts=counts)
        return series, SnapshotStore(snapshots)


def run_scenario(
    config: EngineConfig,
    pools: Sequence[MiningPool],
    observers: Sequence[ObserverConfig],
    plan: Sequence[PlannedTx],
    streams: RngStreams,
    services: Sequence[AccelerationService] = (),
    faults: Optional["FaultSchedule"] = None,
    attacks: Sequence["SelfishMiningAttack"] = (),
) -> SimulationResult:
    """One-call convenience wrapper around :class:`SimulationEngine`."""
    engine = SimulationEngine(
        config=config,
        pools=pools,
        observers=observers,
        streams=streams,
        services=services,
        faults=faults,
        attacks=attacks,
    )
    return engine.run(plan)
