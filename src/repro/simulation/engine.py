"""The simulation engine: from a workload plan to a curated Dataset.

The engine plays out a scenario on a *vectorised fast path*: instead of
flooding every transaction through an evented P2P mesh (see
:mod:`repro.reference.p2p`, kept as a test-only reference substrate),
it draws, per transaction, an independent arrival time at every mining
pool and at every observer node from the latency model.  Propagation
skew — the observable that matters to the audit — is preserved, while
the cost drops from O(txs x edges) events to O(txs) work plus one pass
per block.  ``tests/test_evented_vs_engine.py`` cross-checks the two
paths on small scenarios.

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
from ..datasets.dataset import Dataset
from ..datasets.records import TxRecord
from ..mempool.snapshots import (
    MempoolSnapshot,
    SizeSeries,
    SnapshotStore,
    SnapshotTx,
)
from ..mining.acceleration import AccelerationService
from ..mining.pool import MiningPool, make_directory, normalize_hash_shares
from ..obs.invariants import InvariantViolation, invariants_enabled
from .rng import RngStreams
from .workload import PlannedTx

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.schedule import FaultSchedule
    from ..mining.adversaries import SelfishMiningAttack


class UnsupportedFaultError(ValueError):
    """A fault schedule asks for a fault kind the engine does not apply.

    Node crashes and per-hop gossip loss exist only on the evented
    reference substrate; the engine refuses them rather than record, in
    ``metadata['faults']``, faults its output does not show.
    """


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
        if faults is not None and (faults.crashes or faults.per_hop_loss_rate):
            raise UnsupportedFaultError(
                "the simulation engine applies neither node crashes nor "
                "per-hop loss; only the evented reference substrate does"
            )
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
        self, plan: Sequence[PlannedTx], *, scalar: bool = False
    ) -> SimulationResult:
        """Execute the scenario over ``plan`` and curate datasets.

        Blocks are produced by the vectorized fast path unless
        ``scalar`` selects the per-tx reference loop (the differential
        oracle, :mod:`repro.reference.per_tx`).
        """
        with obs.span("engine.run"):
            return self._run(plan, scalar)

    def _run(self, plan: Sequence[PlannedTx], scalar: bool) -> SimulationResult:
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
        # differential oracle, selected by ``scalar=True``; it is the
        # one production import of repro.reference.
        if scalar:
            from ..reference.per_tx import produce_per_tx as produce
        else:
            from .fast import produce_fast as produce

        committed, chain, orphaned = produce(
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

