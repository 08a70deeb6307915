"""Scenario definitions: synthetic analogues of the paper's datasets.

Each builder wires pools (with the paper's measured hash-rate profile),
observers (mirroring the paper's two instrumented nodes), misbehaviour
policies, and a workload into one reproducible package.  The ``scale``
parameter shrinks block counts and injection volumes proportionally so
tests can run the same scenarios in seconds.

Misbehaviour wiring for the dataset-C analogue follows Table 2's
findings as ground truth:

* F2Pool, ViaBTC, 1THash & 58Coin and SlushPool accelerate their own
  (self-interest) transactions;
* ViaBTC additionally *colludes*, accelerating transactions of
  1THash & 58Coin and SlushPool;
* BTC.com operates a dark-fee acceleration service and boosts its order
  book (Table 4);
* nobody treats scam payments specially (Table 3);
* F2Pool, ViaBTC and BTC.com run a zero fee-rate floor, so they
  occasionally commit sub-threshold transactions (§4.2.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from ..chain.constants import TARGET_BLOCK_INTERVAL
from ..mining.acceleration import AccelerationService
from ..mining.adversaries import (
    BucketedPriorityPolicy,
    CallAuctionPolicy,
    CensorForRentPolicy,
    FifoPolicy,
    MevCampaign,
    SandwichPolicy,
    SelfishMiningAttack,
)
from ..mining.policies import (
    AnyOfPredicate,
    FeeRatePolicy,
    JitterSource,
    MinFeeRatePolicy,
    NoisyPolicy,
    OrderingPolicy,
    PrioritizeSetPolicy,
    address_predicate,
    txid_set_predicate,
)
from ..mining.pool import (
    DATASET_A_POOLS,
    DATASET_B_POOLS,
    DATASET_C_POOLS,
    MiningPool,
    make_pools,
)
from ..mining.pool import normalize_hash_shares
from .engine import (
    EngineConfig,
    ObserverConfig,
    SimulationEngine,
    SimulationResult,
    generate_block_schedule,
)
from .rng import RngStreams
from .workload import (
    DemandModel,
    FeeModel,
    InjectionConfig,
    SizeModel,
    WorkloadConfig,
    WorkloadGenerator,
    scam_wallet_address,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.schedule import FaultSchedule

#: Pools whose nodes accept sub-threshold transactions (§4.2.3 found
#: F2Pool, ViaBTC and BTC.com committing low/zero-fee transactions).
ZERO_FLOOR_POOLS = frozenset({"F2Pool", "ViaBTC", "BTC.com"})

#: Pools that accelerate their own transactions (Table 2).
SELF_ACCELERATING_POOLS = frozenset(
    {"F2Pool", "ViaBTC", "1THash & 58Coin", "SlushPool"}
)

#: Collusion edges: accelerator -> pools whose transactions it boosts.
COLLUSION: dict[str, tuple[str, ...]] = {
    "ViaBTC": ("1THash & 58Coin", "SlushPool"),
}

#: Name of the dark-fee service in the dataset-C analogue.
BTC_COM_SERVICE = "BTC.com-accelerator"


@dataclass
class Scenario:
    """A fully wired scenario, ready to run."""

    name: str
    seed: int
    engine_config: EngineConfig
    pools: list[MiningPool]
    observers: list[ObserverConfig]
    workload_config: WorkloadConfig
    #: The size knob this scenario was built at.  Together with ``name``
    #: and ``seed`` it uniquely parameterises the build, so the dataset
    #: cache uses it as a key component.
    scale: float = 1.0
    services: list[AccelerationService] = field(default_factory=list)
    #: Optional fault schedule injected into the engine run.  Fault
    #: draws use the schedule's own RNG root, so a zero-rate schedule
    #: yields byte-identical artifacts to no schedule at all.
    faults: Optional["FaultSchedule"] = None
    #: Pool-level consensus attacks (selfish mining / block withholding)
    #: applied as a stale-race overlay before substrate dispatch, so
    #: both substrates consume the identical merged mask.
    attacks: list[SelfishMiningAttack] = field(default_factory=list)

    def run(self, *, scalar: bool = False) -> SimulationResult:
        """Generate the workload and simulate to a curated dataset.

        ``scalar`` produces blocks with the engine's per-tx reference
        loop instead of the fast path (see :meth:`SimulationEngine.run`).
        """
        import numpy as np

        streams = RngStreams(self.seed)
        # Draw the mining race up front so the workload's fee model can
        # react to the real backlog (demand waves AND mining luck).
        schedule = generate_block_schedule(
            self.engine_config.duration,
            self.engine_config.block_interval,
            normalize_hash_shares(self.pools),
            streams.stream("mining"),
        )
        self.workload_config.block_times = np.asarray(
            [time for time, _ in schedule], dtype=float
        )
        self.workload_config.block_interval = self.engine_config.block_interval
        generator = WorkloadGenerator(self.workload_config, streams)
        plan = generator.generate()
        engine = SimulationEngine(
            config=self.engine_config,
            pools=self.pools,
            observers=self.observers,
            streams=streams,
            services=self.services,
            schedule=schedule,
            faults=self.faults,
            attacks=self.attacks,
        )
        result = engine.run(plan, scalar=scalar)
        injections = self.workload_config.injections
        for dataset in result.datasets_by_observer.values():
            dataset.metadata["scenario"] = self.name
            dataset.metadata["seed"] = self.seed
            if injections.scam_count > 0:
                dataset.metadata["scam_window"] = injections.scam_window
        return result


def _jittered(
    base_jitter: JitterSource,
    jitter: float,
    floor: float,
) -> OrderingPolicy:
    """Honest pool policy: package GBT + rank jitter + fee floor."""
    return MinFeeRatePolicy(
        base=NoisyPolicy(
            base_jitter_source=base_jitter,
            base=FeeRatePolicy(package_selection=True),
            jitter=jitter,
        ),
        floor=floor,
    )


def _wire_policies(
    pools: Sequence[MiningPool],
    streams: RngStreams,
    services: Sequence[AccelerationService] = (),
    misbehave: bool = False,
    jitter: float = 1.5,
    viabtc_extra_jitter: float = 2.5,
) -> None:
    """Install per-pool ordering policies in place."""
    by_name = {pool.name: pool for pool in pools}
    service_by_operator: dict[str, AccelerationService] = {}
    for service in services:
        for operator in service.operators:
            service_by_operator[operator] = service

    for pool in pools:
        source = JitterSource(rng=streams.stream(f"jitter/{pool.name}"))
        pool_jitter = jitter + (
            viabtc_extra_jitter if pool.name == "ViaBTC" else 0.0
        )
        floor = 0.0 if pool.name in ZERO_FLOOR_POOLS else 1.0
        policy: OrderingPolicy = _jittered(source, pool_jitter, floor)
        if misbehave:
            # Collusive rescue layer: partner transactions stuck for at
            # least half an hour get lifted (inner layer, below the
            # pool's own instant boosts).  Rescue-only collusion keeps
            # the owner pool first in line for its fresh transactions,
            # as observed in the wild.
            partner_predicates = []
            for partner in COLLUSION.get(pool.name, ()):
                partner_pool = by_name.get(partner)
                if partner_pool is not None:
                    partner_predicates.append(
                        address_predicate(partner_pool.wallet_addresses)
                    )
            if partner_predicates:
                policy = PrioritizeSetPolicy(
                    base=policy,
                    boost=AnyOfPredicate(tuple(partner_predicates)),
                    label=f"collude/{pool.name}",
                    min_age=1800.0,
                )
            # Instant boosts: the pool's own transactions and its
            # acceleration-service order book.
            own_predicates = []
            if pool.name in SELF_ACCELERATING_POOLS:
                own_predicates.append(address_predicate(pool.wallet_addresses))
            service = service_by_operator.get(pool.name)
            if service is not None:
                pool.acceleration_service = service
                own_predicates.append(
                    txid_set_predicate(service.accelerated_txids)
                )
            if own_predicates:
                policy = PrioritizeSetPolicy(
                    base=policy,
                    boost=AnyOfPredicate(tuple(own_predicates)),
                    label=f"boost/{pool.name}",
                )
        pool.policy = policy


def _capacity_per_second(engine_config: EngineConfig) -> float:
    return engine_config.max_block_vsize / engine_config.block_interval


def dataset_a_scenario(
    seed: int = 2019_02_20,
    scale: float = 1.0,
    faults: Optional["FaultSchedule"] = None,
) -> Scenario:
    """Analogue of dataset A: default node, three weeks of Feb-Mar 2019.

    The paper's node kept the default 1 sat/vB threshold and 8 peers;
    congestion held ~75% of the time.  Default scale covers ~450 blocks.
    """
    blocks = max(int(450 * scale), 20)
    duration = blocks * TARGET_BLOCK_INTERVAL
    engine_config = EngineConfig(duration=duration)
    pools = make_pools(DATASET_A_POOLS)
    streams = RngStreams(seed)
    _wire_policies(pools, streams, misbehave=False)
    workload = WorkloadConfig(
        duration=duration,
        capacity_vsize_per_second=_capacity_per_second(engine_config),
        demand=DemandModel(base_ratio=1.01, ar_sigma=0.09),
        fees=FeeModel(median_sat_vb=25.0),
        sizes=SizeModel(),
        injections=InjectionConfig(
            cpfp_child_fraction=0.46,
            rbf_bump_fraction=0.05,
        ),
        pool_wallets={pool.name: pool.reward_addresses for pool in pools},
    )
    observers = [ObserverConfig(name="A", min_fee_rate=1.0, peer_samples=1)]
    return Scenario(
        name="dataset-A",
        seed=seed,
        scale=scale,
        engine_config=engine_config,
        pools=pools,
        observers=observers,
        workload_config=workload,
        faults=faults,
    )


def dataset_b_scenario(
    seed: int = 2019_06_01,
    scale: float = 1.0,
    faults: Optional["FaultSchedule"] = None,
) -> Scenario:
    """Analogue of dataset B: permissive node, June 2019.

    125 peers, no fee threshold, zero-fee transactions accepted;
    congestion ~92% of the time, with the late-June demand surge.
    Includes the low/zero-fee probe population of §4.2.3.
    """
    blocks = max(int(500 * scale), 20)
    duration = blocks * TARGET_BLOCK_INTERVAL
    engine_config = EngineConfig(duration=duration)
    pools = make_pools(DATASET_B_POOLS)
    streams = RngStreams(seed)
    _wire_policies(pools, streams, misbehave=False)
    workload = WorkloadConfig(
        duration=duration,
        capacity_vsize_per_second=_capacity_per_second(engine_config),
        demand=DemandModel(base_ratio=1.12, ar_sigma=0.13, diurnal_amplitude=0.3),
        fees=FeeModel(median_sat_vb=40.0, sigma=1.4, backlog_exponent=0.7),
        sizes=SizeModel(),
        injections=InjectionConfig(
            cpfp_child_fraction=0.40,
            low_fee_count=max(int(120 * scale), 10),
            zero_fee_count=max(int(90 * scale), 8),
            rbf_bump_fraction=0.08,
        ),
        pool_wallets={pool.name: pool.reward_addresses for pool in pools},
    )
    observers = [
        ObserverConfig(name="B", min_fee_rate=0.0, peer_samples=4),
    ]
    return Scenario(
        name="dataset-B",
        seed=seed,
        scale=scale,
        engine_config=engine_config,
        pools=pools,
        observers=observers,
        workload_config=workload,
        faults=faults,
    )


def dataset_c_scenario(
    seed: int = 2020_01_01,
    scale: float = 1.0,
    faults: Optional["FaultSchedule"] = None,
) -> Scenario:
    """Analogue of dataset C: the full year 2020, with misbehaviour.

    This is the scenario behind Tables 2-4 and Figs 7/8/13: pools
    accelerate self-interest transactions, ViaBTC colludes, BTC.com
    sells dark-fee acceleration, and a scam episode unfolds mid-run.
    Default scale covers ~2000 blocks.
    """
    blocks = max(int(2000 * scale), 40)
    duration = blocks * TARGET_BLOCK_INTERVAL
    engine_config = EngineConfig(duration=duration)
    pools = make_pools(DATASET_C_POOLS)
    # A small unregistered fringe so ~1.3% of blocks resist attribution.
    pools.append(
        MiningPool(
            name="ghost-fringe",
            marker="/anon/",
            hash_share=0.013,
            registered=False,
        )
    )
    streams = RngStreams(seed)
    service = AccelerationService(name=BTC_COM_SERVICE, operators=("BTC.com",))
    _wire_policies(pools, streams, services=[service], misbehave=True)

    def scaled(count: int, minimum: int = 4) -> int:
        return max(int(count * scale), minimum)

    # Scam window: a contiguous ~7% slice of the run (the paper's window
    # spans 3697 of 53214 blocks).
    scam_start = duration * 0.55
    scam_end = duration * 0.62

    self_interest = {
        "Poolin": scaled(300),
        "OKEx": scaled(280),
        "Huobi": scaled(220),
        "F2Pool": scaled(250),
        "ViaBTC": scaled(200),
        "SlushPool": scaled(650),
        "1THash & 58Coin": scaled(500),
        "BTC.com": scaled(120),
        "AntPool": scaled(110),
        "Binance Pool": scaled(80),
    }
    workload = WorkloadConfig(
        duration=duration,
        capacity_vsize_per_second=_capacity_per_second(engine_config),
        demand=DemandModel(base_ratio=0.96, ar_sigma=0.10),
        fees=FeeModel(median_sat_vb=30.0),
        sizes=SizeModel(),
        injections=InjectionConfig(
            self_interest_counts=self_interest,
            self_interest_fee_rate=1.6,
            scam_count=scaled(120, minimum=30),
            scam_window=(scam_start, scam_end),
            accelerated_counts={BTC_COM_SERVICE: scaled(140, minimum=20)},
            accelerated_fee_rate=2.0,
            low_fee_count=scaled(60),
            zero_fee_count=scaled(40),
            cpfp_child_fraction=0.33,
            rbf_bump_fraction=0.10,
        ),
        pool_wallets={pool.name: pool.reward_addresses for pool in pools},
    )
    observers = [ObserverConfig(name="C", min_fee_rate=0.0, peer_samples=2)]
    return Scenario(
        name="dataset-C",
        seed=seed,
        scale=scale,
        engine_config=engine_config,
        pools=pools,
        observers=observers,
        workload_config=workload,
        services=[service],
        faults=faults,
    )


def honest_scenario(
    seed: int = 7,
    blocks: int = 120,
    base_ratio: float = 1.0,
    faults: Optional["FaultSchedule"] = None,
) -> Scenario:
    """A small, fully honest control scenario for tests and ablations."""
    duration = blocks * TARGET_BLOCK_INTERVAL
    engine_config = EngineConfig(duration=duration)
    pools = make_pools(DATASET_C_POOLS[:8])
    streams = RngStreams(seed)
    _wire_policies(pools, streams, misbehave=False)
    workload = WorkloadConfig(
        duration=duration,
        capacity_vsize_per_second=_capacity_per_second(engine_config),
        demand=DemandModel(base_ratio=base_ratio),
        pool_wallets={pool.name: pool.reward_addresses for pool in pools},
    )
    observers = [ObserverConfig(name="control", min_fee_rate=0.0, peer_samples=2)]
    return Scenario(
        name="honest-control",
        seed=seed,
        scale=float(blocks),
        engine_config=engine_config,
        pools=pools,
        observers=observers,
        workload_config=workload,
        faults=faults,
    )


#: The adversary-zoo lineup kinds understood by :func:`adversary_scenario`.
ADVERSARY_KINDS = (
    "honest",
    "fifo",
    "bucketed",
    "call-auction",
    "sandwich",
    "censor-for-rent",
    "selfish",
    "max-boost",
)


def adversary_scenario(
    kind: str,
    seed: int = 404,
    scale: float = 1.0,
    intensity: float = 1.0,
    target_pool: str = "F2Pool",
    faults: Optional["FaultSchedule"] = None,
) -> Scenario:
    """One adversary-zoo lineup for the detection-power scorecard.

    Every kind runs the *same* labelled workload (self-interest probes,
    a scam population, MEV victim/attacker pairs, low/zero-fee probes) —
    only the target pool's ordering policy, or the pool-level attack,
    differs between rows.  That keeps the detection matrix comparable:
    the ``honest`` row measures each test's false-positive rate on
    identical data, and every adversarial row measures power.

    ``intensity`` in [0, 1] scales how aggressively the adversary
    deviates (victim coverage, ransom floor, bucket width, withholding
    engagement); kinds without a natural knob ignore it.
    """
    if kind not in ADVERSARY_KINDS:
        raise ValueError(f"unknown adversary kind: {kind!r}")
    if not 0.0 <= intensity <= 1.0:
        raise ValueError("intensity must be in [0, 1]")
    blocks = max(int(1800 * scale), 60)
    duration = blocks * TARGET_BLOCK_INTERVAL
    engine_config = EngineConfig(duration=duration)
    pools = make_pools(DATASET_C_POOLS[:8])
    streams = RngStreams(seed)
    _wire_policies(pools, streams, misbehave=False)
    target = find_pool_in(pools, target_pool)
    if target is None:
        raise ValueError(f"target pool not in lineup: {target_pool!r}")

    def scaled(count: int, minimum: int = 4) -> int:
        return max(int(count * scale), minimum)

    campaign = MevCampaign(name="zoo")
    workload = WorkloadConfig(
        duration=duration,
        capacity_vsize_per_second=_capacity_per_second(engine_config),
        demand=DemandModel(base_ratio=1.0, ar_sigma=0.10),
        fees=FeeModel(median_sat_vb=30.0),
        sizes=SizeModel(),
        injections=InjectionConfig(
            self_interest_counts={target.name: scaled(260, minimum=30)},
            self_interest_fee_rate=1.6,
            scam_count=scaled(600, minimum=48),
            low_fee_count=scaled(60),
            zero_fee_count=scaled(40),
            cpfp_child_fraction=0.33,
            mev_victim_count=scaled(90, minimum=12),
        ),
        mev_campaign=campaign,
        pool_wallets={pool.name: pool.reward_addresses for pool in pools},
    )
    attacks: list[SelfishMiningAttack] = []
    if kind == "fifo":
        target.policy = FifoPolicy(label=f"fifo/{target.name}")
    elif kind == "bucketed":
        # Wider buckets erase more of the fee ordering; fee-rates are
        # lognormal around 30 sat/vB, so intensity 1.0 (width 64)
        # collapses ~3/4 of all traffic into one arrival-ordered bucket.
        target.policy = BucketedPriorityPolicy(
            width=max(2.0, 64.0 * intensity),
            label=f"bucketed/{target.name}",
        )
    elif kind == "call-auction":
        target.policy = CallAuctionPolicy(label=f"auction/{target.name}")
    elif kind == "sandwich":
        target.policy = SandwichPolicy(
            base=target.policy,
            victim=txid_set_predicate(campaign.victims),
            attacker=txid_set_predicate(campaign.attackers),
            intensity=intensity,
            label=f"sandwich/{target.name}",
        )
    elif kind == "censor-for-rent":
        # Scam fee-rates are lognormal around 30 sat/vB; the ransom
        # floor censors ~50% of them at intensity 0, ~90% at 0.5 and
        # ~99.5% at 1.0.
        target.policy = CensorForRentPolicy(
            base=target.policy,
            banned=address_predicate(frozenset({scam_wallet_address()})),
            ransom_rate=30.0 * (8.0 ** intensity),
            label=f"censor-for-rent/{target.name}",
        )
    elif kind == "selfish":
        attacks.append(
            SelfishMiningAttack(
                pool=target.name,
                gamma=0.1,
                engagement=intensity,
                seed=seed + 7919,
            )
        )
    elif kind == "max-boost":
        # Maximal self-interest acceleration: the canonical Table 2
        # misbehaviour at full strength, used by the scorecard's
        # power ≈ 1 meta-check.
        target.policy = PrioritizeSetPolicy(
            base=target.policy,
            boost=address_predicate(target.wallet_addresses),
            label=f"boost/{target.name}",
        )
    observers = [ObserverConfig(name="zoo", min_fee_rate=0.0, peer_samples=2)]
    return Scenario(
        name=f"adv-{kind}-{target.name}-i{intensity:g}",
        seed=seed,
        scale=scale,
        engine_config=engine_config,
        pools=pools,
        observers=observers,
        workload_config=workload,
        faults=faults,
        attacks=attacks,
    )


def find_pool_in(
    pools: Sequence[MiningPool], name: str
) -> Optional[MiningPool]:
    """Look up a pool by name in a plain pool list."""
    for pool in pools:
        if pool.name == name:
            return pool
    return None


def scam_window_bounds(scenario: Scenario) -> tuple[float, float]:
    """The scam episode's time window inside a scenario."""
    return scenario.workload_config.injections.scam_window


def find_pool(scenario: Scenario, name: str) -> Optional[MiningPool]:
    """Look up one of a scenario's pools by name."""
    for pool in scenario.pools:
        if pool.name == name:
            return pool
    return None
