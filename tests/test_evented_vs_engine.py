"""Cross-validation: the evented reference path vs the engine fast path.

DESIGN.md promises that the vectorised engine reproduces the evented
network's audit-relevant observables.  These tests run the *same
workload plan and pool lineup* through both paths and compare what the
audit consumes: commit coverage, delay distributions, ordering
conformance (PPE), and violation fractions.  The two paths use
different randomness for propagation, so comparisons are distributional
rather than exact.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.congestion import commit_delays_in_blocks
from repro.core.ppe import chain_ppe, summarize_ppe
from repro.datasets.records import LABEL_SELF_INTEREST, make_label
from repro.faults.schedule import FaultSchedule
from repro.mining.pool import DATASET_C_POOLS, make_pools
from repro.mining.policies import (
    CensorPolicy,
    FeeRatePolicy,
    PrioritizeSetPolicy,
    address_predicate,
)
from repro.simulation.engine import (
    EngineConfig,
    ObserverConfig,
    SimulationEngine,
)
from repro.reference.evented import EventedConfig, EventedSimulation
from repro.simulation.rng import RngStreams
from repro.simulation.workload import (
    DemandModel,
    InjectionConfig,
    SizeModel,
    WorkloadConfig,
    WorkloadGenerator,
)


DURATION = 60 * 600.0  # 60 target blocks


@pytest.fixture(scope="module")
def shared_plan():
    config = WorkloadConfig(
        duration=DURATION,
        capacity_vsize_per_second=1_000_000 / 600.0,
        demand=DemandModel(base_ratio=0.9),
        sizes=SizeModel(median_vsize=8000.0),
    )
    return WorkloadGenerator(config, RngStreams(2024)).generate()


def fresh_pools():
    pools = make_pools(DATASET_C_POOLS[:6])
    for pool in pools:
        pool.policy = FeeRatePolicy(package_selection=True)
    return pools


@pytest.fixture(scope="module")
def shared_schedule():
    from repro.mining.pool import normalize_hash_shares
    from repro.simulation.engine import generate_block_schedule

    return generate_block_schedule(
        DURATION,
        600.0,
        normalize_hash_shares(fresh_pools()),
        RngStreams(7).stream("mining"),
    )


@pytest.fixture(scope="module")
def evented_dataset(shared_plan, shared_schedule):
    simulation = EventedSimulation(
        EventedConfig(duration=DURATION), fresh_pools(), RngStreams(7)
    )
    return simulation.run(shared_plan, schedule=shared_schedule)


@pytest.fixture(scope="module")
def engine_dataset(shared_plan, shared_schedule):
    engine = SimulationEngine(
        EngineConfig(duration=DURATION, empty_block_probability=0.0),
        fresh_pools(),
        [ObserverConfig(name="fast", min_fee_rate=0.0)],
        RngStreams(7),
        schedule=shared_schedule,
    )
    return engine.run(shared_plan).dataset


def delays_of(dataset):
    records = [r for r in dataset.tx_records.values() if r.committed]
    return commit_delays_in_blocks(
        [r.broadcast_time for r in records],
        [r.commit_height for r in records],
        dataset.block_times(),
    )


class TestPathsAgree:
    def test_both_commit_the_bulk_of_transactions(
        self, evented_dataset, engine_dataset, shared_plan
    ):
        # The workload deliberately overfills capacity (persistent
        # backlog); both paths should still commit the same majority.
        for dataset in (evented_dataset, engine_dataset):
            committed = sum(
                1 for r in dataset.tx_records.values() if r.committed
            )
            assert committed > 0.5 * len(shared_plan)

    def test_commit_coverage_similar(self, evented_dataset, engine_dataset):
        evented = sum(1 for r in evented_dataset.tx_records.values() if r.committed)
        fast = sum(1 for r in engine_dataset.tx_records.values() if r.committed)
        assert abs(evented - fast) < 0.1 * max(evented, fast)

    def test_delay_distributions_close(self, evented_dataset, engine_dataset):
        evented = delays_of(evented_dataset)
        fast = delays_of(engine_dataset)
        for q in (0.5, 0.9):
            assert abs(
                float(np.quantile(evented, q)) - float(np.quantile(fast, q))
            ) <= 2.0  # within two blocks at the probed quantiles

    def test_ordering_conformance_similar(self, evented_dataset, engine_dataset):
        evented = summarize_ppe(chain_ppe(list(evented_dataset.chain)))
        fast = summarize_ppe(chain_ppe(list(engine_dataset.chain)))
        # Both honest lineups order by fee-rate: low PPE on both paths.
        assert evented.mean < 5.0
        assert fast.mean < 5.0

    def test_observer_sees_almost_everything(self, evented_dataset):
        observed = sum(
            1 for r in evented_dataset.tx_records.values() if r.observed
        )
        assert observed > 0.95 * evented_dataset.tx_count

    def test_arrival_skew_is_small_but_nonzero(self, evented_dataset):
        skews = [
            r.observer_arrival - r.broadcast_time
            for r in evented_dataset.tx_records.values()
            if r.observed
        ]
        skews = np.asarray(skews)
        assert float(np.median(skews)) < 10.0
        assert float(skews.max()) > 0.0

    def test_pool_shares_track_configuration(self, evented_dataset):
        shares = {e.pool: e.share for e in evented_dataset.hash_rates()}
        assert shares.get("F2Pool", 0.0) > 0.1  # configured ~27% of subset


# ----------------------------------------------------------------------
# Misbehaving-policy lineup: F2Pool boosts transactions paying its own
# wallets (self-interest acceleration), Poolin censors that same set.
# ----------------------------------------------------------------------

ACCELERATOR = "F2Pool"
CENSOR = "Poolin"
SELF_INTEREST_LABEL = make_label(LABEL_SELF_INTEREST, ACCELERATOR)


def misbehaving_pools():
    pools = make_pools(DATASET_C_POOLS[:6])
    for pool in pools:
        pool.policy = FeeRatePolicy(package_selection=True)
    accel = pools[0]
    assert accel.name == ACCELERATOR
    accel.policy = PrioritizeSetPolicy(
        base=FeeRatePolicy(package_selection=True),
        boost=address_predicate(accel.wallet_addresses),
        label=f"boost/{ACCELERATOR}",
    )
    censor = pools[1]
    assert censor.name == CENSOR
    censor.policy = CensorPolicy(
        base=FeeRatePolicy(package_selection=True),
        banned=address_predicate(accel.wallet_addresses),
        label=f"censor/{CENSOR}",
    )
    return pools


@pytest.fixture(scope="module")
def misbehaving_plan():
    pools = misbehaving_pools()
    config = WorkloadConfig(
        duration=DURATION,
        capacity_vsize_per_second=1_000_000 / 600.0,
        demand=DemandModel(base_ratio=0.9),
        sizes=SizeModel(median_vsize=8000.0),
        injections=InjectionConfig(self_interest_counts={ACCELERATOR: 40}),
        pool_wallets={pool.name: pool.reward_addresses for pool in pools},
    )
    return WorkloadGenerator(config, RngStreams(2025)).generate()


@pytest.fixture(scope="module")
def evented_misbehaving(misbehaving_plan, shared_schedule):
    simulation = EventedSimulation(
        EventedConfig(duration=DURATION), misbehaving_pools(), RngStreams(7)
    )
    return simulation.run(misbehaving_plan, schedule=shared_schedule)


@pytest.fixture(scope="module")
def engine_misbehaving(misbehaving_plan, shared_schedule):
    engine = SimulationEngine(
        EngineConfig(duration=DURATION, empty_block_probability=0.0),
        misbehaving_pools(),
        [ObserverConfig(name="fast", min_fee_rate=0.0)],
        RngStreams(7),
        schedule=shared_schedule,
    )
    return engine.run(misbehaving_plan).dataset


def self_interest_records(dataset):
    return [
        r
        for r in dataset.tx_records.values()
        if SELF_INTEREST_LABEL in r.labels
    ]


def wallet_touching_commits(dataset, addresses):
    """(pool, commit_position) for every committed tx paying ``addresses``."""
    hits = []
    for block in dataset.chain:
        pool = dataset.block_pools.get(block.height)
        for position, tx in enumerate(block.transactions):
            if tx.touches_address(addresses):
                hits.append((pool, position))
    return hits


class TestMisbehavingPathsAgree:
    def test_commit_coverage_similar(
        self, evented_misbehaving, engine_misbehaving
    ):
        evented = sum(
            1 for r in evented_misbehaving.tx_records.values() if r.committed
        )
        fast = sum(
            1 for r in engine_misbehaving.tx_records.values() if r.committed
        )
        assert evented > 0
        assert abs(evented - fast) < 0.1 * max(evented, fast)

    def test_censor_pool_commits_no_targeted_tx_on_either_path(
        self, evented_misbehaving, engine_misbehaving
    ):
        wallets = misbehaving_pools()[0].wallet_addresses
        for dataset in (evented_misbehaving, engine_misbehaving):
            hits = wallet_touching_commits(dataset, wallets)
            # Non-vacuous: the targeted set does get committed — just
            # never by the censoring pool.
            assert hits
            assert all(pool != CENSOR for pool, _ in hits)

    def test_accelerator_front_loads_boosted_txs_on_both_paths(
        self, evented_misbehaving, engine_misbehaving
    ):
        wallets = misbehaving_pools()[0].wallet_addresses
        for dataset in (evented_misbehaving, engine_misbehaving):
            own = [
                position
                for pool, position in wallet_touching_commits(dataset, wallets)
                if pool == ACCELERATOR
            ]
            # Boosted entries form the block head: their positions are
            # bounded by the boosted-set size (40 injected), far above
            # where sub-1-sat/vB transactions would land on fee order.
            assert own
            assert max(own) < 40

    def test_self_interest_delays_close(
        self, evented_misbehaving, engine_misbehaving
    ):
        counts = []
        for dataset in (evented_misbehaving, engine_misbehaving):
            records = self_interest_records(dataset)
            assert records
            counts.append(sum(1 for r in records if r.committed))
        assert abs(counts[0] - counts[1]) <= 0.25 * max(counts) + 2


# ----------------------------------------------------------------------
# Fault-degraded lineup: relay loss plus two forced stale blocks.  The
# loss rates are modelled differently per path (the engine drops on the
# tx->pool channel, the evented network drops per gossip hop), so the
# comparisons stay distributional — but the chain-validity invariant
# below is exact: a child whose in-plan parent went missing must be
# withheld, never committed ahead of it.
# ----------------------------------------------------------------------


def degraded_faults() -> FaultSchedule:
    return FaultSchedule(
        seed=11,
        tx_loss_rate=0.05,
        pool_loss_rate=0.05,
        per_hop_loss_rate=0.005,
        stale_block_indexes=(2, 5),
    )


@pytest.fixture(scope="module")
def evented_degraded(shared_plan, shared_schedule):
    simulation = EventedSimulation(
        EventedConfig(duration=DURATION),
        fresh_pools(),
        RngStreams(7),
        faults=degraded_faults(),
    )
    return simulation.run(shared_plan, schedule=shared_schedule)


@pytest.fixture(scope="module")
def engine_degraded(shared_plan, shared_schedule):
    engine = SimulationEngine(
        EngineConfig(duration=DURATION, empty_block_probability=0.0),
        fresh_pools(),
        [ObserverConfig(name="fast", min_fee_rate=0.0)],
        RngStreams(7),
        schedule=shared_schedule,
        # Per-hop gossip loss exists only on the evented path; the
        # engine refuses it (UnsupportedFaultError).
        faults=replace(degraded_faults(), per_hop_loss_rate=0.0),
    )
    return engine.run(shared_plan).dataset


def assert_parent_closed(dataset, plan):
    """No committed tx may precede an in-plan parent on the chain."""
    plan_txids = {planned.tx.txid for planned in plan}
    committed: set[str] = set()
    for block in dataset.chain:
        for tx in block.transactions:
            missing = (tx.parent_txids & plan_txids) - committed
            assert not missing, (
                f"block {block.height}: {tx.txid} committed before "
                f"in-plan parents {sorted(missing)}"
            )
            committed.add(tx.txid)


class TestDegradedPathsAgree:
    def test_blocks_are_parent_closed_on_both_paths(
        self, evented_degraded, engine_degraded, shared_plan
    ):
        # Regression for the evented `mine` path, which used to assemble
        # straight from the winner's mempool: a CPFP child whose parent
        # was lost en route to the winner could be committed parentless.
        assert_parent_closed(evented_degraded, shared_plan)
        assert_parent_closed(engine_degraded, shared_plan)

    def test_honest_paths_are_parent_closed_too(
        self, evented_dataset, engine_dataset, shared_plan
    ):
        assert_parent_closed(evented_dataset, shared_plan)
        assert_parent_closed(engine_dataset, shared_plan)

    def test_both_paths_orphan_the_forced_stale_blocks(
        self, evented_degraded, engine_degraded
    ):
        assert evented_degraded.metadata["orphaned_blocks"] == 2
        assert engine_degraded.metadata["orphaned_blocks"] == 2

    def test_commit_coverage_similar_under_faults(
        self, evented_degraded, engine_degraded
    ):
        evented = sum(
            1 for r in evented_degraded.tx_records.values() if r.committed
        )
        fast = sum(
            1 for r in engine_degraded.tx_records.values() if r.committed
        )
        assert evented > 0
        assert abs(evented - fast) < 0.15 * max(evented, fast)

    def test_delay_distributions_close_under_faults(
        self, evented_degraded, engine_degraded
    ):
        evented = delays_of(evented_degraded)
        fast = delays_of(engine_degraded)
        for q in (0.5, 0.9):
            assert abs(
                float(np.quantile(evented, q)) - float(np.quantile(fast, q))
            ) <= 3.0
