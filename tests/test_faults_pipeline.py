"""Fault injection end to end: both substrates and the degrader agree.

Three ways of producing a degraded dataset must be consistent:

* the vectorised engine with an in-run :class:`FaultSchedule`,
* the evented P2P substrate with the same schedule,
* :func:`degrade_dataset` applied post hoc to a clean run.

Observer-side faults commute with curation, so the engine-faulted run
must match the degraded clean run *exactly* on transaction records,
snapshot timing/contents, and the chain (the size series is a
documented approximation and is compared elsewhere only structurally).
The evented path shares the canonical loss channels, so it censors the
same txid set.  Finally, the audit layer must absorb any of these
datasets without raising.
"""

import pytest

from repro.core.audit import Auditor
from repro.core.stattests import DEFAULT_ALPHA
from repro.datasets.io import dataset_to_dict
from repro.faults import (
    FaultSchedule,
    NodeCrash,
    OutageWindow,
    degrade_dataset,
    spread_downtime,
)
from repro.mining.pool import DATASET_C_POOLS, make_pools
from repro.mining.policies import FeeRatePolicy
from repro.simulation.engine import (
    EngineConfig,
    ObserverConfig,
    SimulationEngine,
    UnsupportedFaultError,
    generate_block_schedule,
)
from repro.reference.evented import EventedConfig, EventedSimulation
from repro.simulation.rng import RngStreams
from repro.simulation.scenarios import dataset_c_scenario
from repro.simulation.workload import (
    DemandModel,
    SizeModel,
    WorkloadConfig,
    WorkloadGenerator,
)

SCALE = 0.04
SEED = 11


@pytest.fixture(scope="module")
def clean_run():
    scenario = dataset_c_scenario(seed=SEED, scale=SCALE)
    return scenario.run().dataset, scenario.engine_config.duration


@pytest.fixture(scope="module")
def fault_schedule(clean_run):
    dataset, duration = clean_run
    observer = dataset.metadata.get("observer", dataset.name)
    return FaultSchedule(
        seed=77,
        tx_loss_rate=0.15,
        downtime=spread_downtime(observer, duration, 0.1, windows=2),
        partitions=(
            OutageWindow(observer, 0.30 * duration, 0.35 * duration),
        ),
    )


@pytest.fixture(scope="module")
def engine_faulted(fault_schedule):
    scenario = dataset_c_scenario(seed=SEED, scale=SCALE, faults=fault_schedule)
    return scenario.run().dataset


@pytest.fixture(scope="module")
def degraded(clean_run, fault_schedule):
    dataset, _ = clean_run
    return degrade_dataset(dataset, fault_schedule)


class TestEngineMatchesDegrader:
    def test_transaction_records_identical(self, engine_faulted, degraded):
        assert (
            dataset_to_dict(engine_faulted)["tx_records"]
            == dataset_to_dict(degraded)["tx_records"]
        )

    def test_snapshots_identical(self, engine_faulted, degraded):
        assert (
            dataset_to_dict(engine_faulted)["snapshots"]
            == dataset_to_dict(degraded)["snapshots"]
        )

    def test_chain_untouched_by_observer_faults(
        self, engine_faulted, degraded, clean_run
    ):
        clean, _ = clean_run
        hashes = [block.block_hash for block in clean.chain]
        assert [b.block_hash for b in engine_faulted.chain] == hashes
        assert [b.block_hash for b in degraded.chain] == hashes

    def test_faults_recorded_in_metadata(
        self, engine_faulted, degraded, fault_schedule
    ):
        assert engine_faulted.metadata["faults"] == fault_schedule.describe()
        assert degraded.metadata["faults"] == fault_schedule.describe()
        assert degraded.metadata["degraded"] is True

    def test_losses_actually_happened(self, engine_faulted, clean_run):
        clean, _ = clean_run
        observed_clean = sum(1 for r in clean.tx_records.values() if r.observed)
        observed = sum(
            1 for r in engine_faulted.tx_records.values() if r.observed
        )
        assert observed < observed_clean


class TestDegraderRefusesChainFaults:
    def test_stale_rate_rejected(self, clean_run):
        dataset, _ = clean_run
        with pytest.raises(ValueError, match="chain-side"):
            degrade_dataset(dataset, FaultSchedule(stale_block_rate=0.1))

    def test_pool_loss_rejected(self, clean_run):
        dataset, _ = clean_run
        with pytest.raises(ValueError, match="chain-side"):
            degrade_dataset(dataset, FaultSchedule(pool_loss_rate=0.1))


class TestEngineRefusesEventedOnlyFaults:
    """The engine applies every fault it accepts; the rest are refused."""

    @pytest.mark.parametrize(
        "faults",
        [
            FaultSchedule(seed=1, crashes=(NodeCrash("control", 3000.0),)),
            FaultSchedule(seed=1, per_hop_loss_rate=0.5),
        ],
        ids=["crashes", "per_hop_loss_rate"],
    )
    def test_unapplied_fault_kind_raises_a_typed_error(self, faults):
        with pytest.raises(UnsupportedFaultError, match="evented"):
            SimulationEngine(
                EngineConfig(duration=600.0),
                _fresh_pools(),
                [ObserverConfig(name="observer")],
                RngStreams(7),
                faults=faults,
            )
        assert issubclass(UnsupportedFaultError, ValueError)


class TestStaleBlocksInEngine:
    def test_forced_stale_block_shortens_chain(self, clean_run):
        clean, _ = clean_run
        scenario = dataset_c_scenario(
            seed=SEED,
            scale=SCALE,
            faults=FaultSchedule(stale_block_indexes=(2,)),
        )
        dataset = scenario.run().dataset
        assert len(list(dataset.chain)) == len(list(clean.chain)) - 1
        assert dataset.metadata["orphaned_blocks"] == 1


class TestDegradedAudit:
    def test_audit_never_raises_and_reports_quality(self, degraded):
        report = Auditor(degraded).audit()
        assert report.quality.degraded
        assert report.quality.mempool_coverage < 1.0
        assert report.quality.censored_fraction > 0.0
        assert report.quality.downtime_seconds > 0.0
        assert report.quality.snapshot_gap_count > 0

    def test_audit_survives_total_observer_loss(self, clean_run):
        dataset, duration = clean_run
        observer = dataset.metadata.get("observer", dataset.name)
        schedule = FaultSchedule(
            seed=3,
            tx_loss_rate=1.0,
            downtime=spread_downtime(observer, duration, 0.9),
        )
        report = Auditor(degrade_dataset(dataset, schedule)).audit()
        assert report.quality.mempool_coverage == 0.0
        assert report.quality.censored_fraction == 1.0

    def test_coverage_recorded_on_observed_test(self, degraded):
        auditor = Auditor(degraded)
        txids = degraded.inferred_self_interest_txids("F2Pool")
        result = auditor.observed_prioritization_test_for("F2Pool", txids)
        assert 0.0 < result.coverage < 1.0


class TestVerdictStability:
    def test_verdict_unchanged_at_five_percent_loss(self, clean_run):
        dataset, _ = clean_run
        txids = dataset.inferred_self_interest_txids("F2Pool")
        clean_result = Auditor(dataset).observed_prioritization_test_for(
            "F2Pool", txids
        )
        assert clean_result.p_accelerate < DEFAULT_ALPHA
        for fault_seed in (1000, 1001):
            schedule = FaultSchedule(seed=fault_seed, tx_loss_rate=0.05)
            result = Auditor(
                degrade_dataset(dataset, schedule)
            ).observed_prioritization_test_for("F2Pool", txids)
            assert result.p_accelerate < DEFAULT_ALPHA


# ----------------------------------------------------------------------
# Engine vs evented substrate: both censor the same transactions.
# ----------------------------------------------------------------------
EVENTED_DURATION = 30 * 600.0
#: Transactions broadcast this close to the end are excluded from the
#: agreement check: propagation-timing noise near the horizon is not
#: fault-induced loss.
HORIZON_MARGIN = 1200.0


@pytest.fixture(scope="module")
def shared_plan():
    config = WorkloadConfig(
        duration=EVENTED_DURATION,
        capacity_vsize_per_second=1_000_000 / 600.0,
        demand=DemandModel(base_ratio=0.8),
        sizes=SizeModel(median_vsize=8000.0),
    )
    return WorkloadGenerator(config, RngStreams(2024)).generate()


@pytest.fixture(scope="module")
def shared_schedule():
    from repro.mining.pool import normalize_hash_shares

    return generate_block_schedule(
        EVENTED_DURATION,
        600.0,
        normalize_hash_shares(_fresh_pools()),
        RngStreams(7).stream("mining"),
    )


def _fresh_pools():
    pools = make_pools(DATASET_C_POOLS[:6])
    for pool in pools:
        pool.policy = FeeRatePolicy(package_selection=True)
    return pools


def _early_txids(plan):
    return {
        p.tx.txid
        for p in plan
        if p.broadcast_time <= EVENTED_DURATION - HORIZON_MARGIN
    }


def _unobserved(dataset, txids):
    return {
        txid
        for txid in txids
        if not dataset.tx_records[txid].observed
    }


class TestSubstratesAgreeOnLoss:
    @pytest.fixture(scope="class")
    def loss_schedule(self):
        return FaultSchedule(seed=5, tx_loss_rate=0.3)

    @pytest.fixture(scope="class")
    def expected_lost(self, loss_schedule, shared_plan):
        pairs = [(p.broadcast_time, p.tx.txid) for p in shared_plan]
        return loss_schedule.observer_lost_txids("observer", pairs)

    def test_engine_censors_exactly_the_scheduled_set(
        self, shared_plan, shared_schedule, loss_schedule, expected_lost
    ):
        def run(faults):
            engine = SimulationEngine(
                EngineConfig(
                    duration=EVENTED_DURATION, empty_block_probability=0.0
                ),
                _fresh_pools(),
                [ObserverConfig(name="observer", min_fee_rate=0.0)],
                RngStreams(7),
                schedule=shared_schedule,
                faults=faults,
            )
            return engine.run(shared_plan).dataset

        early = _early_txids(shared_plan)
        clean, faulted = run(None), run(loss_schedule)
        assert _unobserved(clean, early) == set()
        assert _unobserved(faulted, early) == expected_lost & early

    def test_evented_censors_exactly_the_scheduled_set(
        self, shared_plan, shared_schedule, loss_schedule, expected_lost
    ):
        def run(faults):
            simulation = EventedSimulation(
                EventedConfig(duration=EVENTED_DURATION),
                _fresh_pools(),
                RngStreams(7),
                faults=faults,
            )
            return simulation.run(shared_plan, schedule=shared_schedule)

        early = _early_txids(shared_plan)
        clean, faulted = run(None), run(loss_schedule)
        assert _unobserved(clean, early) == set()
        assert _unobserved(faulted, early) == expected_lost & early
