"""Property-based tests: columnar round trips equal gzip-JSON interchange.

The tentpole contract of the columnar store is *byte identity on the
serialized interchange form*: for any dataset the writer accepts —
honest, misbehaving, fault-degraded, with snapshot gaps — saving it as
columnar npz and loading it back must reproduce exactly the JSON bytes
the gzip-JSON writer would emit.  Hypothesis drives randomly shaped
datasets through that loop.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.blockchain import Blockchain
from repro.datasets.columnar import load_columnar, save_columnar
from repro.datasets.dataset import Dataset
from repro.datasets.io import dataset_to_dict, load_dataset, save_dataset
from repro.datasets.records import TxRecord
from repro.mempool.snapshots import (
    MempoolSnapshot,
    SizeSeries,
    SnapshotStore,
    SnapshotTx,
)

from conftest import TxFactory, make_test_block

LABEL_POOL = (
    "scam",
    "zero-fee",
    "self-interest:F2Pool",
    "self-interest:ViaBTC",
    "accelerated:BTC.com",
    "rbf-bump",
)


def random_dataset(
    seed: int,
    blocks: int,
    with_snapshots: bool,
    with_size_series: bool,
    with_metadata: bool,
) -> Dataset:
    """A randomly shaped — but schema-valid — dataset.

    Degradation modes the cache must survive are represented: records
    with no observer arrival (observer downtime), uncommitted records,
    snapshot *gaps* (missing ticks between populated snapshots), empty
    blocks, and unattributed heights.
    """
    rng = np.random.default_rng(seed)
    txf = TxFactory(f"prop-columnar-{seed}")
    chain = Blockchain()
    records = {}
    block_pools = {}
    pools = ("F2Pool", "ViaBTC", "BTC.com")
    for height in range(blocks):
        txs = [
            txf.tx(
                fee=int(rng.integers(1, 50_000)),
                vsize=int(rng.integers(100, 900)),
                value=int(rng.integers(10**3, 10**10)),
                nonce=int(rng.integers(0, 2**31)),
            )
            for _ in range(int(rng.integers(0, 7)))
        ]
        block = make_test_block(
            txs,
            height=height,
            prev_hash=chain.tip_hash,
            timestamp=float(height) * 600.0 + float(rng.uniform(0, 30)),
        )
        chain.append(block)
        if rng.random() < 0.8:  # some heights stay unattributed
            block_pools[height] = pools[int(rng.integers(0, len(pools)))]
        for position, tx in enumerate(txs):
            committed = rng.random() < 0.85
            records[tx.txid] = TxRecord(
                txid=tx.txid,
                broadcast_time=float(rng.uniform(0, height * 600.0 + 1)),
                observer_arrival=(
                    None
                    if rng.random() < 0.25  # observer downtime
                    else float(rng.uniform(0, height * 600.0 + 2))
                ),
                fee=tx.fee,
                vsize=tx.vsize,
                commit_height=height if committed else None,
                commit_position=position if committed else None,
                labels=frozenset(
                    label
                    for label in LABEL_POOL
                    if rng.random() < 0.15
                ),
            )
    snapshots = []
    if with_snapshots:
        count = int(rng.integers(1, 6))
        # Rows that compare equal but serialize differently: an int and
        # a float arrival of one txid, and a signed-zero pair.  They sit
        # in the first and the last snapshot.
        twins = (
            (
                SnapshotTx(f"snap-{seed}-typed", 5, 700, 250),
                SnapshotTx(f"snap-{seed}-zero", 0.0, 900, 300),
            ),
            (
                SnapshotTx(f"snap-{seed}-typed", 5.0, 700, 250),
                SnapshotTx(f"snap-{seed}-zero", -0.0, 900, 300),
            ),
        )
        pending: list[SnapshotTx] = []
        tick = 0.0
        for index in range(count):
            # Irregular spacing produces snapshot gaps.
            tick += float(rng.uniform(15.0, 1800.0))
            # Pending rows repeat verbatim until they are mined.
            pending = [tx for tx in pending if rng.random() < 0.7]
            pending.extend(
                SnapshotTx(
                    txid=f"snap-{seed}-{index}-{i}",
                    arrival_time=tick - float(rng.uniform(0, 60)),
                    fee=int(rng.integers(1, 10_000)),
                    vsize=int(rng.integers(100, 900)),
                )
                for i in range(int(rng.integers(0, 5)))
            )
            txs = tuple(pending)
            if index == 0:
                txs += twins[0]
            if index == count - 1:
                txs += twins[1]
            snapshots.append(MempoolSnapshot(time=tick, txs=txs))
    size_series = None
    if with_size_series:
        count = int(rng.integers(1, 8))
        times = np.cumsum(rng.uniform(15.0, 120.0, count)).tolist()
        size_series = SizeSeries(
            times=[float(t) for t in times],
            vsizes=[int(v) for v in rng.integers(0, 4_000_000, count)],
            tx_counts=(
                [int(c) for c in rng.integers(0, 10_000, count)]
                if rng.random() < 0.5
                else None
            ),
        )
    metadata = {}
    if with_metadata:
        metadata = {
            "scenario": f"prop-{seed}",
            "faults": {"loss_rate": 0.05, "downtime": [10.0, 20.0]},
            "note": "property-generated",
        }
    return Dataset(
        name=f"prop-columnar-{seed}",
        chain=chain,
        snapshots=SnapshotStore(snapshots),
        tx_records=records,
        block_pools=block_pools,
        pool_wallets={
            "F2Pool": frozenset({"addr-x", "pool-wallet"}),
            "ViaBTC": frozenset(),
        },
        size_series=size_series,
        metadata=metadata,
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    blocks=st.integers(1, 6),
    with_snapshots=st.booleans(),
    with_size_series=st.booleans(),
    with_metadata=st.booleans(),
)
def test_columnar_round_trip_is_interchange_byte_identical(
    tmp_path_factory,
    seed,
    blocks,
    with_snapshots,
    with_size_series,
    with_metadata,
):
    dataset = random_dataset(
        seed, blocks, with_snapshots, with_size_series, with_metadata
    )
    path = tmp_path_factory.mktemp("columnar") / "prop.npz"
    save_columnar(dataset, path)
    loaded = load_columnar(path)
    original = json.dumps(
        dataset_to_dict(dataset), separators=(",", ":")
    ).encode("utf-8")
    decoded = json.dumps(
        dataset_to_dict(loaded), separators=(",", ":")
    ).encode("utf-8")
    assert decoded == original


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), blocks=st.integers(1, 4))
def test_both_readers_intern_snapshot_rows(tmp_path_factory, seed, blocks):
    """Decoded snapshot rows are shared exactly when they serialize alike."""
    dataset = random_dataset(seed, blocks, True, False, False)
    directory = tmp_path_factory.mktemp("interned")
    gz = save_dataset(dataset, directory / "orig.json.gz")
    original = gz.read_bytes()
    npz = save_columnar(dataset, directory / "orig.npz")
    for loaded in (load_columnar(npz), load_dataset(gz)):
        again = save_dataset(loaded, directory / "again.json.gz")
        assert again.read_bytes() == original
        shared: dict[str, SnapshotTx] = {}
        for snapshot in loaded.snapshots:
            for tx in snapshot.txs:
                row = json.dumps([tx.txid, tx.arrival_time, tx.fee, tx.vsize])
                assert shared.setdefault(row, tx) is tx
        assert len({id(tx) for tx in shared.values()}) == len(shared)
        # Each twin pair stays two rows: 5 / 5.0 and 0.0 / -0.0.
        twins = ('-typed", 5,', '-typed", 5.0,', '-zero", 0.0,', '-zero", -0.0,')
        for twin in twins:
            assert sum(twin in row for row in shared) == 1, twin


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_columnar_write_is_deterministic(tmp_path_factory, seed):
    dataset = random_dataset(seed, 3, True, True, True)
    directory = tmp_path_factory.mktemp("columnar-det")
    first = save_columnar(dataset, directory / "one.npz").read_bytes()
    second = save_columnar(dataset, directory / "two.npz").read_bytes()
    assert first == second


def test_fault_degraded_dataset_round_trips(tmp_path, small_dataset_a):
    """A degraded (lossy, downtime-gapped) dataset survives the trip."""
    from repro.faults import FaultSchedule, degrade_dataset, spread_downtime

    observer = small_dataset_a.metadata.get("observer", small_dataset_a.name)
    duration = max(small_dataset_a.snapshots.times or [1.0])
    schedule = FaultSchedule(
        seed=7,
        tx_loss_rate=0.2,
        downtime=spread_downtime(observer, duration, 0.3),
    )
    degraded = degrade_dataset(small_dataset_a, schedule)
    path = save_columnar(degraded, tmp_path / "degraded.npz")
    loaded = load_columnar(path)
    original = json.dumps(
        dataset_to_dict(degraded), separators=(",", ":")
    ).encode()
    decoded = json.dumps(
        dataset_to_dict(loaded), separators=(",", ":")
    ).encode()
    assert decoded == original
