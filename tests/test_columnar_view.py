"""The store-backed dataset a columnar load returns.

``load_columnar`` hands back a :class:`ColumnarDataset`: its audit
accessors read the memory-mapped columns, and its object graph
(``chain``, ``snapshots``, ``tx_records``) is built part by part only
when something asks for it.  The graph bodies of :class:`Dataset` —
what in-memory, freshly built and streaming datasets still run — are
the differential oracle for every column-backed accessor:

* each accessor returns exactly what the graph body returns, in the
  same order and with the same float bits, on datasets A, B and C at
  scale 0.1 (C carries the misbehaviour), a fault-degraded C, and an A
  whose record table misses part of the chain;
* the paper battery over column-backed datasets renders the same
  report as over graph datasets and builds no ``chain`` and no
  ``tx_records`` part, and ``snapshots`` only for A;
* a flipped data byte fails the load's CRC32 check, naming the column,
  and the dataset cache evicts the sidecar and heals it.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.analysis.base import DataContext
from repro.analysis.experiments import EXPERIMENTS
from repro.chain.blockchain import Blockchain
from repro.core.congestion import commit_delays_in_blocks, fee_rates_by_congestion
from repro.core.audit import Auditor
from repro.core.vectorized import ChainArrays
from repro.datasets.builder import build_dataset_a, build_dataset_b, build_dataset_c
from repro.datasets.cache import CacheKey, DatasetCache
from repro.datasets.columnar import (
    ColumnarDataset,
    columnar_sidecar,
    load_columnar,
    open_columns,
    save_columnar,
)
from repro.datasets.dataset import Dataset
from repro.datasets.io import DatasetCorruptionError, dataset_to_dict
from repro.faults import FaultSchedule, degrade_dataset, spread_downtime
from repro.mempool.snapshots import SnapshotStore

from conftest import TxFactory, make_test_block
from test_records_dataset import build_small_dataset

SCALE = 0.1


def graph_of(dataset: Dataset) -> Dataset:
    """A plain in-memory Dataset over ``dataset``'s object graph."""
    return Dataset(
        name=dataset.name,
        chain=dataset.chain,
        snapshots=dataset.snapshots,
        tx_records=dataset.tx_records,
        block_pools=dataset.block_pools,
        pool_wallets=dataset.pool_wallets,
        size_series=dataset.size_series,
        metadata=dataset.metadata,
    )


def _degraded(graph: Dataset) -> Dataset:
    observer = str(graph.metadata.get("observer", graph.name))
    duration = float(graph.block_times()[-1])
    schedule = FaultSchedule(
        seed=7,
        tx_loss_rate=0.2,
        downtime=spread_downtime(observer, duration, 0.3),
    )
    return degrade_dataset(graph, schedule)


def _partial_records(graph: Dataset) -> Dataset:
    """Every third record dropped: c-block lookups fall back to the chain."""
    records = {
        txid: record
        for index, (txid, record) in enumerate(graph.tx_records.items())
        if index % 3
    }
    return dataclasses.replace(graph, tx_records=records)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """name -> (graph oracle, columnar file) for every differential case."""
    directory = tmp_path_factory.mktemp("columnar-view")
    cache = DatasetCache()
    graphs = {
        "A": graph_of(build_dataset_a(scale=SCALE, cache=cache)),
        "B": graph_of(build_dataset_b(scale=SCALE, cache=cache)),
        "C": graph_of(build_dataset_c(scale=SCALE, cache=cache)),
    }
    graphs["C-degraded"] = _degraded(graphs["C"])
    graphs["A-partial-records"] = _partial_records(graphs["A"])
    return {
        name: (graph, save_columnar(graph, directory / f"{name}.npz"))
        for name, graph in graphs.items()
    }


CASES = ["A", "B", "C", "C-degraded", "A-partial-records"]


def assert_identical(got, expected, what: str) -> None:
    """Equal, in the same order, with the same float bits."""
    if isinstance(expected, np.ndarray):
        assert got.dtype == expected.dtype, what
        assert got.shape == expected.shape, what
        assert got.tobytes() == expected.tobytes(), what
    elif isinstance(expected, tuple):
        assert len(got) == len(expected), what
        for index, (left, right) in enumerate(zip(got, expected)):
            assert_identical(left, right, f"{what}[{index}]")
    elif isinstance(expected, dict):
        assert list(got) == list(expected), what
        for key in expected:
            assert_identical(got[key], expected[key], f"{what}[{key!r}]")
    elif isinstance(expected, float):
        assert type(got) is float, what
        assert np.float64(got).tobytes() == np.float64(expected).tobytes(), what
    else:
        assert type(got) is type(expected), what
        assert got == expected, what


def _label_queries(graph: Dataset) -> list[tuple[str, str]]:
    """(prefix, value) pairs covering every label the dataset carries."""
    queries = {(prefix, "") for prefix in ("scam", "accelerated", "absent")}
    for record in graph.tx_records.values():
        for label in record.labels:
            prefix, _, value = label.partition(":")
            queries.add((prefix, ""))
            queries.add((prefix, value))
    return sorted(queries)


@pytest.mark.parametrize("name", CASES)
def test_column_accessors_match_the_graph_bodies(saved, name):
    graph, path = saved[name]
    view = load_columnar(path)
    assert isinstance(view, ColumnarDataset)

    for accessor in (
        "summary",
        "commit_heights",
        "committed_count",
        "fee_rates",
        "observed_records",
        "block_times",
        "block_tx_counts",
        "empty_block_count",
        "cpfp_fraction",
        "cpfp_txids",
        "commit_pools",
    ):
        assert_identical(
            getattr(view, accessor)(), getattr(graph, accessor)(), accessor
        )
    for count in ("block_count", "tx_count", "snapshot_count"):
        assert_identical(getattr(view, count), getattr(graph, count), count)

    for prefix, value in _label_queries(graph):
        assert view.labelled_txids(prefix, value) == graph.labelled_txids(
            prefix, value
        ), (prefix, value)

    chain_txids = [tx.txid for block in graph.chain for tx in block]
    txid_sets = [
        set(chain_txids[::7]),
        set(list(graph.tx_records)[::5]),
        {"not-a-txid"},
        set(),
    ]
    for pool in graph.pool_wallets:
        inferred = graph.inferred_self_interest_txids_indexed(pool)
        assert view.inferred_self_interest_txids_indexed(pool) == inferred, pool
        assert inferred == graph.inferred_self_interest_txids(pool), pool
        txid_sets.append(inferred)
        txid_sets.append(graph.self_interest_txids(pool))
    for txids in txid_sets:
        assert_identical(
            view.c_block_miners(txids), graph.c_block_miners(txids), "miners"
        )

    # Every answer above came off the columns.
    assert view._parts == {}


def reference_commit_delays(dataset: Dataset, include_censored: bool):
    """The per-record walk :meth:`Auditor.commit_delays` is pinned to."""
    block_times = dataset.block_times()
    tip = len(block_times)
    arrivals, heights, rates = [], [], []
    for record in dataset.tx_records.values():
        if not record.observed:
            continue
        if record.commit_height is not None:
            height = record.commit_height
        elif include_censored:
            height = tip - 1
        else:
            continue
        arrivals.append(record.observer_arrival)
        heights.append(height)
        rates.append(record.fee_rate)
    if not arrivals:
        return np.empty(0), np.empty(0, dtype=np.int64)
    delays = commit_delays_in_blocks(arrivals, heights, block_times)
    return np.asarray(rates, dtype=float), delays


def reference_fee_rates_by_congestion(dataset: Dataset):
    source = dataset.size_series or dataset.snapshots
    observed = [r for r in dataset.tx_records.values() if r.observed]
    return fee_rates_by_congestion(
        [r.observer_arrival for r in observed],
        [r.fee_rate for r in observed],
        source,
    )


@pytest.mark.parametrize("name", CASES)
def test_auditor_joins_match_on_column_backed_datasets(saved, name):
    graph, path = saved[name]
    view = load_columnar(path)
    by_view, by_graph = Auditor(view), Auditor(graph)
    for include_censored in (False, True):
        assert_identical(
            by_graph.commit_delays(include_censored),
            reference_commit_delays(graph, include_censored),
            f"reference commit_delays({include_censored})",
        )
        assert_identical(
            by_view.commit_delays(include_censored),
            by_graph.commit_delays(include_censored),
            f"commit_delays({include_censored})",
        )
        assert_identical(
            by_view.delay_by_fee_band(include_censored),
            by_graph.delay_by_fee_band(include_censored),
            f"delay_by_fee_band({include_censored})",
        )
    assert_identical(
        by_graph.fee_rates_by_congestion_level(),
        reference_fee_rates_by_congestion(graph),
        "reference fee_rates_by_congestion_level",
    )
    assert_identical(
        by_view.fee_rates_by_congestion_level(),
        by_graph.fee_rates_by_congestion_level(),
        "fee_rates_by_congestion_level",
    )
    # The size series answers congestion wherever the dataset has one.
    expected_parts = set() if graph.size_series else {"snapshots"}
    assert set(view._parts) == expected_parts


def test_graph_parts_decode_once_each_and_are_traced(saved):
    graph, path = saved["A"]
    with obs.tracing(reset=True):
        view = load_columnar(path)
        ChainArrays.from_dataset(view)
        assert view._parts == {}  # the store's own view packs zero-copy
        for _ in range(2):
            assert len(view.chain) == len(graph.chain)
        snap = obs.snapshot()
    assert snap["counters"]["dataset.decode.chain"] == 1
    assert "dataset.decode.tx_records" not in snap["counters"]
    assert snap["spans"]["dataset.decode"]["count"] == 1
    assert snap["spans"]["columnar.verify"]["count"] == 1
    assert dataset_to_dict(view) == dataset_to_dict(graph)
    assert set(view._parts) == {"chain", "snapshots", "tx_records"}


def test_battery_reads_columns_not_graphs(saved):
    """The paper battery decodes only dataset A's snapshots."""
    views = {name: load_columnar(saved[name][1]) for name in "ABC"}
    graphs = {name: saved[name][0] for name in "ABC"}
    column_ctx = DataContext(scale=SCALE, _cache=dict(views))
    graph_ctx = DataContext(scale=SCALE, _cache=dict(graphs))
    with obs.tracing(reset=True):
        reports = {
            experiment_id: runner(column_ctx).report()
            for experiment_id, runner in EXPERIMENTS.items()
        }
        counters = obs.snapshot()["counters"]
    assert counters.get("dataset.decode.snapshots") == 1
    assert "dataset.decode.chain" not in counters
    assert "dataset.decode.tx_records" not in counters
    assert set(views["A"]._parts) == {"snapshots"}
    assert views["B"]._parts == {} and views["C"]._parts == {}
    for experiment_id, runner in EXPERIMENTS.items():
        assert reports[experiment_id] == runner(graph_ctx).report(), experiment_id


def test_hand_built_chain_wallets_and_unattributed_blocks(tmp_path):
    """Spending a wallet's output touches the wallet, coinbases included.

    The scenario datasets never spend a coinbase output and attribute
    every block, so this chain does both: ``from_coinbase`` spends pool
    P's block reward, of two children of ``paid`` (one output, to Q's
    wallet) only the one spending output 0 resolves to an address, and
    block 2 has no pool.  No records: c-block lookups all fall back to
    the chain.
    """
    txf = TxFactory("wallet-index")
    genesis = make_test_block([], height=0, timestamp=1.0)
    paid = txf.tx(to_address="wallet-q", nonce=1)
    from_coinbase = txf.tx(parents=(genesis.coinbase.txid,), nonce=2)
    block1 = make_test_block(
        [paid, from_coinbase], height=1, prev_hash=genesis.block_hash,
        timestamp=2.0,
    )
    spends_wallet = txf.tx(parents=(paid.txid,), nonce=3)
    past_the_outputs = txf.tx(parents=(paid.txid,), nonce=4)
    block2 = make_test_block(
        [spends_wallet, past_the_outputs], height=2,
        prev_hash=block1.block_hash, timestamp=3.0,
    )
    graph = Dataset(
        name="wallets",
        chain=Blockchain([genesis, block1, block2]),
        snapshots=SnapshotStore([]),
        tx_records={},
        block_pools={0: "P", 1: "Q"},
        pool_wallets={
            "P": frozenset({"pool-reward"}),
            "Q": frozenset({"wallet-q"}),
        },
    )
    view = load_columnar(save_columnar(graph, tmp_path / "wallets.npz"))
    assert graph.inferred_self_interest_txids("P") == {from_coinbase.txid}
    assert graph.inferred_self_interest_txids("Q") == {
        paid.txid,
        spends_wallet.txid,
    }
    for pool in ("P", "Q"):
        assert view.inferred_self_interest_txids_indexed(
            pool
        ) == graph.inferred_self_interest_txids(pool)
    txids = {from_coinbase.txid, spends_wallet.txid, "not-a-txid"}
    assert view.c_block_miners(txids) == graph.c_block_miners(txids) == ["Q"]
    assert_identical(view.commit_pools(), graph.commit_pools(), "commit_pools")
    assert list(graph.commit_pools().values()) == ["Q", "Q"]
    assert view._parts == {}


# ----------------------------------------------------------------------
# Integrity at load: the zip CRC32 of every column
# ----------------------------------------------------------------------
@pytest.fixture
def small():
    dataset, *_ = build_small_dataset(TxFactory("columnar-view"))
    return dataset


def _flip_data_byte(path, column: str) -> None:
    store = open_columns(path)
    offset = store[column].offset
    del store
    raw = bytearray(path.read_bytes())
    raw[offset] ^= 0xFF
    path.write_bytes(bytes(raw))


def test_flipped_data_byte_fails_the_load_naming_the_column(tmp_path, small):
    path = save_columnar(small, tmp_path / "small.npz")
    _flip_data_byte(path, "out_value")
    with pytest.raises(DatasetCorruptionError) as excinfo:
        load_columnar(path)
    assert excinfo.value.reason == "CRC32 mismatch in column 'out_value'"
    assert excinfo.value.path == path


def test_cache_evicts_and_heals_a_sidecar_with_a_flipped_byte(tmp_path, small):
    key = CacheKey(builder="crc", scale=1.0, seed=0)
    cache = DatasetCache(tmp_path)
    sidecar = columnar_sidecar(cache.store(key, small))
    pristine = sidecar.read_bytes()
    _flip_data_byte(sidecar, "rec_fee")
    loaded = cache.load(key)
    assert cache.stats.evictions == 1
    assert not isinstance(loaded, ColumnarDataset)  # served from gzip
    assert dataset_to_dict(loaded) == dataset_to_dict(small)
    assert sidecar.read_bytes() == pristine  # healed
    healed = DatasetCache(tmp_path).load(key)
    assert isinstance(healed, ColumnarDataset)
    assert dataset_to_dict(healed) == dataset_to_dict(small)
