"""Tests for the columnar (npz) dataset store.

The columnar file is the *hot-path* form of a dataset — typed arrays
the vectorized kernels can memory-map zero-copy — while gzip-JSON stays
the interchange form.  The load-bearing contract tested here:

* round-tripping a dataset through the columnar store reproduces the
  gzip-JSON interchange *byte for byte*,
* writes are atomic and deterministic,
* every flavour of torn/truncated/garbled file maps to a typed
  :class:`DatasetCorruptionError` (with a byte offset where one
  exists), mirroring the gzip reader's error semantics,
* ``ChainArrays`` packs bit-identically from the memory-mapped store
  and counts mmap vs fallback packs in ``repro.obs``.
"""

import dataclasses
import gzip
import io
import json
import pickle
import struct
import zipfile

import numpy as np
import pytest

from repro import obs
from repro.chain.blockchain import Blockchain
from repro.core.norms import CpfpFilter
from repro.core.vectorized import ChainArrays
from repro.datasets.cache import CacheKey, DatasetCache
from repro.datasets.columnar import (
    COLUMNAR_FORMAT_VERSION,
    ColumnStore,
    ColumnarDataset,
    columnar_sidecar,
    load_columnar,
    load_dataset_file,
    open_columns,
    save_columnar,
)
from repro.datasets.io import (
    DatasetCorruptionError,
    dataset_to_dict,
    save_dataset,
)

from conftest import TxFactory, make_test_block
from test_records_dataset import build_small_dataset


@pytest.fixture
def txf():
    return TxFactory("columnar")


@pytest.fixture
def small(txf):
    dataset, *_ = build_small_dataset(txf)
    return dataset


def interchange_bytes(dataset) -> bytes:
    """The canonical gzip-JSON interchange serialisation of a dataset."""
    return json.dumps(
        dataset_to_dict(dataset), separators=(",", ":")
    ).encode("utf-8")


class TestRoundTrip:
    def test_small_dataset_round_trips_byte_identically(self, tmp_path, small):
        path = save_columnar(small, tmp_path / "small.npz")
        loaded = load_columnar(path)
        assert interchange_bytes(loaded) == interchange_bytes(small)

    def test_scenario_dataset_round_trips(self, tmp_path, small_dataset_a):
        path = save_columnar(small_dataset_a, tmp_path / "a.npz")
        loaded = load_columnar(path)
        assert interchange_bytes(loaded) == interchange_bytes(small_dataset_a)

    def test_misbehaving_dataset_round_trips(self, tmp_path, small_dataset_c):
        """Dataset C carries misbehaviour labels, gaps, and CPFP flags."""
        path = save_columnar(small_dataset_c, tmp_path / "c.npz")
        loaded = load_columnar(path)
        assert interchange_bytes(loaded) == interchange_bytes(small_dataset_c)

    def test_gzip_artifact_written_from_decoded_copy_is_identical(
        self, tmp_path, small_dataset_a
    ):
        """Both forms on disk agree: gzip(original) == gzip(decoded)."""
        decoded = load_columnar(
            save_columnar(small_dataset_a, tmp_path / "a.npz")
        )
        original_gz = save_dataset(small_dataset_a, tmp_path / "orig.json.gz")
        decoded_gz = save_dataset(decoded, tmp_path / "dec.json.gz")
        assert original_gz.read_bytes() == decoded_gz.read_bytes()

    def test_writes_are_deterministic(self, tmp_path, small):
        first = save_columnar(small, tmp_path / "one.npz").read_bytes()
        second = save_columnar(small, tmp_path / "two.npz").read_bytes()
        assert first == second

    def test_save_leaves_no_temp_file(self, tmp_path, small):
        save_columnar(small, tmp_path / "small.npz")
        assert [p.name for p in tmp_path.iterdir()] == ["small.npz"]

    def test_loaded_dataset_carries_its_store(self, tmp_path, small):
        path = save_columnar(small, tmp_path / "small.npz")
        loaded = load_columnar(path)
        assert isinstance(loaded.columnar, ColumnStore)
        assert loaded.columnar.matches(loaded)


class TestStore:
    def test_vanilla_numpy_can_open_the_file(self, tmp_path, small):
        path = save_columnar(small, tmp_path / "small.npz")
        with np.load(path, allow_pickle=False) as bundle:
            names = set(bundle.files)
        assert "manifest" in names
        assert "block_height" in names and "rec_fee" in names

    def test_columns_are_memory_mapped(self, tmp_path, small):
        store = open_columns(save_columnar(small, tmp_path / "small.npz"))
        for name in ("block_height", "ctx_fee", "rec_vsize"):
            column = store[name]
            assert isinstance(column, np.memmap)
            assert not column.flags.writeable

    def test_store_pickles_by_path(self, tmp_path, small):
        """Workers receive the path, not the mapped pages."""
        store = open_columns(save_columnar(small, tmp_path / "small.npz"))
        _ = store["block_height"]  # warm the lazy cache pre-pickle
        clone = pickle.loads(pickle.dumps(store))
        assert np.array_equal(clone["block_height"], store["block_height"])

    def test_matches_rejects_a_different_dataset(
        self, tmp_path, small, small_dataset_a
    ):
        store = open_columns(save_columnar(small, tmp_path / "small.npz"))
        assert store.matches(small)
        assert not store.matches(small_dataset_a)

    def test_load_dataset_file_absent_raises(self, tmp_path, small):
        with pytest.raises(FileNotFoundError):
            load_dataset_file(tmp_path / "missing.npz")
        # A twin without its gzip does not stand in for it.
        gz = tmp_path / "orphan.json.gz"
        save_columnar(small, columnar_sidecar(gz))
        with pytest.raises(FileNotFoundError):
            load_dataset_file(gz)

    def test_sidecar_path_mapping(self, tmp_path):
        gz = tmp_path / "dataset-C-v4-abcd.json.gz"
        assert columnar_sidecar(gz).name == "dataset-C-v4-abcd.npz"


class TestCorruptionTaxonomy:
    """Every torn-file flavour is a typed error, like the gzip reader."""

    @pytest.fixture
    def artifact(self, tmp_path, small):
        return save_columnar(small, tmp_path / "small.npz")

    def test_empty_file(self, artifact):
        artifact.write_bytes(b"")
        with pytest.raises(DatasetCorruptionError):
            load_columnar(artifact)

    def test_garbage_bytes(self, artifact):
        artifact.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(DatasetCorruptionError):
            load_columnar(artifact)

    @pytest.mark.parametrize("keep_fraction", [0.1, 0.5, 0.9, 0.999])
    def test_truncation_at_any_point(self, artifact, keep_fraction):
        pristine = artifact.read_bytes()
        artifact.write_bytes(pristine[: int(len(pristine) * keep_fraction)])
        with pytest.raises(DatasetCorruptionError) as excinfo:
            load_columnar(artifact)
        assert str(artifact) in str(excinfo.value)

    def test_column_truncation_reports_the_byte_offset(self, artifact, small):
        """Cutting inside the last column's data names where it tore."""
        pristine = artifact.read_bytes()
        store = open_columns(artifact)
        _ = store["block_height"]
        # Drop the zip central directory *and* the tail of the data so
        # the store parses headers but the final member's bytes are
        # short.  Offsets in the error must be real file offsets.
        artifact.write_bytes(pristine[: len(pristine) // 2])
        with pytest.raises(DatasetCorruptionError) as excinfo:
            open_columns(artifact)
        # Structured fields match the gzip reader's error surface.
        assert excinfo.value.path == artifact
        assert excinfo.value.reason

    def test_flipped_manifest_version_is_corruption(self, tmp_path, small):
        """A sidecar from a future format must refuse to load."""
        path = save_columnar(small, tmp_path / "small.npz")
        flip_columnar_version(path)
        with pytest.raises(DatasetCorruptionError) as excinfo:
            load_columnar(path)
        assert "version" in str(excinfo.value)

    def test_decode_cross_checks_txids(self, tmp_path, small):
        """Silent payload corruption is caught by txid recomputation."""
        path = save_columnar(small, tmp_path / "small.npz")
        break_txid_cross_check(path)
        with pytest.raises(DatasetCorruptionError) as excinfo:
            load_columnar(path).chain
        assert "mismatch" in str(excinfo.value)
        assert excinfo.value.reason.startswith("txid mismatch")

    def test_decode_cross_checks_block_hashes(self, tmp_path, small):
        """A corrupted header field is caught by block-hash recomputation."""
        path = save_columnar(small, tmp_path / "small.npz")
        raw = bytearray(path.read_bytes())
        # Flip the exponent byte of the first block's timestamp: every
        # txid still verifies, but the header no longer hashes to its
        # stored block hash.
        store = open_columns(path)
        timestamps = store["block_timestamp"]
        offset = timestamps.offset
        del store, timestamps
        raw[offset + 6] ^= 0xFF
        path.write_bytes(bytes(raw))
        restamp_crcs(path)
        with pytest.raises(DatasetCorruptionError) as excinfo:
            load_columnar(path).chain
        assert "block hash mismatch" in str(excinfo.value)


def flip_columnar_version(path) -> None:
    """Stamp a future ``columnar_version`` into a stored manifest."""
    raw = path.read_bytes()
    token = json.dumps(COLUMNAR_FORMAT_VERSION).encode()
    patched = raw.replace(
        b'"columnar_version": ' + token,
        b'"columnar_version": ' + str(COLUMNAR_FORMAT_VERSION + 9).encode(),
        1,
    )
    if patched == raw:  # compact separators in manifest
        patched = raw.replace(
            b'"columnar_version":' + token,
            b'"columnar_version":'
            + str(COLUMNAR_FORMAT_VERSION + 9).encode(),
            1,
        )
    path.write_bytes(patched)


def break_txid_cross_check(path) -> None:
    """Flip a byte inside an output-value column's data region.

    The store maps fine but the decoded transaction no longer hashes to
    its stored txid (txids commit to outputs, not fees).  The CRCs are
    re-stamped so the load's CRC32 check passes and the chain decode's
    own cross-check is what catches the flip.
    """
    raw = bytearray(path.read_bytes())
    store = open_columns(path)
    offset = store["out_value"].offset  # np.memmap exposes its file offset
    del store
    raw[offset] ^= 0xFF
    path.write_bytes(bytes(raw))
    restamp_crcs(path)


class TestLoadDatasetFile:
    """The twin-preferring loader behind ``serve`` and the flat builder."""

    @pytest.fixture
    def pair(self, tmp_path, small):
        path = save_dataset(small, tmp_path / "small.json.gz")
        save_columnar(small, columnar_sidecar(path))
        return path

    def _loads_gzip(self, pair, small, **kwargs):
        with obs.tracing(reset=True):
            loaded = load_dataset_file(pair, **kwargs)
            counters = obs.snapshot()["counters"]
        assert not isinstance(loaded, ColumnarDataset)
        assert counters.get("dataset.twin_rejected") == 1
        assert interchange_bytes(loaded) == interchange_bytes(small)

    def test_intact_twin_loads_without_parsing_the_gzip(
        self, pair, small, monkeypatch
    ):
        def no_gzip(path):
            raise AssertionError("the gzip was parsed")

        monkeypatch.setattr("repro.datasets.columnar.load_dataset", no_gzip)
        loaded = load_dataset_file(pair)
        assert isinstance(loaded, ColumnarDataset)
        assert loaded.columnar.path == columnar_sidecar(pair)
        assert interchange_bytes(loaded) == interchange_bytes(small)

    def test_flipped_twin_byte_falls_back_to_the_gzip(self, pair, small):
        sidecar = columnar_sidecar(pair)
        raw = bytearray(sidecar.read_bytes())
        offset = open_columns(sidecar)["rec_fee"].offset
        raw[offset] ^= 0xFF
        sidecar.write_bytes(bytes(raw))
        self._loads_gzip(pair, small)

    def test_other_columnar_version_falls_back_to_the_gzip(self, pair, small):
        flip_columnar_version(columnar_sidecar(pair))
        self._loads_gzip(pair, small)

    def test_failed_decode_of_a_named_part_falls_back(self, pair, small):
        break_txid_cross_check(columnar_sidecar(pair))
        # Unnamed parts stay lazy: the chain is not decoded at load.
        assert isinstance(load_dataset_file(pair), ColumnarDataset)
        self._loads_gzip(pair, small, parts=("chain",))

    def test_npz_path_loads_directly_without_fallback(self, pair, small):
        sidecar = columnar_sidecar(pair)
        loaded = load_dataset_file(sidecar)
        assert isinstance(loaded, ColumnarDataset)
        assert interchange_bytes(loaded) == interchange_bytes(small)
        break_txid_cross_check(sidecar)
        with pytest.raises(DatasetCorruptionError):
            load_dataset_file(sidecar, parts=("chain",))


def restamp_crcs(path) -> None:
    """Rewrite a stored zip so each member's CRC32 matches its bytes."""
    raw = path.read_bytes()
    with zipfile.ZipFile(io.BytesIO(raw)) as archive:
        infos = archive.infolist()
    members = []
    for info in infos:
        header = info.header_offset
        name_len, extra_len = struct.unpack("<HH", raw[header + 26 : header + 30])
        start = header + 30 + name_len + extra_len
        members.append((info, raw[start : start + info.compress_size]))
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        for info, data in members:
            archive.writestr(info, data)


class TestChainArraysZeroCopy:
    @pytest.mark.parametrize(
        "cpfp_filter",
        [CpfpFilter.NONE, CpfpFilter.CHILDREN, CpfpFilter.INVOLVED],
    )
    def test_pack_from_store_is_bit_identical(
        self, tmp_path, small_dataset_c, cpfp_filter
    ):
        store = open_columns(
            save_columnar(small_dataset_c, tmp_path / "c.npz")
        )
        mapped = ChainArrays.from_columnar(
            store, small_dataset_c.block_pools, cpfp_filter
        )
        rebuilt = ChainArrays.from_blocks(
            small_dataset_c.chain, small_dataset_c.block_pools, cpfp_filter
        )
        assert mapped.txids == rebuilt.txids
        assert np.array_equal(mapped.heights, rebuilt.heights)
        assert mapped.block_hashes == rebuilt.block_hashes
        assert np.array_equal(mapped.owner_ids, rebuilt.owner_ids)
        assert mapped.owner_names == rebuilt.owner_names
        assert np.array_equal(mapped.starts, rebuilt.starts)
        assert np.array_equal(mapped.counts, rebuilt.counts)
        assert np.array_equal(mapped.block_index, rebuilt.block_index)
        assert np.array_equal(mapped.vsizes, rebuilt.vsizes)
        # Float columns compare through their bit patterns: identical
        # means *identical*, not approximately equal.
        for name in (
            "fee_rates",
            "observed_rank",
            "predicted_rank",
            "signed_error",
            "abs_error",
        ):
            assert (
                getattr(mapped, name).view(np.int64).tolist()
                == getattr(rebuilt, name).view(np.int64).tolist()
            ), name
        assert mapped.tx_index == rebuilt.tx_index

    def test_from_dataset_prefers_the_attached_store(
        self, tmp_path, small_dataset_c
    ):
        loaded = load_columnar(
            save_columnar(small_dataset_c, tmp_path / "c.npz")
        )
        with obs.tracing(reset=True):
            arrays = ChainArrays.from_dataset(loaded)
            counters = obs.snapshot()["counters"]
        assert counters.get("vectorized.chain_arrays.mmap") == 1
        assert "vectorized.chain_arrays.fallback" not in counters
        rebuilt = ChainArrays.from_blocks(
            small_dataset_c.chain, small_dataset_c.block_pools
        )
        assert arrays.txids == rebuilt.txids

    def test_from_dataset_without_store_counts_a_fallback(
        self, small_dataset_c
    ):
        assert small_dataset_c.columnar is None
        with obs.tracing(reset=True):
            ChainArrays.from_dataset(small_dataset_c)
            snap = obs.snapshot()
        assert snap["counters"].get("vectorized.chain_arrays.fallback") == 1
        assert snap["gauges"].get("vectorized.chain_arrays.fallbacks", 0) >= 1

    def test_stale_store_falls_back_instead_of_serving_wrong_data(
        self, tmp_path, small, small_dataset_c, txf
    ):
        """A store that no longer matches its dataset must not be used."""
        loaded = load_columnar(save_columnar(small, tmp_path / "s.npz"))
        # Graft the stale store onto a different dataset.
        small_dataset_c.columnar = loaded.columnar
        try:
            with obs.tracing(reset=True):
                arrays = ChainArrays.from_dataset(small_dataset_c)
                counters = obs.snapshot()["counters"]
            assert counters.get("vectorized.chain_arrays.fallback") == 1
            rebuilt = ChainArrays.from_blocks(
                small_dataset_c.chain, small_dataset_c.block_pools
            )
            assert arrays.txids == rebuilt.txids
        finally:
            small_dataset_c.columnar = None


def _with_record(dataset, **changes):
    """``dataset`` with its first tx record's fields replaced."""
    records = dict(dataset.tx_records)
    txid = next(iter(records))
    records[txid] = dataclasses.replace(records[txid], **changes)
    return dataclasses.replace(dataset, tx_records=records)


def _with_bool_timestamp(dataset):
    """``dataset`` re-chained with ``True`` as its first block timestamp."""
    chain = Blockchain()
    for block in dataset.chain:
        timestamp = True if block.height == 0 else block.timestamp
        chain.append(
            make_test_block(
                block.transactions,
                height=block.height,
                prev_hash=chain.tip_hash,
                timestamp=timestamp,
            )
        )
    return dataclasses.replace(dataset, chain=chain)


#: Datasets the columnar writer must refuse: each value would come back
#: with a different JSON type (``1.0`` as ``1``, ``true`` as ``1``, ...).
REFUSED = {
    "float_fee": lambda ds: _with_record(ds, fee=1.0),
    "bool_fee": lambda ds: _with_record(ds, fee=True),
    "bool_block_timestamp": _with_bool_timestamp,
    "int_label": lambda ds: _with_record(ds, labels=frozenset({7})),
}


class TestWriterRefusals:
    """Values a column cannot round-trip byte-identically are refused."""

    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_save_columnar_refuses(self, tmp_path, small, case):
        path = tmp_path / "refused.npz"
        with pytest.raises(ValueError):
            save_columnar(REFUSED[case](small), path)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_cache_stores_a_refused_dataset_gzip_only(
        self, tmp_path, small, case
    ):
        dataset = REFUSED[case](small)
        cache = DatasetCache(tmp_path)
        key = CacheKey(builder="refused", scale=1.0, seed=0)
        with obs.tracing(reset=True):
            path = cache.store(key, dataset)
            counters = obs.snapshot()["counters"]
        assert counters.get("cache.sidecar_skipped") == 1
        assert path.exists()
        assert not columnar_sidecar(path).exists()
        assert dataset.columnar is None
        loaded = DatasetCache(tmp_path).load(key)
        assert loaded is not None
        assert loaded.columnar is None
        assert interchange_bytes(loaded) == interchange_bytes(dataset)

    def test_accepted_dataset_is_not_skipped(self, tmp_path, small):
        with obs.tracing(reset=True):
            path = DatasetCache(tmp_path).store(
                CacheKey(builder="small", scale=1.0, seed=0), small
            )
            counters = obs.snapshot()["counters"]
        assert "cache.sidecar_skipped" not in counters
        assert columnar_sidecar(path).exists()
