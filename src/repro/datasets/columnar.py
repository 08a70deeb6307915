"""Columnar, memory-mappable dataset persistence (the hot-path format).

The gzip-JSON writer in :mod:`repro.datasets.io` stays the *interchange*
format — human-auditable, schema-versioned, diffable.  This module adds
the format the analyses actually load: an **uncompressed npz** holding
one typed array per record column, written atomically next to the
gzip-JSON artifact.  Because members are stored (never deflated) at
known offsets, every column can be memory-mapped directly out of the
zip, so :class:`~repro.core.vectorized.ChainArrays` builds from disk
without re-deriving anything from the object graph.

Layout (all members are plain ``.npy`` arrays; the file opens with
vanilla ``np.load`` too):

* ``manifest`` — a JSON document (uint8 bytes) carrying the format
  versions, the dataset name/metadata, element counts, string
  vocabularies, and the ragged-column bookkeeping;
* per-block columns (``block_*``) plus ``block_tx_start`` offsets into
  the chain-transaction columns;
* per-chain-transaction columns (``ctx_*``) with ragged input/output
  columns behind ``ctx_in_start`` / ``ctx_out_start``, and the
  precomputed CPFP flags the position analyses filter on;
* snapshot (``snap_*``/``stx_*``), tx-record (``rec_*``), pool
  attribution (``block_pool_*``) and size-series (``ss_*``) columns.

Contract (tests/test_columnar.py, tests/test_columnar_property.py):
``load_columnar(save_columnar(ds))`` serialises to **byte-identical**
gzip-JSON interchange — dict insertion orders, int-vs-float JSON typing
and optional fields all survive.  The integer-typed entries of float
columns are listed in the manifest so ``1`` never comes back as ``1.0``.

Writing is a bulk encode.  Rows gather into plain Python lists (one
``extend`` per block or snapshot) and each column becomes one typed
array at the end, as wide as its longest string.  The type checks run
over whole columns and form the writer's refusal contract: int columns
take only plain ints (no ``bool``, no ``1.0``), float columns only ints
and floats, string columns and labels only ``str``.  A dataset that
breaks it raises ``ValueError`` and stays gzip-only.

Reading returns a :class:`ColumnarDataset`: the audit accessors read
the mapped columns and the object graph is built, part by part, only
when something walks it.

Robustness mirrors the gzip reader: truncated, torn, or otherwise
undecodable files raise :class:`~repro.datasets.io.DatasetCorruptionError`
with the byte offset where the reader stopped, a load checks every
column against its zip CRC32, and writes go through a ``.tmp`` + fsync +
rename so a crash mid-write never leaves a partial artifact at the
final path.
"""

from __future__ import annotations

import io as _io
import json
import os
import struct
import zipfile
import zlib
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np

from .. import obs
from ..chain.block import build_block
from ..chain.blockchain import Blockchain
from ..chain.transaction import (
    CoinbaseTransaction,
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
)
from ..mempool.ancestry import find_cpfp_parent_txids, find_cpfp_txids
from ..mempool.snapshots import (
    MempoolSnapshot,
    SizeSeries,
    SnapshotStore,
    SnapshotTxInterner,
)
from .dataset import Dataset
from .gcpolicy import gc_paused
from .io import FORMAT_VERSION, DatasetCorruptionError, load_dataset
from .records import TxRecord, make_label

#: Version of the columnar layout.  Part of every dataset-cache key
#: (alongside the interchange ``FORMAT_VERSION``), so a layout change
#: can never stale-hit entries written by an older writer.
COLUMNAR_FORMAT_VERSION = 1

#: File suffix of the columnar sidecar.
COLUMNAR_SUFFIX = ".npz"

#: Interchange suffix the sidecar sits next to.
_INTERCHANGE_SUFFIX = ".json.gz"

#: Fixed member order (determinism) — the manifest first, then every
#: column.  A missing member is corruption, an unknown one is tolerated
#: (forward compatibility within a columnar version).
_MEMBER_ORDER = (
    "manifest",
    "block_height",
    "block_timestamp",
    "block_hash",
    "block_cb_address",
    "block_cb_value",
    "block_cb_marker",
    "block_cb_vsize",
    "block_tx_start",
    "ctx_txid",
    "ctx_fee",
    "ctx_vsize",
    "ctx_nonce",
    "ctx_cpfp_child",
    "ctx_cpfp_parent",
    "ctx_in_start",
    "ctx_out_start",
    "in_txid",
    "in_index",
    "out_address",
    "out_value",
    "snap_time",
    "snap_start",
    "stx_txid",
    "stx_arrival",
    "stx_fee",
    "stx_vsize",
    "rec_txid",
    "rec_broadcast",
    "rec_arrival",
    "rec_has_arrival",
    "rec_fee",
    "rec_vsize",
    "rec_commit_height",
    "rec_commit_position",
    "rec_label_start",
    "rec_label_id",
    "block_pool_height",
    "block_pool_id",
    "ss_time",
    "ss_vsize",
    "ss_count",
)

#: Sentinel for absent optional ints (commit height/position are >= 0).
_NULL_INT = -1


def columnar_sidecar(path: Union[str, Path]) -> Path:
    """The columnar twin of a gzip-JSON interchange path."""
    path = Path(path)
    name = path.name
    if name.endswith(_INTERCHANGE_SUFFIX):
        name = name[: -len(_INTERCHANGE_SUFFIX)]
    return path.with_name(name + COLUMNAR_SUFFIX)


# ----------------------------------------------------------------------
# Bulk column encode
# ----------------------------------------------------------------------
class _Columns:
    """Typed columns, each made in one step from a plain Python list.

    Rows are gathered with ``list.extend`` per block or snapshot and
    turned into one array per column.  The type checks run over a whole
    column at once and are the writer's refusal contract: the
    interchange JSON distinguishes ``1`` from ``1.0`` and ``true``, so a
    column that silently coerced either would break byte identity.  The
    writer refuses such datasets instead (the gzip interchange remains
    their only format).
    """

    def __init__(self) -> None:
        self.arrays: dict[str, np.ndarray] = {}
        #: Float column name -> indices of its int-typed entries.
        self.int_typed: dict[str, list[int]] = {}

    def ints(self, name: str, items: list) -> None:
        """int64 column; rejects anything that is not a plain Python int."""
        if not set(map(type, items)) <= {int}:
            bad = next(v for v in items if type(v) is not int)
            raise ValueError(
                f"expected a plain int, got {type(bad).__name__}: {bad!r}"
            )
        self.arrays[name] = np.array(items, dtype=np.int64)

    def floats(self, name: str, items: list) -> None:
        """float64 column that remembers which entries were typed as ints.

        JSON distinguishes ``5`` from ``5.0``; the indices of int-typed
        entries land in the manifest so decoding restores the exact type.
        """
        kinds = set(map(type, items))
        if not kinds <= {int, float}:
            bad = next(v for v in items if type(v) not in (int, float))
            raise ValueError(
                f"expected int or float, got {type(bad).__name__}: {bad!r}"
            )
        if int in kinds:
            self.int_typed[name] = [
                i for i, v in enumerate(items) if type(v) is int
            ]
        self.arrays[name] = np.array(items, dtype=np.float64)

    def strings(self, name: str, items: list) -> None:
        """Fixed-width unicode column, as wide as its longest value."""
        if not all(issubclass(kind, str) for kind in set(map(type, items))):
            bad = next(v for v in items if not isinstance(v, str))
            raise ValueError(
                f"expected str, got {type(bad).__name__}: {bad!r}"
            )
        self.arrays[name] = np.array(items, dtype=str)

    def bools(self, name: str, items: list) -> None:
        self.arrays[name] = np.array(items, dtype=np.bool_)

    def offsets(self, name: str, lengths: list) -> None:
        """Start offsets ``[0, l0, l0 + l1, ...]`` of a ragged column."""
        starts = np.zeros(len(lengths) + 1, dtype=np.int64)
        starts[1:] = np.cumsum(lengths)
        self.arrays[name] = starts


def _encode_chain(columns: _Columns, chain: Blockchain) -> None:
    height, timestamp, block_hash = [], [], []
    cb_address, cb_value, cb_marker, cb_vsize = [], [], [], []
    block_txs, txid, fee, vsize, nonce = [], [], [], [], []
    cpfp_child, cpfp_parent, tx_inputs, tx_outputs = [], [], [], []
    in_txid, in_index, out_address, out_value = [], [], [], []
    for block in chain:
        coinbase = block.coinbase
        height.append(block.height)
        timestamp.append(block.timestamp)
        block_hash.append(block.block_hash)
        cb_address.append(coinbase.outputs[0].address)
        cb_value.append(coinbase.outputs[0].value)
        cb_marker.append(coinbase.marker)
        cb_vsize.append(coinbase.vsize)
        txs = block.transactions
        txids = [tx.txid for tx in txs]
        children = find_cpfp_txids(block)
        parents = find_cpfp_parent_txids(block)
        block_txs.append(len(txs))
        txid += txids
        fee += [tx.fee for tx in txs]
        vsize += [tx.vsize for tx in txs]
        nonce += [tx.nonce for tx in txs]
        cpfp_child += [t in children for t in txids]
        cpfp_parent += [t in parents for t in txids]
        tx_inputs += [len(tx.inputs) for tx in txs]
        tx_outputs += [len(tx.outputs) for tx in txs]
        prevouts = [txin.prevout for tx in txs for txin in tx.inputs]
        in_txid += [prevout.txid for prevout in prevouts]
        in_index += [prevout.index for prevout in prevouts]
        outputs = [txout for tx in txs for txout in tx.outputs]
        out_address += [txout.address for txout in outputs]
        out_value += [txout.value for txout in outputs]
    columns.ints("block_height", height)
    columns.floats("block_timestamp", timestamp)
    columns.strings("block_hash", block_hash)
    columns.strings("block_cb_address", cb_address)
    columns.ints("block_cb_value", cb_value)
    columns.strings("block_cb_marker", cb_marker)
    columns.ints("block_cb_vsize", cb_vsize)
    columns.offsets("block_tx_start", block_txs)
    columns.strings("ctx_txid", txid)
    columns.ints("ctx_fee", fee)
    columns.ints("ctx_vsize", vsize)
    columns.ints("ctx_nonce", nonce)
    columns.bools("ctx_cpfp_child", cpfp_child)
    columns.bools("ctx_cpfp_parent", cpfp_parent)
    columns.offsets("ctx_in_start", tx_inputs)
    columns.offsets("ctx_out_start", tx_outputs)
    columns.strings("in_txid", in_txid)
    columns.ints("in_index", in_index)
    columns.strings("out_address", out_address)
    columns.ints("out_value", out_value)


def _encode_snapshots(columns: _Columns, snapshots: SnapshotStore) -> None:
    time, sizes, txid, arrival, fee, vsize = [], [], [], [], [], []
    for snapshot in snapshots:
        txs = snapshot.txs
        time.append(snapshot.time)
        sizes.append(len(txs))
        txid += [tx.txid for tx in txs]
        arrival += [tx.arrival_time for tx in txs]
        fee += [tx.fee for tx in txs]
        vsize += [tx.vsize for tx in txs]
    columns.floats("snap_time", time)
    columns.offsets("snap_start", sizes)
    columns.strings("stx_txid", txid)
    columns.floats("stx_arrival", arrival)
    columns.ints("stx_fee", fee)
    columns.ints("stx_vsize", vsize)


def _encode_records(columns: _Columns, records: list[TxRecord]) -> list[str]:
    """Record columns; returns the sorted label vocabulary.

    Each record's labels are stored sorted, as ids into the sorted
    vocabulary, so ids ascend within every record's segment.
    """
    columns.strings("rec_txid", [r.txid for r in records])
    columns.floats("rec_broadcast", [r.broadcast_time for r in records])
    # An absent arrival stores a float 0.0 placeholder: it keeps the
    # column aligned and never lands in the int-typed bookkeeping.
    columns.floats(
        "rec_arrival",
        [
            0.0 if r.observer_arrival is None else r.observer_arrival
            for r in records
        ],
    )
    columns.bools(
        "rec_has_arrival", [r.observer_arrival is not None for r in records]
    )
    columns.ints("rec_fee", [r.fee for r in records])
    columns.ints("rec_vsize", [r.vsize for r in records])
    columns.ints(
        "rec_commit_height",
        [
            _NULL_INT if r.commit_height is None else r.commit_height
            for r in records
        ],
    )
    columns.ints(
        "rec_commit_position",
        [
            _NULL_INT if r.commit_position is None else r.commit_position
            for r in records
        ],
    )
    labels = [sorted(r.labels) for r in records]
    flat = [label for row in labels for label in row]
    for label in flat:
        if not isinstance(label, str):
            raise ValueError(f"labels must be strings, got {label!r}")
    vocab = sorted(set(flat))
    ids = {label: i for i, label in enumerate(vocab)}
    columns.offsets("rec_label_start", [len(row) for row in labels])
    columns.arrays["rec_label_id"] = np.array(
        [ids[label] for label in flat], dtype=np.int64
    )
    return vocab


def save_columnar(dataset: Dataset, path: Union[str, Path]) -> Path:
    """Atomically write ``dataset`` as a columnar npz.

    Deterministic like the gzip writer: fixed member order, fixed zip
    timestamps, stored (uncompressed) members — the same dataset always
    produces the same bytes, and every column stays memory-mappable.
    """
    columns = _Columns()
    _encode_chain(columns, dataset.chain)
    _encode_snapshots(columns, dataset.snapshots)
    label_vocab = _encode_records(columns, list(dataset.tx_records.values()))
    pool_vocab: dict[str, int] = {}
    pool_heights, pool_ids = [], []
    for height, pool in dataset.block_pools.items():
        if type(height) is not int or not isinstance(pool, str):
            raise ValueError(
                f"block_pools must map int -> str, got {height!r}: {pool!r}"
            )
        pool_heights.append(height)
        pool_ids.append(pool_vocab.setdefault(pool, len(pool_vocab)))
    columns.ints("block_pool_height", pool_heights)
    columns.ints("block_pool_id", pool_ids)
    series = dataset.size_series
    counts = None if series is None else series.tx_counts()
    columns.floats("ss_time", [] if series is None else series.times)
    columns.ints("ss_vsize", [] if series is None else series.sizes())
    columns.ints("ss_count", counts or [])
    arrays = columns.arrays
    manifest = {
        "columnar_version": COLUMNAR_FORMAT_VERSION,
        "schema_version": FORMAT_VERSION,
        "name": str(dataset.name),
        "counts": {
            "blocks": len(arrays["block_height"]),
            "chain_txs": len(arrays["ctx_txid"]),
            "inputs": len(arrays["in_txid"]),
            "outputs": len(arrays["out_address"]),
            "snapshots": len(arrays["snap_time"]),
            "snapshot_txs": len(arrays["stx_txid"]),
            "records": len(arrays["rec_txid"]),
            "labels": len(arrays["rec_label_id"]),
            "block_pools": len(arrays["block_pool_height"]),
            "size_points": len(arrays["ss_time"]),
        },
        "pool_vocab": list(pool_vocab),
        "pool_wallets": {
            str(pool): sorted(str(w) for w in wallets)
            for pool, wallets in dataset.pool_wallets.items()
        },
        "label_vocab": label_vocab,
        "has_size_series": series is not None,
        "has_tx_counts": counts is not None,
        "int_typed": columns.int_typed,
        "metadata": dataset.metadata,
    }
    return _write_npz(path, arrays, manifest)


def _write_npz(
    path: Union[str, Path], columns: dict[str, np.ndarray], manifest: dict
) -> Path:
    """Write a deterministic, uncompressed, atomically-replaced npz."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    manifest_bytes = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
    members: dict[str, np.ndarray] = {
        "manifest": np.frombuffer(manifest_bytes, dtype=np.uint8)
    }
    members.update(columns)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            with zipfile.ZipFile(handle, "w", zipfile.ZIP_STORED) as archive:
                for name in _MEMBER_ORDER:
                    buffer = _io.BytesIO()
                    np.lib.format.write_array(
                        buffer,
                        np.ascontiguousarray(members[name]),
                        allow_pickle=False,
                    )
                    info = zipfile.ZipInfo(
                        name + ".npy", date_time=(1980, 1, 1, 0, 0, 0)
                    )
                    info.compress_type = zipfile.ZIP_STORED
                    info.external_attr = 0o600 << 16
                    archive.writestr(info, buffer.getvalue())
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
    return path


# ----------------------------------------------------------------------
# Zero-copy reader
# ----------------------------------------------------------------------
#: Local zip header layout: magic(4) .. name_len@26(2) extra_len@28(2).
_LOCAL_HEADER_SIZE = 30
_LOCAL_MAGIC = b"PK\x03\x04"


class ColumnStore:
    """Memory-mapped view over one columnar dataset file.

    Opening parses the zip directory and every member's npy header but
    maps **no** data; columns materialise lazily as ``np.memmap`` views
    on first access (``store["ctx_fee"]``), so touching two columns of
    a multi-gigabyte dataset reads two columns, not the file.

    Pickling carries only the path; a worker process re-opens (and
    re-validates) lazily on first access.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._members: Optional[dict[str, tuple[np.dtype, tuple, int]]] = None
        #: name -> (npy offset, stored size, CRC32 from the zip directory)
        self._extents: dict[str, tuple[int, int, int]] = {}
        self.manifest: Optional[dict] = None
        self._cache: dict[str, np.ndarray] = {}
        self._open()

    # -- pickling: path only, reopen lazily -----------------------------
    def __getstate__(self) -> dict:
        return {"path": str(self.path)}

    def __setstate__(self, state: dict) -> None:
        self.path = Path(state["path"])
        self._members = None
        self._extents = {}
        self.manifest = None
        self._cache = {}

    def _ensure_open(self) -> None:
        if self._members is None:
            self._open()

    def _open(self) -> None:
        path = self.path
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            raise
        members: dict[str, tuple[np.dtype, tuple, int]] = {}
        extents: dict[str, tuple[int, int, int]] = {}
        try:
            with open(path, "rb") as handle:
                with zipfile.ZipFile(handle) as archive:
                    infos = {
                        info.filename: info for info in archive.infolist()
                    }
                for name in _MEMBER_ORDER:
                    info = infos.get(name + ".npy")
                    if info is None:
                        raise DatasetCorruptionError(
                            path, f"missing column {name!r}", offset=size
                        )
                    if info.compress_type != zipfile.ZIP_STORED:
                        raise DatasetCorruptionError(
                            path,
                            f"column {name!r} is compressed (not mappable)",
                            offset=info.header_offset,
                        )
                    dtype, shape, data_offset, npy_offset = (
                        self._member_layout(handle, info, name, size)
                    )
                    members[name] = dtype, shape, data_offset
                    extents[name] = npy_offset, info.compress_size, info.CRC
        except DatasetCorruptionError:
            raise
        except (zipfile.BadZipFile, struct.error, EOFError, OSError, ValueError) as exc:
            if isinstance(exc, FileNotFoundError):
                raise
            raise DatasetCorruptionError(path, str(exc), offset=size) from exc
        self._members = members
        self._extents = extents
        self.manifest = self._read_manifest()

    def _member_layout(
        self, handle, info: zipfile.ZipInfo, name: str, size: int
    ) -> tuple[np.dtype, tuple, int, int]:
        """(dtype, shape, data offset, npy offset) of one stored member."""
        handle.seek(info.header_offset)
        header = handle.read(_LOCAL_HEADER_SIZE)
        if len(header) < _LOCAL_HEADER_SIZE or header[:4] != _LOCAL_MAGIC:
            raise DatasetCorruptionError(
                self.path,
                f"torn local header for column {name!r}",
                offset=info.header_offset,
            )
        name_len, extra_len = struct.unpack("<HH", header[26:30])
        npy_offset = (
            info.header_offset + _LOCAL_HEADER_SIZE + name_len + extra_len
        )
        handle.seek(npy_offset)
        version = np.lib.format.read_magic(handle)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
        else:
            raise DatasetCorruptionError(
                self.path,
                f"unsupported npy version {version} for column {name!r}",
                offset=npy_offset,
            )
        if fortran:
            raise DatasetCorruptionError(
                self.path, f"column {name!r} is Fortran-ordered", offset=npy_offset
            )
        data_offset = handle.tell()
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if data_offset + nbytes > size:
            raise DatasetCorruptionError(
                self.path,
                f"column {name!r} truncated "
                f"(needs {data_offset + nbytes} bytes)",
                offset=size,
            )
        return dtype, shape, data_offset, npy_offset

    def verify(self) -> None:
        """Check every column's bytes against its stored zip CRC32.

        One sequential pass in 1 MiB reads, so the check maps nothing
        and holds one buffer.  A mismatch raises
        :class:`DatasetCorruptionError` naming the column.
        """
        self._ensure_open()
        buffer = memoryview(bytearray(1 << 20))
        with open(self.path, "rb") as handle:
            for name, (offset, size, expected) in self._extents.items():
                handle.seek(offset)
                crc = 0
                remaining = size
                while remaining:
                    read = handle.readinto(buffer[: min(remaining, len(buffer))])
                    if not read:
                        raise DatasetCorruptionError(
                            self.path,
                            f"column {name!r} truncated",
                            offset=offset + size - remaining,
                        )
                    crc = zlib.crc32(buffer[:read], crc)
                    remaining -= read
                if crc != expected:
                    raise DatasetCorruptionError(
                        self.path,
                        f"CRC32 mismatch in column {name!r}",
                        offset=offset,
                    )

    def _read_manifest(self) -> dict:
        raw = bytes(self["manifest"])
        try:
            manifest = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DatasetCorruptionError(
                self.path, f"undecodable manifest: {exc}"
            ) from exc
        version = manifest.get("columnar_version")
        if version != COLUMNAR_FORMAT_VERSION:
            raise DatasetCorruptionError(
                self.path, f"unsupported columnar version: {version}"
            )
        if manifest.get("schema_version") != FORMAT_VERSION:
            raise DatasetCorruptionError(
                self.path,
                f"unsupported dataset schema: {manifest.get('schema_version')}",
            )
        return manifest

    def __getitem__(self, name: str) -> np.ndarray:
        column = self._cache.get(name)
        if column is not None:
            return column
        self._ensure_open()
        try:
            dtype, shape, offset = self._members[name]
        except KeyError:
            raise KeyError(f"no such column: {name!r}") from None
        if int(np.prod(shape, dtype=np.int64)) == 0:
            column = np.empty(shape, dtype=dtype)
        else:
            try:
                column = np.memmap(
                    self.path, dtype=dtype, mode="r", offset=offset, shape=shape
                )
            except (OSError, ValueError) as exc:
                raise DatasetCorruptionError(
                    self.path, f"cannot map column {name!r}: {exc}", offset=offset
                ) from exc
        self._cache[name] = column
        return column

    # -- conveniences ----------------------------------------------------
    @property
    def counts(self) -> dict:
        self._ensure_open()
        return self.manifest["counts"]

    @property
    def block_count(self) -> int:
        return int(self.counts["blocks"])

    @property
    def record_count(self) -> int:
        return int(self.counts["records"])

    @property
    def name(self) -> str:
        self._ensure_open()
        return self.manifest["name"]

    def matches(self, dataset: Dataset) -> bool:
        """Cheap check that this store describes exactly ``dataset``.

        Guards the zero-copy path against derived datasets (degraded
        copies, re-simulations) silently reusing a stale sidecar: name,
        block/record counts and the chain tip hash must all agree.  The
        store's own :class:`ColumnarDataset` matches without building
        its graph.
        """
        if isinstance(dataset, ColumnarDataset) and dataset._store is self:
            return True
        try:
            self._ensure_open()
            if self.name != dataset.name:
                return False
            if self.block_count != len(dataset.chain):
                return False
            if self.record_count != len(dataset.tx_records):
                return False
            if self.block_count == 0:
                return True
            return str(self["block_hash"][-1]) == dataset.chain.tip_hash
        except (DatasetCorruptionError, OSError, KeyError, ValueError):
            return False


def open_columns(path: Union[str, Path]) -> ColumnStore:
    """Open (and validate the layout of) a columnar dataset file."""
    return ColumnStore(path)


# ----------------------------------------------------------------------
# Decode: a store-backed dataset, graph parts built on demand
# ----------------------------------------------------------------------
def load_columnar(path: Union[str, Path]) -> Dataset:
    """Read a dataset written by :func:`save_columnar`.

    Every column's bytes are first checked against the CRC32 the zip
    directory stores, so a damaged file fails here, at load, as
    :class:`DatasetCorruptionError`.  The result is a
    :class:`ColumnarDataset`: the audit accessors read the mapped
    columns, and the object graph (``chain``, ``snapshots``,
    ``tx_records``) is built part by part on first access, exactly as
    the gzip reader builds it.  The dataset carries the open
    :class:`ColumnStore` on ``dataset.columnar``, which
    :meth:`ChainArrays.from_dataset` uses for zero-copy packing.
    """
    store = ColumnStore(path)
    with obs.span("columnar.verify"):
        store.verify()
    return _decoding(store, ColumnarDataset)


def _decoding(store: ColumnStore, decode):
    """``decode(store)``, with malformed columns as DatasetCorruptionError."""
    try:
        return decode(store)
    except DatasetCorruptionError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise DatasetCorruptionError(
            store.path, f"invalid structure: {exc!r}"
        ) from exc


def _column(store: ColumnStore, name: str) -> list:
    """``store[name]`` as Python values, int-typed entries restored.

    One bulk ``tolist()`` per column, so the decode loops index plain
    Python lists instead of memory maps.
    """
    values = store[name].tolist()
    for index in store.manifest.get("int_typed", {}).get(name, ()):
        values[index] = int(values[index])
    return values


def _coinbase(store: ColumnStore, index: int) -> CoinbaseTransaction:
    return CoinbaseTransaction(
        inputs=(),
        outputs=(
            TxOutput(
                str(store["block_cb_address"][index]),
                int(store["block_cb_value"][index]),
            ),
        ),
        vsize=int(store["block_cb_vsize"][index]),
        fee=0,
        nonce=int(store["block_height"][index]),
        marker=str(store["block_cb_marker"][index]),
    )


def _decode_chain(store: ColumnStore) -> Blockchain:
    """Rebuild the chain, re-hashing every transaction and block.

    Txids recompute through :class:`Transaction` and block hashes
    through :func:`build_block`, each cross-checked against its stored
    column; :class:`Blockchain` validates linkage and double spends.
    """
    chain = Blockchain()
    column = lambda name: _column(store, name)  # noqa: E731
    heights = column("block_height")
    timestamps = column("block_timestamp")
    block_hashes = column("block_hash")
    block_tx_start = column("block_tx_start")
    ctx_txid = column("ctx_txid")
    ctx_fee = column("ctx_fee")
    ctx_vsize = column("ctx_vsize")
    ctx_nonce = column("ctx_nonce")
    in_start = column("ctx_in_start")
    out_start = column("ctx_out_start")
    in_txid = column("in_txid")
    in_index = column("in_index")
    out_address = column("out_address")
    out_value = column("out_value")
    for index in range(store.block_count):
        height = heights[index]
        transactions = []
        for j in range(block_tx_start[index], block_tx_start[index + 1]):
            inputs = tuple([
                TxInput(OutPoint(in_txid[k], in_index[k]))
                for k in range(in_start[j], in_start[j + 1])
            ])
            outputs = tuple([
                TxOutput(out_address[k], out_value[k])
                for k in range(out_start[j], out_start[j + 1])
            ])
            tx = Transaction(
                inputs=inputs,
                outputs=outputs,
                vsize=ctx_vsize[j],
                fee=ctx_fee[j],
                nonce=ctx_nonce[j],
            )
            if tx.txid != ctx_txid[j]:
                raise DatasetCorruptionError(
                    store.path,
                    f"txid mismatch at chain index {j} "
                    f"(stored {ctx_txid[j]!r})",
                )
            transactions.append(tx)
        block = build_block(
            height=height,
            prev_hash=chain.tip_hash,
            timestamp=timestamps[index],
            coinbase=_coinbase(store, index),
            transactions=transactions,
        )
        if block.block_hash != block_hashes[index]:
            raise DatasetCorruptionError(
                store.path, f"block hash mismatch at height {height}"
            )
        chain.append(block)
    return chain


def _decode_snapshots(store: ColumnStore) -> SnapshotStore:
    """Rebuild the snapshots; repeated rows share one interned SnapshotTx."""
    snap_time = _column(store, "snap_time")
    snap_start = _column(store, "snap_start")
    snapshot_txs = SnapshotTxInterner().txs(
        zip(
            _column(store, "stx_txid"),
            _column(store, "stx_arrival"),
            _column(store, "stx_fee"),
            _column(store, "stx_vsize"),
        )
    )
    return SnapshotStore(
        MempoolSnapshot(
            time=snap_time[index],
            # Indexed, not sliced: a torn offset must raise IndexError.
            txs=tuple([
                snapshot_txs[k]
                for k in range(snap_start[index], snap_start[index + 1])
            ]),
        )
        for index in range(len(snap_time))
    )


def _decode_records(store: ColumnStore) -> dict[str, TxRecord]:
    label_vocab = store.manifest["label_vocab"]
    column = lambda name: _column(store, name)  # noqa: E731
    rec_txid = column("rec_txid")
    rec_broadcast = column("rec_broadcast")
    rec_arrival = column("rec_arrival")
    rec_has_arrival = column("rec_has_arrival")
    rec_fee = column("rec_fee")
    rec_vsize = column("rec_vsize")
    rec_commit_height = column("rec_commit_height")
    rec_commit_position = column("rec_commit_position")
    rec_label_start = column("rec_label_start")
    rec_label_id = column("rec_label_id")
    records: dict[str, TxRecord] = {}
    for index in range(store.record_count):
        height = rec_commit_height[index]
        position = rec_commit_position[index]
        record = TxRecord(
            txid=rec_txid[index],
            broadcast_time=rec_broadcast[index],
            observer_arrival=(
                rec_arrival[index] if rec_has_arrival[index] else None
            ),
            fee=rec_fee[index],
            vsize=rec_vsize[index],
            commit_height=None if height == _NULL_INT else height,
            commit_position=None if position == _NULL_INT else position,
            labels=frozenset([
                label_vocab[label]
                for label in rec_label_id[
                    rec_label_start[index] : rec_label_start[index + 1]
                ]
            ]),
        )
        records[record.txid] = record
    return records


#: Object-graph parts of a :class:`ColumnarDataset`, built on demand.
_PART_DECODERS = {
    "chain": _decode_chain,
    "snapshots": _decode_snapshots,
    "tx_records": _decode_records,
}


class ColumnarDataset(Dataset):
    """A :class:`Dataset` answered from its memory-mapped columns.

    Loading decodes only the small parts (attribution, wallets, size
    series, metadata).  ``chain``, ``snapshots`` and ``tx_records`` are
    each built on first access, with the garbage collector paused, by
    the same decoders and cross-checks as a full load; a traced run
    counts each build as ``dataset.decode.<part>``.  The accessors the
    audits join on (counts, commit heights, fee-rates, labels, c-block
    miners, the wallet index, the §4.1 observed-record columns, ...)
    read the columns directly and return exactly what the object-graph
    bodies of :class:`Dataset` return (pinned by
    ``tests/test_columnar_view.py``).  The graph parts are read-only:
    the column-backed answers describe the stored dataset.
    """

    def __init__(self, store: ColumnStore) -> None:
        manifest = store.manifest
        pool_vocab = manifest["pool_vocab"]
        self.name = manifest["name"]
        self.block_pools = {
            height: pool_vocab[pool]
            for height, pool in zip(
                _column(store, "block_pool_height"),
                _column(store, "block_pool_id"),
            )
        }
        self.pool_wallets = {
            pool: frozenset(wallets)
            for pool, wallets in manifest["pool_wallets"].items()
        }
        self.size_series = None
        if manifest["has_size_series"]:
            self.size_series = SizeSeries(
                times=_column(store, "ss_time"),
                vsizes=_column(store, "ss_vsize"),
                tx_counts=(
                    _column(store, "ss_count")
                    if manifest["has_tx_counts"]
                    else None
                ),
            )
        self.metadata = manifest["metadata"]
        self.columnar = store
        self._store = store
        self._parts: dict[str, object] = {}
        self._memo: dict[str, object] = {}

    # -- graph parts, built on first access -----------------------------
    def _part(self, part: str):
        value = self._parts.get(part)
        if value is None:
            obs.counter(f"dataset.decode.{part}")
            with obs.span("dataset.decode"), gc_paused():
                value = _decoding(self._store, _PART_DECODERS[part])
            self._parts[part] = value
        return value

    @property
    def chain(self) -> Blockchain:
        return self._part("chain")

    @property
    def snapshots(self) -> SnapshotStore:
        return self._part("snapshots")

    @property
    def tx_records(self) -> dict[str, TxRecord]:
        return self._part("tx_records")

    # -- column helpers ---------------------------------------------------
    def _memoised(self, key: str, compute):
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = compute()
        return value

    def _list(self, name: str) -> list:
        """A column several accessors read, as a Python list (kept)."""
        return self._memoised(name, lambda: self._store[name].tolist())

    def _owners(self, start_column: str) -> np.ndarray:
        """Owning row of each element of a ragged column."""
        starts = np.asarray(self._store[start_column], dtype=np.int64)
        return np.repeat(np.arange(len(starts) - 1), np.diff(starts))

    def _record_heights(self) -> dict[str, int]:
        """txid -> commit height (-1 when uncommitted), every record."""
        return self._memoised(
            "record_heights",
            lambda: dict(
                zip(
                    self._list("rec_txid"),
                    self._store["rec_commit_height"].tolist(),
                )
            ),
        )

    # -- column-backed accessors -----------------------------------------
    @property
    def block_count(self) -> int:
        return self._store.block_count

    @property
    def tx_count(self) -> int:
        return self._store.record_count

    @property
    def snapshot_count(self) -> int:
        return int(self._store.counts["snapshots"])

    def commit_heights(self) -> dict[str, int]:
        return {
            txid: height
            for txid, height in self._record_heights().items()
            if height != _NULL_INT
        }

    def committed_count(self) -> int:
        return int(
            np.count_nonzero(self._store["rec_commit_height"] != _NULL_INT)
        )

    def fee_rates(self) -> dict[str, float]:
        rates = self._store["rec_fee"] / self._store["rec_vsize"]
        return dict(zip(self._list("rec_txid"), rates.tolist()))

    def observed_records(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        store = self._store
        observed = np.flatnonzero(store["rec_has_arrival"])
        fees = store["rec_fee"][observed]
        return (
            np.asarray(store["rec_arrival"][observed], dtype=float),
            np.asarray(store["rec_commit_height"][observed], dtype=np.int64),
            fees / store["rec_vsize"][observed],
        )

    def block_times(self) -> np.ndarray:
        return np.array(self._store["block_timestamp"], dtype=float)

    def block_tx_counts(self) -> np.ndarray:
        return np.diff(np.asarray(self._store["block_tx_start"], dtype=np.int64))

    def empty_block_count(self) -> int:
        return int(np.count_nonzero(self.block_tx_counts() == 0))

    def cpfp_fraction(self) -> float:
        total = len(self._store["ctx_txid"])
        cpfp = int(np.count_nonzero(self._store["ctx_cpfp_child"]))
        return cpfp / total if total else 0.0

    def cpfp_txids(self) -> frozenset[str]:
        child = np.asarray(self._store["ctx_cpfp_child"], dtype=bool)
        return frozenset(self._store["ctx_txid"][child].tolist())

    def commit_pools(self) -> dict[str, str]:
        txids = self._list("ctx_txid")
        starts = self._list("block_tx_start")
        mapping: dict[str, str] = {}
        for index, height in enumerate(self._list("block_height")):
            pool = self.block_pools.get(height)
            if pool is not None:
                mapping.update(
                    dict.fromkeys(txids[starts[index] : starts[index + 1]], pool)
                )
        return mapping

    def labelled_txids(self, prefix: str, value: str = "") -> frozenset[str]:
        wanted = make_label(prefix, value)
        ids = [
            index
            for index, label in enumerate(self._store.manifest["label_vocab"])
            if label == wanted
            or (not value and label.startswith(prefix + ":"))
        ]
        owners = self._memoised(
            "label_owners", lambda: self._owners("rec_label_start")
        )
        hit = np.isin(np.asarray(self._store["rec_label_id"]), ids)
        rows = np.unique(owners[hit])
        return frozenset(self._store["rec_txid"][rows].tolist())

    def c_block_miners(self, txids: Iterable[str]) -> list[str]:
        record_heights = self._record_heights()
        heights: set[int] = set()
        for txid in txids:
            height = record_heights.get(txid)
            if height is None:
                # Not a record: where the chain committed it, if at all.
                height = self._chain_heights().get(txid, _NULL_INT)
            if height != _NULL_INT:
                heights.add(height)
        return [
            self.block_pools[h]
            for h in sorted(heights)
            if h in self.block_pools
        ]

    def _chain_heights(self) -> dict[str, int]:
        """txid -> height of every committed non-coinbase transaction."""
        return self._memoised(
            "chain_heights",
            lambda: dict(
                zip(
                    self._list("ctx_txid"),
                    np.asarray(self._store["block_height"])[
                        self._owners("block_tx_start")
                    ].tolist(),
                )
            ),
        )

    def inferred_self_interest_txids_indexed(self, pool: str) -> frozenset[str]:
        wallets = self.pool_wallets.get(pool, frozenset())
        if not wallets:
            return frozenset()
        index = self._wallet_index(wallets)
        txids = self._list("ctx_txid")
        return frozenset(
            txids[j] for address in wallets for j in index.get(address, ())
        )

    def _wallet_index(self, wallets: frozenset[str]) -> dict[str, set[int]]:
        """address -> chain-tx rows touching it, over every pool wallet.

        The relation of :meth:`Blockchain.address_index` restricted to
        wallet addresses: a transaction touches an address it pays into
        and the address of every output it spends, coinbase outputs
        included.  Built once per dataset, from the output and input
        columns, for all of ``pool_wallets`` (plus ``wallets``).
        """
        memo = self._memo.get("wallet_index")
        if memo is not None and wallets <= memo[0]:
            return memo[1]
        store = self._store
        covered = frozenset(wallets).union(*self.pool_wallets.values())
        txids = self._list("ctx_txid")
        out_start = store["ctx_out_start"].tolist()
        out_owner = self._owners("ctx_out_start").tolist()
        index: dict[str, set[int]] = {}
        # (txid, output index) -> address, for outputs paying a wallet.
        paying: dict[tuple[str, int], str] = {}
        for k, address in enumerate(store["out_address"].tolist()):
            if address in covered:
                j = out_owner[k]
                index.setdefault(address, set()).add(j)
                paying[(txids[j], k - out_start[j])] = address
        for b, address in enumerate(store["block_cb_address"].tolist()):
            if address in covered:
                paying[(_coinbase(store, b).txid, 0)] = address
        parents = {txid for txid, _ in paying}
        in_owner = self._owners("ctx_in_start").tolist()
        in_index = store["in_index"].tolist()
        for k, parent in enumerate(store["in_txid"].tolist()):
            if parent in parents:
                address = paying.get((parent, in_index[k]))
                if address is not None:
                    index.setdefault(address, set()).add(in_owner[k])
        self._memo["wallet_index"] = (covered, index)
        return index


def load_dataset_file(
    path: Union[str, Path], parts: Iterable[str] = ()
) -> Dataset:
    """Load a saved dataset, through its columnar twin when that is intact.

    ``path`` is a gzip-JSON interchange file or a columnar ``.npz``.  A
    gzip path that is absent raises :class:`FileNotFoundError`, twin or
    no twin; when its :func:`columnar_sidecar` exists, the twin loads
    through :func:`load_columnar` (CRC-checked) and the gzip is parsed
    only if the twin is corrupt or of another format version.
    ``parts`` names graph parts (``"snapshots"``, ``"tx_records"``,
    ``"chain"``) to build before returning, so a twin whose decode
    cross-checks fail also falls back to the gzip.  An ``.npz`` path
    loads directly; its errors propagate, there being nothing to fall
    back to.
    """
    path = Path(path)
    if path.name.endswith(COLUMNAR_SUFFIX):
        return _with_parts(load_columnar(path), parts)
    sidecar = columnar_sidecar(path)
    if path.exists() and sidecar.exists():
        try:
            return _with_parts(load_columnar(sidecar), parts)
        except DatasetCorruptionError:
            obs.counter("dataset.twin_rejected")
    return load_dataset(path)


def _with_parts(dataset: Dataset, parts: Iterable[str]) -> Dataset:
    """``dataset`` after building each named graph part."""
    for part in parts:
        getattr(dataset, part)
    return dataset
