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

Robustness mirrors the gzip reader: truncated, torn, or otherwise
undecodable files raise :class:`~repro.datasets.io.DatasetCorruptionError`
with the byte offset where the reader stopped, and writes go through a
``.tmp`` + fsync + rename so a crash mid-write never leaves a partial
artifact at the final path.
"""

from __future__ import annotations

import io as _io
import json
import os
import struct
import zipfile
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..chain.block import Block, build_block
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
from .io import FORMAT_VERSION, DatasetCorruptionError
from .records import TxRecord

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
        self.manifest: Optional[dict] = None
        self._cache: dict[str, np.ndarray] = {}
        self._open()

    # -- pickling: path only, reopen lazily -----------------------------
    def __getstate__(self) -> dict:
        return {"path": str(self.path)}

    def __setstate__(self, state: dict) -> None:
        self.path = Path(state["path"])
        self._members = None
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
                    members[name] = self._member_layout(
                        handle, info, name, size
                    )
        except DatasetCorruptionError:
            raise
        except (zipfile.BadZipFile, struct.error, EOFError, OSError, ValueError) as exc:
            if isinstance(exc, FileNotFoundError):
                raise
            raise DatasetCorruptionError(path, str(exc), offset=size) from exc
        self._members = members
        self.manifest = self._read_manifest()

    def _member_layout(
        self, handle, info: zipfile.ZipInfo, name: str, size: int
    ) -> tuple[np.dtype, tuple, int]:
        """(dtype, shape, absolute data offset) of one stored member."""
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
        return dtype, shape, data_offset

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
        block/record counts and the chain tip hash must all agree.
        """
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
# Interchange decode (columnar file -> full Dataset)
# ----------------------------------------------------------------------
def load_columnar(path: Union[str, Path]) -> Dataset:
    """Read a dataset written by :func:`save_columnar`.

    The object graph is rebuilt exactly as the gzip reader builds it —
    through :func:`~repro.chain.block.build_block`, so transaction and
    block hashes re-derive from content and are cross-checked against
    the stored columns; any disagreement (bit rot, torn write) raises
    :class:`DatasetCorruptionError`.  The returned dataset carries the
    open :class:`ColumnStore` on ``dataset.columnar``, which
    :meth:`ChainArrays.from_dataset` uses for zero-copy packing.
    """
    store = ColumnStore(path)
    try:
        dataset = _dataset_from_store(store)
    except DatasetCorruptionError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise DatasetCorruptionError(
            path, f"invalid structure: {exc!r}"
        ) from exc
    dataset.columnar = store
    return dataset


def _dataset_from_store(store: ColumnStore) -> Dataset:
    """Rebuild the object graph from the store's columns.

    Each column is decoded in bulk, with one ``tolist()``, so the loops
    below index plain Python lists instead of memory maps.  Repeated
    snapshot rows share one interned :class:`SnapshotTx`.
    """
    manifest = store.manifest
    int_typed = manifest.get("int_typed", {})

    def column(name: str) -> list:
        """``store[name]`` as Python values, int-typed entries restored."""
        values = store[name].tolist()
        for index in int_typed.get(name, ()):
            values[index] = int(values[index])
        return values

    # -- chain ----------------------------------------------------------
    chain = Blockchain()
    heights = column("block_height")
    timestamps = column("block_timestamp")
    block_hashes = column("block_hash")
    cb_address = column("block_cb_address")
    cb_value = column("block_cb_value")
    cb_marker = column("block_cb_marker")
    cb_vsize = column("block_cb_vsize")
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
        coinbase = CoinbaseTransaction(
            inputs=(),
            outputs=(TxOutput(cb_address[index], cb_value[index]),),
            vsize=cb_vsize[index],
            fee=0,
            nonce=height,
            marker=cb_marker[index],
        )
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
            coinbase=coinbase,
            transactions=transactions,
        )
        if block.block_hash != block_hashes[index]:
            raise DatasetCorruptionError(
                store.path, f"block hash mismatch at height {height}"
            )
        chain.append(block)

    # -- snapshots -------------------------------------------------------
    snap_time = column("snap_time")
    snap_start = column("snap_start")
    snapshot_txs = SnapshotTxInterner().txs(
        zip(
            column("stx_txid"),
            column("stx_arrival"),
            column("stx_fee"),
            column("stx_vsize"),
        )
    )
    snapshots = SnapshotStore(
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

    # -- tx records ------------------------------------------------------
    label_vocab = manifest["label_vocab"]
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

    # -- attribution, series, metadata -----------------------------------
    pool_vocab = manifest["pool_vocab"]
    block_pools = {
        height: pool_vocab[pool]
        for height, pool in zip(
            column("block_pool_height"), column("block_pool_id")
        )
    }
    pool_wallets = {
        pool: frozenset(wallets)
        for pool, wallets in manifest["pool_wallets"].items()
    }
    size_series = None
    if manifest["has_size_series"]:
        size_series = SizeSeries(
            times=column("ss_time"),
            vsizes=column("ss_vsize"),
            tx_counts=(
                column("ss_count") if manifest["has_tx_counts"] else None
            ),
        )
    return Dataset(
        name=manifest["name"],
        chain=chain,
        snapshots=snapshots,
        tx_records=records,
        block_pools=block_pools,
        pool_wallets=pool_wallets,
        size_series=size_series,
        metadata=manifest["metadata"],
    )


def load_columnar_if_exists(path: Union[str, Path]) -> Optional[Dataset]:
    """Load a columnar dataset if the file exists, else None."""
    path = Path(path)
    if not path.exists():
        return None
    return load_columnar(path)
