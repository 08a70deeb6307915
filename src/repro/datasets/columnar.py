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
# Pre-grown column buffers
# ----------------------------------------------------------------------
class ColumnBuffer:
    """A typed append-only buffer that grows geometrically.

    Dataset construction streams block-by-block into these instead of
    materialising intermediate Python lists: each append writes straight
    into a preallocated numpy array, doubled when full.
    """

    __slots__ = ("_data", "_size")

    def __init__(self, dtype, capacity: int = 1024) -> None:
        self._data = np.empty(max(capacity, 1), dtype=np.dtype(dtype))
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _reserve(self, needed: int) -> None:
        capacity = len(self._data)
        if needed <= capacity:
            return
        grown = np.empty(max(needed, 2 * capacity), dtype=self._data.dtype)
        grown[: self._size] = self._data[: self._size]
        self._data = grown

    def append(self, value) -> None:
        self._reserve(self._size + 1)
        self._data[self._size] = value
        self._size += 1

    def finish(self) -> np.ndarray:
        """The compacted column (a copy; the buffer stays reusable)."""
        return self._data[: self._size].copy()


class _IntColumn(ColumnBuffer):
    """int64 column; rejects anything that is not a plain Python int.

    The interchange JSON distinguishes ``1`` from ``1.0`` and ``true``;
    an int column silently coercing either would break byte identity,
    so the writer refuses such datasets (the gzip interchange remains
    their only format).
    """

    def __init__(self, capacity: int = 1024) -> None:
        super().__init__(np.int64, capacity)

    def append(self, value) -> None:
        if type(value) is not int:
            raise ValueError(
                f"expected a plain int, got {type(value).__name__}: {value!r}"
            )
        super().append(value)


class _FloatColumn(ColumnBuffer):
    """float64 column that remembers which entries were typed as ints.

    JSON distinguishes ``5`` from ``5.0``; the indices of int-typed
    entries land in the manifest so decoding restores the exact type.
    """

    __slots__ = ("int_indices",)

    def __init__(self, capacity: int = 1024) -> None:
        super().__init__(np.float64, capacity)
        self.int_indices: list[int] = []

    def append(self, value) -> None:
        kind = type(value)
        if kind is int:
            self.int_indices.append(self._size)
        elif kind is not float:
            raise ValueError(
                f"expected int or float, got {type(value).__name__}: {value!r}"
            )
        super().append(value)


class _StringColumn(ColumnBuffer):
    """Fixed-width unicode column that re-widens as longer values arrive."""

    def __init__(self, width: int = 8, capacity: int = 1024) -> None:
        super().__init__(f"<U{max(width, 1)}", capacity)

    def append(self, value) -> None:
        if not isinstance(value, str):
            raise ValueError(
                f"expected str, got {type(value).__name__}: {value!r}"
            )
        width = self._data.dtype.itemsize // 4
        if len(value) > width:
            wide = np.empty(
                len(self._data), dtype=f"<U{max(len(value), 2 * width)}"
            )
            wide[: self._size] = self._data[: self._size]
            self._data = wide
        super().append(value)


class _BoolColumn(ColumnBuffer):
    def __init__(self, capacity: int = 1024) -> None:
        super().__init__(np.bool_, capacity)


# ----------------------------------------------------------------------
# Streaming writer
# ----------------------------------------------------------------------
class DatasetColumnWriter:
    """Streams one dataset, part by part, into pre-grown column buffers.

    Call ``add_block`` / ``add_snapshot`` / ``add_record`` as the pieces
    become available (blocks must arrive in chain order, records in
    their dict insertion order), then the ``set_*`` setters, then
    :meth:`save`.  Nothing is ever materialised twice: per-item rows go
    straight into typed buffers.
    """

    def __init__(self, name: str) -> None:
        self.name = str(name)
        # per block
        self._block_height = _IntColumn(256)
        self._block_timestamp = _FloatColumn(256)
        self._block_hash = _StringColumn(64, 256)
        self._cb_address = _StringColumn(16, 256)
        self._cb_value = _IntColumn(256)
        self._cb_marker = _StringColumn(8, 256)
        self._cb_vsize = _IntColumn(256)
        self._block_tx_start = ColumnBuffer(np.int64, 256)
        # per chain transaction
        self._ctx_txid = _StringColumn(64, 4096)
        self._ctx_fee = _IntColumn(4096)
        self._ctx_vsize = _IntColumn(4096)
        self._ctx_nonce = _IntColumn(4096)
        self._ctx_cpfp_child = _BoolColumn(4096)
        self._ctx_cpfp_parent = _BoolColumn(4096)
        self._ctx_in_start = ColumnBuffer(np.int64, 4096)
        self._ctx_out_start = ColumnBuffer(np.int64, 4096)
        self._in_txid = _StringColumn(64, 4096)
        self._in_index = _IntColumn(4096)
        self._out_address = _StringColumn(16, 4096)
        self._out_value = _IntColumn(4096)
        # snapshots
        self._snap_time = _FloatColumn(256)
        self._snap_start = ColumnBuffer(np.int64, 256)
        self._stx_txid = _StringColumn(64, 4096)
        self._stx_arrival = _FloatColumn(4096)
        self._stx_fee = _IntColumn(4096)
        self._stx_vsize = _IntColumn(4096)
        # tx records
        self._rec_txid = _StringColumn(64, 4096)
        self._rec_broadcast = _FloatColumn(4096)
        self._rec_arrival = _FloatColumn(4096)
        self._rec_has_arrival = _BoolColumn(4096)
        self._rec_fee = _IntColumn(4096)
        self._rec_vsize = _IntColumn(4096)
        self._rec_commit_height = _IntColumn(4096)
        self._rec_commit_position = _IntColumn(4096)
        self._rec_label_start = ColumnBuffer(np.int64, 4096)
        self._rec_label_id = ColumnBuffer(np.int64, 1024)
        self._label_ids: dict[str, int] = {}
        # attribution / series / metadata
        self._pool_vocab: dict[str, int] = {}
        self._bp_height = _IntColumn(256)
        self._bp_pool = ColumnBuffer(np.int64, 256)
        self._pool_wallets: dict[str, list[str]] = {}
        self._ss_time = _FloatColumn(256)
        self._ss_vsize = _IntColumn(256)
        self._ss_count = _IntColumn(256)
        self._has_size_series = False
        self._has_tx_counts = False
        self._metadata: dict = {}
        self._block_tx_start.append(0)
        self._ctx_in_start.append(0)
        self._ctx_out_start.append(0)
        self._snap_start.append(0)
        self._rec_label_start.append(0)

    # -- streamed parts -------------------------------------------------
    def add_block(self, block: Block) -> None:
        coinbase = block.coinbase
        self._block_height.append(block.height)
        self._block_timestamp.append(block.timestamp)
        self._block_hash.append(block.block_hash)
        self._cb_address.append(coinbase.outputs[0].address)
        self._cb_value.append(coinbase.outputs[0].value)
        self._cb_marker.append(coinbase.marker)
        self._cb_vsize.append(coinbase.vsize)
        children = find_cpfp_txids(block)
        parents = find_cpfp_parent_txids(block)
        for tx in block.transactions:
            self._ctx_txid.append(tx.txid)
            self._ctx_fee.append(tx.fee)
            self._ctx_vsize.append(tx.vsize)
            self._ctx_nonce.append(tx.nonce)
            self._ctx_cpfp_child.append(tx.txid in children)
            self._ctx_cpfp_parent.append(tx.txid in parents)
            for txin in tx.inputs:
                self._in_txid.append(txin.prevout.txid)
                self._in_index.append(txin.prevout.index)
            self._ctx_in_start.append(len(self._in_txid))
            for txout in tx.outputs:
                self._out_address.append(txout.address)
                self._out_value.append(txout.value)
            self._ctx_out_start.append(len(self._out_address))
        self._block_tx_start.append(len(self._ctx_txid))

    def add_snapshot(self, snapshot: MempoolSnapshot) -> None:
        self._snap_time.append(snapshot.time)
        for tx in snapshot.txs:
            self._stx_txid.append(tx.txid)
            self._stx_arrival.append(tx.arrival_time)
            self._stx_fee.append(tx.fee)
            self._stx_vsize.append(tx.vsize)
        self._snap_start.append(len(self._stx_txid))

    def add_record(self, record: TxRecord) -> None:
        self._rec_txid.append(record.txid)
        self._rec_broadcast.append(record.broadcast_time)
        if record.observer_arrival is None:
            self._rec_has_arrival.append(False)
            # Placeholder keeps the column aligned without touching the
            # int-typed bookkeeping.
            ColumnBuffer.append(self._rec_arrival, 0.0)
        else:
            self._rec_has_arrival.append(True)
            self._rec_arrival.append(record.observer_arrival)
        self._rec_fee.append(record.fee)
        self._rec_vsize.append(record.vsize)
        self._rec_commit_height.append(
            _NULL_INT if record.commit_height is None else record.commit_height
        )
        self._rec_commit_position.append(
            _NULL_INT
            if record.commit_position is None
            else record.commit_position
        )
        for label in sorted(record.labels):
            if not isinstance(label, str):
                raise ValueError(f"labels must be strings, got {label!r}")
            self._rec_label_id.append(
                self._label_ids.setdefault(label, len(self._label_ids))
            )
        self._rec_label_start.append(len(self._rec_label_id))

    # -- whole-dataset attributes ---------------------------------------
    def set_block_pools(self, block_pools: dict) -> None:
        for height, pool in block_pools.items():
            if type(height) is not int or not isinstance(pool, str):
                raise ValueError(
                    f"block_pools must map int -> str, got {height!r}: {pool!r}"
                )
            self._bp_height.append(height)
            self._bp_pool.append(
                self._pool_vocab.setdefault(pool, len(self._pool_vocab))
            )

    def set_pool_wallets(self, pool_wallets: dict) -> None:
        self._pool_wallets = {
            str(pool): sorted(str(w) for w in wallets)
            for pool, wallets in pool_wallets.items()
        }

    def set_size_series(self, series: Optional[SizeSeries]) -> None:
        if series is None:
            return
        self._has_size_series = True
        counts = series.tx_counts()
        self._has_tx_counts = counts is not None
        for time in series.times:
            self._ss_time.append(time)
        for vsize in series.sizes():
            self._ss_vsize.append(vsize)
        for count in counts or ():
            self._ss_count.append(count)

    def set_metadata(self, metadata: dict) -> None:
        self._metadata = metadata

    # -- finish ---------------------------------------------------------
    def _finish_labels(self) -> tuple[list[str], np.ndarray]:
        """Sorted label vocabulary + per-record ids remapped onto it.

        Ids were assigned by first appearance while streaming; the
        stored vocabulary is sorted, so ids are remapped and re-sorted
        *within* each record's segment (segments are contiguous, so a
        segment-major lexsort leaves the offsets valid).
        """
        vocab = sorted(self._label_ids)
        ids = self._rec_label_id.finish()
        if not len(ids):
            return vocab, ids
        remap = np.empty(len(vocab), dtype=np.int64)
        for new_id, label in enumerate(vocab):
            remap[self._label_ids[label]] = new_id
        ids = remap[ids]
        starts = self._rec_label_start.finish()
        segment = np.searchsorted(starts, np.arange(len(ids)), side="right")
        order = np.lexsort((ids, segment))
        return vocab, ids[order]

    def arrays(self) -> tuple[dict[str, np.ndarray], dict]:
        """(column arrays, manifest) ready for :func:`_write_npz`."""
        label_vocab, label_ids = self._finish_labels()
        int_typed = {
            name: column.int_indices
            for name, column in (
                ("block_timestamp", self._block_timestamp),
                ("snap_time", self._snap_time),
                ("stx_arrival", self._stx_arrival),
                ("rec_broadcast", self._rec_broadcast),
                ("rec_arrival", self._rec_arrival),
                ("ss_time", self._ss_time),
            )
            if column.int_indices
        }
        manifest = {
            "columnar_version": COLUMNAR_FORMAT_VERSION,
            "schema_version": FORMAT_VERSION,
            "name": self.name,
            "counts": {
                "blocks": len(self._block_height),
                "chain_txs": len(self._ctx_txid),
                "inputs": len(self._in_txid),
                "outputs": len(self._out_address),
                "snapshots": len(self._snap_time),
                "snapshot_txs": len(self._stx_txid),
                "records": len(self._rec_txid),
                "labels": len(label_ids),
                "block_pools": len(self._bp_height),
                "size_points": len(self._ss_time),
            },
            "pool_vocab": list(self._pool_vocab),
            "pool_wallets": self._pool_wallets,
            "label_vocab": label_vocab,
            "has_size_series": self._has_size_series,
            "has_tx_counts": self._has_tx_counts,
            "int_typed": int_typed,
            "metadata": self._metadata,
        }
        columns = {
            "block_height": self._block_height.finish(),
            "block_timestamp": self._block_timestamp.finish(),
            "block_hash": self._block_hash.finish(),
            "block_cb_address": self._cb_address.finish(),
            "block_cb_value": self._cb_value.finish(),
            "block_cb_marker": self._cb_marker.finish(),
            "block_cb_vsize": self._cb_vsize.finish(),
            "block_tx_start": self._block_tx_start.finish(),
            "ctx_txid": self._ctx_txid.finish(),
            "ctx_fee": self._ctx_fee.finish(),
            "ctx_vsize": self._ctx_vsize.finish(),
            "ctx_nonce": self._ctx_nonce.finish(),
            "ctx_cpfp_child": self._ctx_cpfp_child.finish(),
            "ctx_cpfp_parent": self._ctx_cpfp_parent.finish(),
            "ctx_in_start": self._ctx_in_start.finish(),
            "ctx_out_start": self._ctx_out_start.finish(),
            "in_txid": self._in_txid.finish(),
            "in_index": self._in_index.finish(),
            "out_address": self._out_address.finish(),
            "out_value": self._out_value.finish(),
            "snap_time": self._snap_time.finish(),
            "snap_start": self._snap_start.finish(),
            "stx_txid": self._stx_txid.finish(),
            "stx_arrival": self._stx_arrival.finish(),
            "stx_fee": self._stx_fee.finish(),
            "stx_vsize": self._stx_vsize.finish(),
            "rec_txid": self._rec_txid.finish(),
            "rec_broadcast": self._rec_broadcast.finish(),
            "rec_arrival": self._rec_arrival.finish(),
            "rec_has_arrival": self._rec_has_arrival.finish(),
            "rec_fee": self._rec_fee.finish(),
            "rec_vsize": self._rec_vsize.finish(),
            "rec_commit_height": self._rec_commit_height.finish(),
            "rec_commit_position": self._rec_commit_position.finish(),
            "rec_label_start": self._rec_label_start.finish(),
            "rec_label_id": label_ids,
            "block_pool_height": self._bp_height.finish(),
            "block_pool_id": self._bp_pool.finish(),
            "ss_time": self._ss_time.finish(),
            "ss_vsize": self._ss_vsize.finish(),
            "ss_count": self._ss_count.finish(),
        }
        return columns, manifest

    def save(self, path: Union[str, Path]) -> Path:
        columns, manifest = self.arrays()
        return _write_npz(path, columns, manifest)


def save_columnar(dataset: Dataset, path: Union[str, Path]) -> Path:
    """Atomically write ``dataset`` as a columnar npz.

    Deterministic like the gzip writer: fixed member order, fixed zip
    timestamps, stored (uncompressed) members — the same dataset always
    produces the same bytes, and every column stays memory-mappable.
    """
    writer = DatasetColumnWriter(dataset.name)
    for block in dataset.chain:
        writer.add_block(block)
    for snapshot in dataset.snapshots:
        writer.add_snapshot(snapshot)
    for record in dataset.tx_records.values():
        writer.add_record(record)
    writer.set_block_pools(dataset.block_pools)
    writer.set_pool_wallets(dataset.pool_wallets)
    writer.set_size_series(dataset.size_series)
    writer.set_metadata(dataset.metadata)
    return writer.save(path)


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
