"""Write-ahead journal of applied blocks with checkpoint compaction.

Durability contract
-------------------
Every block the service *applies* is first appended to the journal and
fsync'd; only then does it fold into the accumulators.  On restart the
journal is replayed through the same fold path, so recovered state is
byte-identical to the pre-crash state — the fold is deterministic and
the journal preserves application order.

Frame format (little-endian)::

    MAGIC "RAWJ" | u32 version          -- file header, written once
    u32 length | payload | u32 crc32    -- one frame per applied block

The payload is the compact-JSON encoding of ``{"h": height, "p": pool,
"b": block}`` with the block in the dataset wire format
(:mod:`repro.datasets.io`), so journal entries and dataset files can
never drift apart.

Failure handling:

* a **torn tail** (crash mid-append) is detected by the length/CRC
  framing, truncated away, and counted — everything before it is kept;
* **corruption anywhere else** (bad magic, CRC mismatch followed by
  more data) raises :class:`WalCorruptionError` — silently auditing on
  top of a damaged journal is the one unacceptable outcome;
* **compaction** folds the journal into an atomic fsync'd gzip-JSON
  checkpoint (written to ``<path>.tmp`` and moved into place with
  :func:`os.replace`) and truncates the journal, bounding replay time.  A crash between those two steps is
  benign: replay skips entries at or below the checkpoint height, which
  also makes re-delivery of already-applied blocks idempotent.
"""

from __future__ import annotations

import gzip
import json
import os
import struct
import zlib
from pathlib import Path
from typing import Optional, Union

from .. import obs
from ..chain.block import Block
from ..datasets.io import _decode_block, _encode_block

MAGIC = b"RAWJ"
VERSION = 1
_HEADER = MAGIC + struct.pack("<I", VERSION)
_U32 = struct.Struct("<I")

#: A frame larger than this is treated as corruption, not a real block.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class WalCorruptionError(RuntimeError):
    """The journal is damaged beyond a torn tail; refuse to audit on it."""


def _write_checkpoint(path: Path, payload: dict) -> None:
    """Atomically and durably persist ``payload`` as gzip-JSON at ``path``.

    The payload is forced to disk before the rename and the directory
    entry after it, so a crash mid-write leaves the previous checkpoint
    in place and a finished write survives a crash of the machine.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with gzip.open(tmp, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    finally:
        if tmp.exists():
            tmp.unlink()


def _load_checkpoint(path: Path) -> Optional[dict]:
    """Read a checkpoint, or None when no file exists.

    A present-but-unreadable checkpoint raises
    :class:`WalCorruptionError` rather than silently recovering to an
    empty history.
    """
    if not path.exists():
        return None
    try:
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (EOFError, OSError, ValueError, UnicodeDecodeError, zlib.error) as exc:
        raise WalCorruptionError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise WalCorruptionError(f"checkpoint {path} is not a JSON object")
    return payload


def encode_entry(height: int, pool: str, block: Block) -> dict:
    """Journal payload for one applied block (dataset wire format)."""
    return {"h": height, "p": pool, "b": _encode_block(block)}


def decode_entry_block(entry: dict, prev_hash: str) -> Block:
    """Rebuild the Block of a journal entry on top of ``prev_hash``."""
    return _decode_block(entry["b"], prev_hash)


class BlockJournal:
    """Append-only WAL + checkpoint pair under one directory."""

    def __init__(self, directory: Union[str, Path], fsync: bool = True) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.wal_path = self.directory / "blocks.wal"
        self.checkpoint_path = self.directory / "blocks.ckpt.gz"
        self._fsync = fsync
        self._handle = None
        #: Frames dropped as a torn tail during the last recovery.
        self.torn_frames_dropped = 0

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def _open_for_append(self):
        if self._handle is None:
            if not self.wal_path.exists():
                self._write_header()
            self._handle = open(self.wal_path, "ab")
        return self._handle

    def _write_header(self) -> None:
        with open(self.wal_path, "wb") as handle:
            handle.write(_HEADER)
            handle.flush()
            os.fsync(handle.fileno())

    def append(self, entry: dict) -> None:
        """Durably append one entry; returns only after the fsync."""
        payload = json.dumps(entry, separators=(",", ":")).encode("utf-8")
        frame = (
            _U32.pack(len(payload))
            + payload
            + _U32.pack(zlib.crc32(payload) & 0xFFFFFFFF)
        )
        handle = self._open_for_append()
        handle.write(frame)
        handle.flush()
        if self._fsync:
            os.fsync(handle.fileno())
        obs.counter("service.wal.appends")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _read_frames(self) -> list[dict]:
        """All intact frames; truncates a torn tail in place."""
        self.torn_frames_dropped = 0
        if not self.wal_path.exists():
            return []
        data = self.wal_path.read_bytes()
        if len(data) < len(_HEADER):
            # The file exists but even the header is torn: recover to
            # an empty journal rather than guessing at frame offsets.
            self._truncate_to(0, kept=0)
            return []
        if data[: len(MAGIC)] != MAGIC:
            raise WalCorruptionError(
                f"{self.wal_path}: bad magic {data[:4]!r}"
            )
        version = _U32.unpack_from(data, len(MAGIC))[0]
        if version != VERSION:
            raise WalCorruptionError(
                f"{self.wal_path}: unsupported WAL version {version}"
            )
        entries: list[dict] = []
        offset = len(_HEADER)
        good_end = offset
        while offset < len(data):
            frame = self._parse_frame(data, offset)
            if frame is None:
                break  # torn tail: everything before good_end is kept
            entry, offset = frame
            entries.append(entry)
            good_end = offset
        if good_end < len(data):
            self.torn_frames_dropped = 1
            obs.counter("service.wal.torn_tail_dropped")
            self._truncate_to(good_end, kept=len(entries))
        return entries

    def _parse_frame(self, data: bytes, offset: int):
        """One frame at ``offset``, or None when the tail is torn."""
        if offset + _U32.size > len(data):
            return None
        (length,) = _U32.unpack_from(data, offset)
        if length > MAX_FRAME_BYTES:
            return None
        end = offset + _U32.size + length + _U32.size
        if end > len(data):
            return None
        payload = data[offset + _U32.size : offset + _U32.size + length]
        (crc,) = _U32.unpack_from(data, end - _U32.size)
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            if end < len(data):
                # Bad CRC *followed by more data* is not a torn append —
                # the middle of the journal rotted.
                raise WalCorruptionError(
                    f"{self.wal_path}: CRC mismatch at offset {offset} "
                    "with trailing data"
                )
            return None
        try:
            entry = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            if end < len(data):
                raise WalCorruptionError(
                    f"{self.wal_path}: undecodable frame at offset {offset}"
                )
            return None
        return entry, end

    def _truncate_to(self, size: int, kept: int) -> None:
        self.close()
        if size == 0:
            self._write_header()
            return
        with open(self.wal_path, "r+b") as handle:
            handle.truncate(size)
            handle.flush()
            os.fsync(handle.fileno())

    def recover(self) -> list[dict]:
        """Checkpointed entries + surviving journal frames, in order.

        Journal frames at or below the checkpoint height are skipped —
        the compaction crash window re-delivers them — so replaying the
        returned list is always gap-free and duplicate-free.
        """
        checkpoint = _load_checkpoint(self.checkpoint_path)
        entries: list[dict] = []
        applied = -1
        if checkpoint is not None:
            if checkpoint.get("version") != VERSION:
                raise WalCorruptionError(
                    f"{self.checkpoint_path}: unsupported checkpoint version"
                )
            entries = list(checkpoint["entries"])
            applied = entries[-1]["h"] if entries else -1
        for entry in self._read_frames():
            if entry["h"] <= applied:
                continue  # idempotent replay across the compaction window
            if entry["h"] != applied + 1:
                raise WalCorruptionError(
                    f"{self.wal_path}: journal gap — expected height "
                    f"{applied + 1}, found {entry['h']}"
                )
            entries.append(entry)
            applied = entry["h"]
        obs.counter("service.wal.recovered_entries", len(entries))
        return entries

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self, entries: list[dict]) -> None:
        """Fold ``entries`` (every applied block) into the checkpoint.

        The checkpoint lands atomically and fsync'd *before* the journal
        truncates; a crash between the two only widens the idempotent
        replay window.
        """
        _write_checkpoint(
            self.checkpoint_path, {"version": VERSION, "entries": entries}
        )
        self._truncate_to(0, kept=0)
        obs.counter("service.checkpoints")
