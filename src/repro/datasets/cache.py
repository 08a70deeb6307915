"""Content-addressed persistent dataset cache.

The paper's pipeline (§3) separates one-time data collection from the
repeated analyses that consume it; this module gives the reproduction
the same split.  Simulated datasets are expensive to build but are pure
functions of *(builder, scale, seed, dataset-schema version)* — so that
tuple is the cache key, hashed into a content address, and the built
dataset is persisted under it with the atomic deterministic writer from
:mod:`repro.datasets.io`.  Warm runs skip simulation entirely.

Concurrency: parallel experiment workers may want the same dataset at
the same time.  A sidecar *lockfile* (``O_CREAT | O_EXCL``) elects the
first builder; everyone else polls until the artifact appears and loads
it, so each dataset is simulated at most once per cache directory no
matter how many processes race.  Because :func:`~repro.datasets.io.save_dataset`
renames the finished file into place, a waiter never observes a
half-written dataset.

Each entry is a *pair* of files: the columnar, memory-mappable npz
sidecar (the hot path ``ChainArrays`` loads zero-copy) written first,
and the gzip-JSON interchange artifact written last as the completion
marker.  Loads prefer the sidecar; a torn or truncated sidecar is
evicted and re-healed from the interchange file transparently.

Corrupt cache entries (truncated files, stale schema) are treated as
misses and rebuilt, never propagated.

Stale locks: the elected builder records its PID in the lockfile.  A
waiter that can *prove* the recorded holder is dead (the PID parses and
``kill -0`` reports no such process) reclaims the lock after a bounded
grace period and re-elects, instead of burning the whole lock timeout.
Locks whose content does not parse as a PID are never reclaimed — the
holder may be a foreign writer we cannot reason about — so the old
timeout-then-build-locally fallback still backstops correctness.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

from .. import obs
from .columnar import (
    COLUMNAR_FORMAT_VERSION,
    ColumnStore,
    columnar_sidecar,
    load_columnar,
    save_columnar,
)
from .dataset import Dataset
from .io import FORMAT_VERSION, DatasetCorruptionError, load_dataset, save_dataset

#: Default on-disk location, overridable via ``REPRO_AUDIT_CACHE_DIR``.
DEFAULT_CACHE_DIR = Path(
    os.environ.get("REPRO_AUDIT_CACHE_DIR", "~/.cache/repro-audit")
).expanduser()

#: How long a waiter polls for another process's build before giving up
#: and building locally (seconds).
DEFAULT_LOCK_TIMEOUT = 900.0

#: Poll cadence while waiting on another builder (seconds).
DEFAULT_POLL_INTERVAL = 0.05

#: How long a lock naming a *dead* PID must stay dead before a waiter
#: reclaims it (seconds).  The grace bounds the damage of PID reuse and
#: of observing a lock mid-write.
DEFAULT_STALE_LOCK_GRACE = 1.0


@dataclass(frozen=True)
class CacheKey:
    """Identity of one cached dataset: the inputs that determine it.

    Both format versions participate: ``schema_version`` pins the
    gzip-JSON interchange layout and ``columnar_version`` pins the npz
    sidecar layout.  An entry is the *pair* of files, so a bump to
    either version must miss — otherwise a new reader could stale-hit
    (and mmap garbage out of) a sidecar written by an older writer.
    """

    builder: str
    scale: float
    seed: int
    schema_version: int = FORMAT_VERSION
    columnar_version: int = COLUMNAR_FORMAT_VERSION

    def digest(self) -> str:
        """Content address: a stable hash of the key tuple."""
        payload = json.dumps(
            [
                self.builder,
                repr(float(self.scale)),
                int(self.seed),
                int(self.schema_version),
                int(self.columnar_version),
            ],
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def filename(self) -> str:
        """Cache file name: human-readable prefix + content address."""
        safe = re.sub(r"[^A-Za-z0-9._-]+", "_", self.builder)
        return (
            f"{safe}-scale{float(self.scale):g}-seed{self.seed}"
            f"-v{self.schema_version}.{self.columnar_version}"
            f"-{self.digest()}.json.gz"
        )


@dataclass
class CacheStats:
    """Counters for one cache instance's lifetime."""

    hits: int = 0
    misses: int = 0
    builds: int = 0
    lock_waits: int = 0
    evictions: int = 0
    stale_reclaims: int = 0

    def snapshot(self) -> "CacheStats":
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            builds=self.builds,
            lock_waits=self.lock_waits,
            evictions=self.evictions,
            stale_reclaims=self.stale_reclaims,
        )

    def delta(self, before: "CacheStats") -> "CacheStats":
        """Counters accumulated since ``before`` was snapshotted."""
        return CacheStats(
            hits=self.hits - before.hits,
            misses=self.misses - before.misses,
            builds=self.builds - before.builds,
            lock_waits=self.lock_waits - before.lock_waits,
            evictions=self.evictions - before.evictions,
            stale_reclaims=self.stale_reclaims - before.stale_reclaims,
        )

    def summary(self) -> str:
        return (
            f"{self.hits} hit(s), {self.misses} miss(es), "
            f"{self.builds} build(s)"
        )


def _write_sidecar(dataset: Dataset, sidecar: Path) -> None:
    """Write (or re-heal) the columnar sidecar and attach its store.

    Datasets the columnar writer refuses — e.g. float-typed values in
    integer columns, which could not round-trip byte-identically — stay
    gzip-only; the interchange file remains authoritative.
    """
    try:
        save_columnar(dataset, sidecar)
    except (ValueError, OverflowError, OSError):
        obs.counter("cache.sidecar_skipped")
        return
    try:
        store = ColumnStore(sidecar)
        if store.matches(dataset):
            dataset.columnar = store
    except (DatasetCorruptionError, OSError):
        pass


def write_entry(dataset: Dataset, path: Path) -> Path:
    """Persist ``dataset`` as the entry at ``path`` (atomic, deterministic).

    The columnar sidecar goes down first, the gzip-JSON interchange
    last: readers treat the gzip artifact as the completion marker, so
    no process can observe an entry whose sidecar is still missing or
    half-written.  A dataset the columnar writer refuses is stored
    gzip-only.
    """
    _write_sidecar(dataset, columnar_sidecar(path))
    return save_dataset(dataset, path)


class DatasetCache:
    """On-disk dataset store keyed by :class:`CacheKey`.

    ``get_or_build`` is the whole API surface most callers need: it
    returns the cached dataset when present, otherwise elects a builder
    via the lockfile protocol and persists the result.
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        lock_timeout: float = DEFAULT_LOCK_TIMEOUT,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        stale_lock_grace: float = DEFAULT_STALE_LOCK_GRACE,
    ) -> None:
        self.directory = Path(directory or DEFAULT_CACHE_DIR).expanduser()
        self.lock_timeout = lock_timeout
        self.poll_interval = poll_interval
        self.stale_lock_grace = stale_lock_grace
        self.stats = CacheStats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DatasetCache({str(self.directory)!r})"

    def path_for(self, key: CacheKey) -> Path:
        return self.directory / key.filename()

    def _evict(self, path: Path) -> None:
        """Drop one corrupt file; a corrupt entry is a miss, not an error."""
        self.stats.evictions += 1
        obs.counter("cache.evictions")
        try:
            path.unlink()
        except OSError:
            pass

    def _load(self, path: Path) -> Optional[Dataset]:
        """Load the entry at ``path`` if valid; evict what is corrupt.

        The gzip-JSON artifact is the entry's *completion marker* (it is
        written last), so its absence is a miss even when a sidecar
        exists.  A present entry loads through the memory-mapped sidecar
        when possible; a torn or truncated sidecar is evicted and the
        entry falls back to the gzip interchange, which also re-heals
        the sidecar for the next load.  Only when both files are
        unreadable does the entry count as gone.
        """
        with obs.span("cache.load"):
            if not path.exists():
                return None
            sidecar = columnar_sidecar(path)
            if sidecar.exists():
                try:
                    return load_columnar(sidecar)
                except DatasetCorruptionError:
                    self._evict(sidecar)
            try:
                dataset = load_dataset(path)
            except DatasetCorruptionError:
                self._evict(path)
                if sidecar.exists():
                    # Without its completion marker the sidecar is dead
                    # weight; drop it so the entry rebuilds cleanly.
                    try:
                        sidecar.unlink()
                    except OSError:
                        pass
                return None
            _write_sidecar(dataset, sidecar)
            return dataset

    def load(self, key: CacheKey) -> Optional[Dataset]:
        """The cached dataset for ``key``, or None on a miss."""
        dataset = self._load(self.path_for(key))
        if dataset is None:
            self.stats.misses += 1
            obs.counter("cache.misses")
        else:
            self.stats.hits += 1
            obs.counter("cache.hits")
        return dataset

    def store(self, key: CacheKey, dataset: Dataset) -> Path:
        """Persist ``dataset`` under ``key`` through :func:`write_entry`."""
        return write_entry(dataset, self.path_for(key))

    def get_or_build(
        self, key: CacheKey, build: Callable[[], Dataset]
    ) -> Dataset:
        """Fetch ``key`` from disk, or build-and-store it exactly once.

        When several processes ask for the same key concurrently, the
        first to create the sidecar lockfile simulates; the rest wait
        for the artifact and load it.  If the elected builder dies (its
        lock disappears without an artifact) a waiter takes over; if
        the wait times out the caller builds locally — correctness is
        never contingent on the lock.
        """
        path = self.path_for(key)
        dataset = self._load(path)
        if dataset is not None:
            self.stats.hits += 1
            obs.counter("cache.hits")
            return dataset
        self.stats.misses += 1
        obs.counter("cache.misses")
        self.directory.mkdir(parents=True, exist_ok=True)
        lock = path.with_name(path.name + ".lock")
        deadline = time.monotonic() + self.lock_timeout
        while True:
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                waited = self._wait_for_builder(path, lock, deadline)
                if waited is not None:
                    self.stats.lock_waits += 1
                    self.stats.hits += 1
                    obs.counter("cache.lock_waits")
                    obs.counter("cache.hits")
                    return waited
                if time.monotonic() >= deadline:
                    # Lock holder is stuck; build locally without it.
                    self.stats.builds += 1
                    obs.counter("cache.builds")
                    with obs.span("cache.build"):
                        dataset = build()
                    self.store(key, dataset)
                    return dataset
                continue  # lock vanished without an artifact: re-elect
            try:
                os.write(fd, str(os.getpid()).encode("ascii"))
            finally:
                os.close(fd)
            try:
                # Re-check: the artifact may have landed between our
                # miss and winning the lock.
                dataset = self._load(path)
                if dataset is not None:
                    self.stats.hits += 1
                    obs.counter("cache.hits")
                    return dataset
                self.stats.builds += 1
                obs.counter("cache.builds")
                with obs.span("cache.build"):
                    dataset = build()
                self.store(key, dataset)
                return dataset
            finally:
                try:
                    lock.unlink()
                except FileNotFoundError:
                    pass

    def _wait_for_builder(
        self, path: Path, lock: Path, deadline: float
    ) -> Optional[Dataset]:
        """Poll until the elected builder's artifact appears.

        Returns the loaded dataset, or None when the lock disappeared
        without an artifact (builder died) or the deadline passed.

        A lock whose recorded PID is verifiably dead is *reclaimed*
        (unlinked) once it has stayed dead for ``stale_lock_grace``
        seconds, so a crashed builder costs one grace period instead of
        the full lock timeout.  Unparseable lock content is left alone.
        """
        stale_since: Optional[float] = None
        while time.monotonic() < deadline:
            if path.exists():
                dataset = self._load(path)
                if dataset is not None:
                    return dataset
            if not lock.exists():
                # Builder exited.  One final check for its artifact.
                dataset = self._load(path)
                return dataset
            if self._lock_holder_dead(lock):
                if stale_since is None:
                    stale_since = time.monotonic()
                elif time.monotonic() - stale_since >= self.stale_lock_grace:
                    # Holder stayed dead for the whole grace: reclaim.
                    try:
                        lock.unlink()
                    except FileNotFoundError:
                        pass  # another waiter reclaimed it first
                    self.stats.stale_reclaims += 1
                    obs.counter("cache.stale_reclaims")
                    return self._load(path)
            else:
                stale_since = None
            time.sleep(self.poll_interval)
        return None

    @staticmethod
    def _lock_holder_dead(lock: Path) -> bool:
        """True only when the lock names a PID that provably no longer runs.

        Anything ambiguous — unreadable lock, non-numeric content, a
        live process, or one we lack permission to signal — counts as
        alive, so reclamation can never steal a lock from a holder that
        might still finish.
        """
        try:
            text = lock.read_text().strip()
        except OSError:
            return False
        if not text.isdigit():
            return False
        pid = int(text)
        if pid <= 0:
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except PermissionError:
            return False  # exists under another uid: alive
        except OSError:
            return False
        return False

    def clear(self) -> int:
        """Delete every cache entry (and stray lock); returns the count."""
        removed = 0
        if not self.directory.exists():
            return removed
        for entry in self.directory.iterdir():
            if (
                entry.suffix == ".lock"
                or entry.name.endswith(".json.gz")
                or entry.name.endswith(".npz")
            ):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
