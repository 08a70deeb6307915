"""The streaming audit service: HTTP facade over a StreamingAuditor.

Robustness posture (the binding constraint for a long-running audit):

* **Crash safety** — every applied block goes through the
  :class:`~repro.service.wal.BlockJournal` (fsync'd append *before* the
  fold), so ``kill -9`` anywhere resumes to byte-identical accumulator
  state by replaying the journal through the same fold path.
* **Backpressure, never silent drops** — ingest lands in a bounded
  queue; a full queue answers 503 with an explicit ``retry_after``
  instead of shedding blocks silently.  Duplicates ack cheaply and
  gaps are rejected with the expected height, which together make
  client retries idempotent.
* **Deadlines** — queries take the accumulator lock with a timeout and
  answer 503 ``deadline_exceeded`` rather than queueing unboundedly
  behind a slow fold.
* **Qualified answers only** — every data-bearing response carries an
  ``annotation`` block with the measured
  :class:`~repro.faults.quality.DataQualityReport` and stream progress;
  a gappy observer (injected via ``repro.faults``) degrades answers, it
  never silently un-qualifies them.

The per-question payloads (:func:`tx_answer`, :func:`pool_answer`,
:func:`audit_answer`) are pure functions of an :class:`Auditor`, shared
verbatim by the chaos harness to compare a recovered service against
the batch oracle.
"""

from __future__ import annotations

import json
import math
import queue
import threading
import urllib.parse
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional, Union

from .. import obs
from ..core.audit import Auditor, StreamingAuditor
from ..core.ppe import summarize_ppe
from ..core.ppe import predictions_for
from ..datasets.columnar import load_dataset_file
from ..datasets.dataset import Dataset
from ..datasets.gcpolicy import gc_paused
from .wal import BlockJournal, decode_entry_block, encode_entry

#: Suggested client wait when the ingest queue is full, in seconds.
RETRY_AFTER_SECONDS = 0.1

#: Default per-request deadline for accumulator-locked queries.
DEFAULT_DEADLINE_SECONDS = 10.0


class DeadlineExceeded(RuntimeError):
    """The request could not take the accumulator lock in time."""


# ----------------------------------------------------------------------
# Canonical answer payloads (shared with the batch-oracle comparisons)
# ----------------------------------------------------------------------
def _json_float(value: float) -> Optional[float]:
    """NaN → None: JSON round-trips every other float exactly via repr."""
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _test_payload(test) -> dict:
    return {
        "pool": test.pool,
        "theta0": _json_float(test.theta0),
        "x": test.x,
        "y": test.y,
        "p_accelerate": _json_float(test.p_accelerate),
        "p_decelerate": _json_float(test.p_decelerate),
        "coverage": _json_float(test.coverage),
    }


def tx_answer(auditor: Auditor, txid: str) -> dict:
    """Everything the audit knows about one transaction.

    Pure function of auditor state: the chaos harness evaluates it on
    the batch oracle and on the recovered service and requires equality.
    """
    dataset = auditor.dataset
    record = dataset.tx_records.get(txid)
    location = dataset.chain.location_of(txid)
    answer: dict = {
        "txid": txid,
        "observed": record is not None and record.observed,
        "committed": location is not None,
    }
    if record is not None:
        answer["fee_rate"] = _json_float(record.fee_rate)
        answer["labels"] = sorted(record.labels)
    if location is None:
        return answer
    height = location.height
    pool = dataset.pool_of(height)
    answer["commit_height"] = height
    answer["commit_position"] = location.position
    answer["pool"] = pool
    prediction = next(
        (
            p
            for p in predictions_for(dataset.chain[height])
            if p.txid == txid
        ),
        None,
    )
    if prediction is not None:
        # CPFP children carry no prediction: their off-norm position is
        # legitimate, so the answer simply omits the error fields.
        answer["predicted_rank"] = _json_float(prediction.predicted_rank)
        answer["observed_rank"] = _json_float(prediction.observed_rank)
        answer["signed_error"] = _json_float(prediction.signed_error)
    if pool is not None:
        answer["test"] = _test_payload(
            auditor.prioritization_test_for(pool, [txid])
        )
    return answer


def pool_answer(auditor: Auditor, pool: str) -> dict:
    """One pool's neutrality evidence at the current chain state."""
    dataset = auditor.dataset
    blocks = {est.pool: est.blocks for est in dataset.hash_rates()}
    summary = summarize_ppe(auditor.ppe_by_pool([pool])[pool])
    answer: dict = {
        "pool": pool,
        "blocks": blocks.get(pool, 0),
        "share": _json_float(dataset.hash_rate_of(pool)),
        "ppe": {
            "block_count": summary.block_count,
            "mean": _json_float(summary.mean),
            "median": _json_float(summary.median),
            "percentile_80": _json_float(summary.percentile_80),
        },
    }
    txids = dataset.inferred_self_interest_txids_indexed(pool)
    answer["self_interest"] = {
        "tx_count": len(txids),
        "test": _test_payload(auditor.prioritization_test_for(pool, txids)),
        "sppe": _json_float(auditor.sppe_value(pool, txids)),
    }
    return answer


def audit_answer(auditor: Auditor, snapshot_count: int = 10) -> dict:
    """The full :meth:`Auditor.audit` report as a canonical JSON dict."""
    report = auditor.audit(snapshot_count=snapshot_count)
    return {
        "quality": report.quality.summary(),
        "ppe": None if report.ppe is None else asdict(report.ppe),
        "delay": None if report.delay is None else asdict(report.delay),
        "violations": [asdict(stats) for stats in report.violations],
        "self_interest": [
            {
                "owner_pool": row.owner_pool,
                "target_pool": row.target_pool,
                "test": _test_payload(row.test),
                "sppe": _json_float(row.sppe),
                "tx_count": row.tx_count,
            }
            for row in report.self_interest
        ],
        "scam": [
            {
                "pool": row.pool,
                "test": _test_payload(row.test),
                "sppe": _json_float(row.sppe),
            }
            for row in report.scam
        ],
        "congested_fraction": _json_float(report.congested_fraction),
        "notes": list(report.notes),
    }


# ----------------------------------------------------------------------
# The service core
# ----------------------------------------------------------------------
class AuditService:
    """Streaming auditor + WAL + bounded ingest queue, transport-free.

    All accumulator access is serialised by ``_state_lock``; the single
    applier thread holds it per fold, queries take it with a deadline.
    Admission control runs under the separate ``_admit_lock`` so a slow
    fold cannot block the cheap duplicate/gap/overload answers.
    """

    def __init__(
        self,
        dataset: Dataset,
        wal_dir: Union[str, Path],
        queue_size: int = 64,
        checkpoint_every: int = 64,
        fsync: bool = True,
    ) -> None:
        self.auditor = StreamingAuditor.from_dataset(dataset)
        self.journal = BlockJournal(wal_dir, fsync=fsync)
        self.checkpoint_every = checkpoint_every
        self.queue: queue.Queue = queue.Queue(maxsize=queue_size)
        self.queue_capacity = queue_size
        self.ready = threading.Event()
        self._unpaused = threading.Event()
        self._unpaused.set()
        self._stop = threading.Event()
        self._state_lock = threading.Lock()
        self._admit_lock = threading.Lock()
        self._applied_entries: list[dict] = []
        self._since_checkpoint = 0
        self._last_enqueued = -1
        self._applier: Optional[threading.Thread] = None

    @classmethod
    def from_dataset_file(cls, path: Union[str, Path], **kwargs) -> "AuditService":
        """Build from a saved dataset's *observer context*.

        ``path`` is a gzip-JSON dataset or its columnar ``.npz``; a
        gzip path loads through its intact columnar twin when one sits
        next to it (:func:`repro.datasets.columnar.load_dataset_file`).
        The file's chain is deliberately ignored — blocks must arrive
        through ingest, which is what makes replay provable — so a twin
        load never decodes it.  The context (snapshots and tx records)
        lives as long as the service, so it is decoded here, with the
        collector paused, and then frozen (see
        :mod:`repro.datasets.gcpolicy`); a twin whose decode fails
        falls back to the gzip.  A traced run charges this to the
        ``service.load`` span.
        """
        with obs.span("service.load"), gc_paused(freeze=True):
            dataset = load_dataset_file(path, parts=("snapshots", "tx_records"))
        return cls(dataset, **kwargs)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def recover(self) -> int:
        """Replay the journal through the fold path; marks ready."""
        with obs.span("service.recover"):
            entries = self.journal.recover()
            with self._state_lock:
                for entry in entries:
                    self._fold_entry(entry)
        with self._admit_lock:
            self._last_enqueued = self.applied_height
        self.ready.set()
        self._applier = threading.Thread(
            target=self._apply_loop, name="audit-applier", daemon=True
        )
        self._applier.start()
        return len(entries)

    def stop(self) -> None:
        self._stop.set()
        self._unpaused.set()
        self.queue.put(None)  # wake the applier
        if self._applier is not None:
            self._applier.join(timeout=5.0)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    @property
    def applied_height(self) -> int:
        return self.auditor.applied_height

    def submit(self, entry: dict) -> tuple[str, dict]:
        """Admission control for one ingest entry; never blocks on folds.

        Returns (status, detail) where status is one of ``queued``,
        ``duplicate``, ``gap``, ``overloaded``, ``recovering``.
        """
        if not self.ready.is_set():
            return "recovering", {"retry_after": RETRY_AFTER_SECONDS}
        height = entry.get("h")
        if not isinstance(height, int):
            return "gap", {"expected_height": self._last_enqueued + 1}
        with self._admit_lock:
            expected = self._last_enqueued + 1
            if height <= self._last_enqueued:
                obs.counter("service.ingest.duplicate")
                return "duplicate", {"applied_height": self.applied_height}
            if height != expected:
                obs.counter("service.ingest.gap")
                return "gap", {"expected_height": expected}
            try:
                self.queue.put_nowait(entry)
            except queue.Full:
                obs.counter("service.ingest.shed")
                return "overloaded", {"retry_after": RETRY_AFTER_SECONDS}
            self._last_enqueued = height
            obs.counter("service.ingest.accepted")
            obs.gauge("service.queue_depth", self.queue.qsize())
            return "queued", {"expected_height": height + 1}

    def _apply_loop(self) -> None:
        while not self._stop.is_set():
            entry = self.queue.get()
            if entry is None or self._stop.is_set():
                break
            self._unpaused.wait()
            with self._state_lock:
                self._journal_and_fold(entry)

    def _journal_and_fold(self, entry: dict) -> None:
        """WAL first, fold second — the crash-safety ordering."""
        self.journal.append(entry)
        self._fold_entry(entry)
        self._since_checkpoint += 1
        if self._since_checkpoint >= self.checkpoint_every:
            self.journal.compact(self._applied_entries)
            self._since_checkpoint = 0

    def _fold_entry(self, entry: dict) -> None:
        with obs.span("service.fold"):
            block = decode_entry_block(entry, self.auditor.dataset.chain.tip_hash)
            self.auditor.fold_block(block, entry["p"])
            self._applied_entries.append(entry)

    # ------------------------------------------------------------------
    # Test/chaos hooks
    # ------------------------------------------------------------------
    def pause_applier(self) -> None:
        """Simulate a stalled consumer: queued entries stop draining."""
        self._unpaused.clear()

    def resume_applier(self) -> None:
        self._unpaused.set()

    def force_checkpoint(self) -> None:
        with self._locked_state(DEFAULT_DEADLINE_SECONDS):
            self.journal.compact(self._applied_entries)
            self._since_checkpoint = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _locked_state(self, deadline: float):
        if not self._state_lock.acquire(timeout=deadline):
            obs.counter("service.deadline_exceeded")
            raise DeadlineExceeded(
                f"accumulator lock not acquired within {deadline:.3f}s"
            )
        lock = self._state_lock

        class _Release:
            def __enter__(self_inner):
                return None

            def __exit__(self_inner, *exc):
                lock.release()
                return False

        return _Release()

    def annotation(self) -> dict:
        """Quality + stream-progress context attached to every answer.

        Callers must hold the state lock (every query path below does).
        """
        quality = self.auditor.quality_report()
        return {
            "quality": quality.summary(),
            "stream": {
                "applied_height": self.applied_height,
                "blocks_applied": len(self._applied_entries),
                "queue_depth": self.queue.qsize(),
            },
        }

    def status(self) -> dict:
        return {
            "ready": self.ready.is_set(),
            "applied_height": self.applied_height,
            "expected_height": self._last_enqueued + 1,
            "queue_depth": self.queue.qsize(),
            "queue_capacity": self.queue_capacity,
        }

    def query_tx(self, txid: str, deadline: float) -> dict:
        with self._locked_state(deadline), obs.span("service.query"):
            obs.counter("service.queries")
            return {
                "answer": tx_answer(self.auditor, txid),
                "annotation": self.annotation(),
            }

    def query_pool(self, pool: str, deadline: float) -> dict:
        with self._locked_state(deadline), obs.span("service.query"):
            obs.counter("service.queries")
            return {
                "answer": pool_answer(self.auditor, pool),
                "annotation": self.annotation(),
            }

    def query_audit(self, deadline: float, snapshot_count: int = 10) -> dict:
        with self._locked_state(deadline), obs.span("service.query"):
            obs.counter("service.queries")
            return {
                "answer": audit_answer(self.auditor, snapshot_count),
                "annotation": self.annotation(),
            }


# ----------------------------------------------------------------------
# HTTP transport
# ----------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    service: AuditService  # injected via make_http_server
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):  # pragma: no cover - silence stdlib
        pass

    # -- helpers -------------------------------------------------------
    def _send(self, code: int, payload: dict, retry_after: Optional[float] = None):
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(max(1, round(retry_after))))
        self.end_headers()
        self.wfile.write(body)

    def _deadline(self) -> float:
        raw = self.headers.get("X-Deadline-Seconds")
        try:
            deadline = float(raw) if raw else DEFAULT_DEADLINE_SECONDS
        except ValueError:
            deadline = DEFAULT_DEADLINE_SECONDS
        return max(1e-3, deadline)

    def _read_json(self) -> Optional[dict]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
            payload = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, OSError):
            return None
        return payload if isinstance(payload, dict) else None

    # -- routes --------------------------------------------------------
    def do_GET(self):
        service = self.service
        path = self.path.split("?", 1)[0]
        try:
            if path == "/healthz":
                self._send(200, {"status": "alive"})
            elif path == "/readyz":
                if service.ready.is_set():
                    self._send(200, {"status": "ready"})
                else:
                    self._send(
                        503,
                        {"status": "recovering"},
                        retry_after=RETRY_AFTER_SECONDS,
                    )
            elif path == "/status":
                self._send(200, service.status())
            elif path == "/obs":
                self._send(200, {"obs": obs.snapshot()})
            elif path.startswith("/query/tx/"):
                txid = urllib.parse.unquote(path[len("/query/tx/") :])
                self._send(200, service.query_tx(txid, self._deadline()))
            elif path.startswith("/query/pool/"):
                pool = urllib.parse.unquote(path[len("/query/pool/") :])
                self._send(200, service.query_pool(pool, self._deadline()))
            elif path == "/audit":
                self._send(200, service.query_audit(self._deadline()))
            else:
                self._send(404, {"error": f"no such path {path}"})
        except DeadlineExceeded as exc:
            self._send(
                503,
                {"status": "deadline_exceeded", "error": str(exc)},
                retry_after=RETRY_AFTER_SECONDS,
            )

    def do_POST(self):
        service = self.service
        path = self.path.split("?", 1)[0]
        try:
            if path == "/ingest":
                entry = self._read_json()
                if entry is None:
                    self._send(400, {"error": "malformed ingest payload"})
                    return
                status, detail = service.submit(entry)
                payload = {"status": status, **detail}
                if status in ("queued",):
                    self._send(202, payload)
                elif status == "duplicate":
                    self._send(200, payload)
                elif status == "gap":
                    self._send(409, payload)
                else:  # overloaded / recovering: explicit backpressure
                    self._send(
                        503, payload, retry_after=detail.get("retry_after")
                    )
            elif path == "/control/checkpoint":
                service.force_checkpoint()
                self._send(200, {"status": "checkpointed"})
            elif path == "/control/pause":
                service.pause_applier()
                self._send(200, {"status": "paused"})
            elif path == "/control/resume":
                service.resume_applier()
                self._send(200, {"status": "resumed"})
            else:
                self._send(404, {"error": f"no such path {path}"})
        except DeadlineExceeded as exc:
            self._send(
                503,
                {"status": "deadline_exceeded", "error": str(exc)},
                retry_after=RETRY_AFTER_SECONDS,
            )


def make_http_server(
    service: AuditService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Bind a threaded HTTP server for ``service`` (port 0 = ephemeral)."""

    class BoundHandler(_Handler):
        pass

    BoundHandler.service = service
    server = ThreadingHTTPServer((host, port), BoundHandler)
    server.daemon_threads = True
    return server
