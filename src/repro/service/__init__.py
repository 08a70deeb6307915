"""Long-running audit service: streaming accumulators behind HTTP.

The batch pipeline audits a *finished* dataset; this package keeps the
same audits running against a chain that is still growing:

* :mod:`repro.service.wal` — a write-ahead journal of applied blocks
  with CRC-framed fsync'd appends, torn-tail recovery, and atomic
  checkpoint compaction, so ``kill -9`` mid-block resumes to
  byte-identical accumulator state;
* :mod:`repro.service.server` — the HTTP facade: bounded ingest queue
  with explicit backpressure (429/503-style reject-with-retry-after,
  never a silent drop), per-request deadlines, health/readiness
  endpoints wired into :mod:`repro.obs`, and quality annotations on
  every answer;
* :mod:`repro.service.client` — an idempotent retry-with-backoff
  client helper used by the chaos harness and the CLI replay.

The analytical core is :class:`repro.core.audit.StreamingAuditor`; the
service adds only durability and transport; its query-storm benchmark
is the ``service`` suite of :mod:`repro.bench`.
"""

from .client import AuditClient, ServiceUnavailable
from .server import AuditService, make_http_server
from .wal import BlockJournal, WalCorruptionError

__all__ = [
    "AuditClient",
    "AuditService",
    "BlockJournal",
    "ServiceUnavailable",
    "WalCorruptionError",
    "make_http_server",
]
