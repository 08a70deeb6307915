"""Idempotent retrying client for the streaming audit service.

The server's ingest protocol is designed so a client that *always
retries* is safe:

* duplicates ack with 200 — resending an applied block is a no-op;
* gaps answer 409 with the height the server expects — a client that
  restarted (or raced a server restart) resynchronises from ``/status``
  instead of guessing;
* overload answers 503 with ``retry_after`` — the client backs off
  exponentially (honouring the server's hint as a floor) and resends
  the *same* block;
* a refused connection means the server is down or restarting — the
  same backoff loop covers it, which is exactly what the chaos harness
  leans on while it ``kill -9``'s the server mid-stream.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.parse
from typing import Iterable, Optional

from ..chain.block import Block
from .wal import encode_entry

#: Errors that mean "server unreachable right now" — always retryable.
_CONNECTION_ERRORS = (
    ConnectionError,
    http.client.HTTPException,
    TimeoutError,
    OSError,
)


class ServiceUnavailable(RuntimeError):
    """Retries exhausted without the server accepting the request."""


class AuditClient:
    """Small HTTP client with deadline, backoff, and resync helpers."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 10.0,
        backoff: float = 0.05,
        backoff_cap: float = 1.0,
        max_retries: int = 40,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.max_retries = max_retries

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _request_once(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> tuple[int, dict]:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            data = response.read()
            parsed = json.loads(data) if data else {}
            return response.status, parsed
        finally:
            connection.close()

    def _sleep_for(self, attempt: int, hint: Optional[float]) -> None:
        delay = min(self.backoff_cap, self.backoff * (2**attempt))
        if hint is not None:
            delay = max(delay, float(hint))
        time.sleep(delay)

    def request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> tuple[int, dict]:
        """One request with retry-on-unreachable and retry-on-503.

        Other status codes (including 409 gaps) return to the caller —
        they are protocol answers, not transport failures.
        """
        last_error: Optional[Exception] = None
        for attempt in range(self.max_retries):
            try:
                status, payload = self._request_once(method, path, body)
            except _CONNECTION_ERRORS as exc:
                last_error = exc
                self._sleep_for(attempt, None)
                continue
            if status == 503:
                self._sleep_for(attempt, payload.get("retry_after"))
                continue
            return status, payload
        raise ServiceUnavailable(
            f"{method} {path}: no answer after {self.max_retries} retries "
            f"(last error: {last_error})"
        )

    # ------------------------------------------------------------------
    # Protocol helpers
    # ------------------------------------------------------------------
    def wait_ready(self, deadline_seconds: float = 30.0) -> None:
        """Block until /readyz answers 200 (or raise)."""
        deadline = time.monotonic() + deadline_seconds
        attempt = 0
        while time.monotonic() < deadline:
            try:
                status, _ = self._request_once("GET", "/readyz")
                if status == 200:
                    return
            except _CONNECTION_ERRORS:
                pass
            self._sleep_for(min(attempt, 6), None)
            attempt += 1
        raise ServiceUnavailable("service never became ready")

    def status(self) -> dict:
        code, payload = self.request("GET", "/status")
        if code != 200:
            raise ServiceUnavailable(f"/status answered {code}")
        return payload

    def ingest(self, height: int, pool: str, block: Block) -> dict:
        """Send one block; duplicate acks count as success."""
        code, payload = self.request(
            "POST", "/ingest", encode_entry(height, pool, block)
        )
        if code in (200, 202):
            return payload
        if code == 409:
            return payload  # caller resynchronises from expected_height
        raise ServiceUnavailable(f"/ingest answered {code}: {payload}")

    def stream(
        self, feed: Iterable[tuple[int, str, Block]], resync: bool = True
    ) -> int:
        """Replay a (height, pool, block) feed until fully applied.

        The feed must be in chain order.  On a 409 gap the client skips
        forward/backward to the server's expected height (the feed is
        indexed once up front), which makes the stream restartable at
        any point — including across server crashes.
        """
        blocks = list(feed)
        by_height = {height: (height, pool, block) for height, pool, block in blocks}
        if not blocks:
            return 0
        sent = 0
        cursor = blocks[0][0]
        last = blocks[-1][0]
        while cursor <= last:
            if cursor not in by_height:
                raise ValueError(f"feed is missing height {cursor}")
            height, pool, block = by_height[cursor]
            answer = self.ingest(height, pool, block)
            if answer.get("status") == "gap":
                if not resync:
                    raise ServiceUnavailable(f"gap at {height}: {answer}")
                expected = answer["expected_height"]
                if expected > last:
                    break
                cursor = max(expected, blocks[0][0])
                continue
            sent += 1
            cursor = height + 1
        return sent

    def wait_applied(self, height: int, deadline_seconds: float = 60.0) -> dict:
        """Wait until the server has *folded* (not just queued) ``height``."""
        deadline = time.monotonic() + deadline_seconds
        while time.monotonic() < deadline:
            status = self.status()
            if status.get("applied_height", -1) >= height:
                return status
            time.sleep(0.02)
        raise ServiceUnavailable(f"height {height} never applied")

    def query_tx(self, txid: str) -> dict:
        quoted = urllib.parse.quote(txid, safe="")
        code, payload = self.request("GET", f"/query/tx/{quoted}")
        if code != 200:
            raise ServiceUnavailable(f"/query/tx answered {code}")
        return payload

    def query_pool(self, pool: str) -> dict:
        # Pool names carry spaces and '&' ("1THash & 58Coin"): quote.
        quoted = urllib.parse.quote(pool, safe="")
        code, payload = self.request("GET", f"/query/pool/{quoted}")
        if code != 200:
            raise ServiceUnavailable(f"/query/pool answered {code}")
        return payload

    def audit(self) -> dict:
        code, payload = self.request("GET", "/audit")
        if code != 200:
            raise ServiceUnavailable(f"/audit answered {code}")
        return payload

    def checkpoint(self) -> None:
        self.request("POST", "/control/checkpoint")
