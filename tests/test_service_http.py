"""HTTP-level service tests: ingest protocol, backpressure, deadlines.

Every test runs a real :class:`ThreadingHTTPServer` on an ephemeral
port and talks to it with raw ``http.client`` (not the retrying
:class:`AuditClient`) wherever the *un*-retried protocol answer is the
thing under test — 409 gaps, 503 backpressure, Retry-After headers.
"""

import gc
import http.client
import json
import threading

import pytest

from repro.core.audit import Auditor, stream_blocks
from repro.faults import FaultSchedule, degrade_dataset
from repro.service.client import AuditClient
from repro.service.server import (
    AuditService,
    make_http_server,
    pool_answer,
    tx_answer,
)


def _raw(host, port, method, path, body=None, headers=None):
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        connection.request(method, path, body=payload, headers=headers or {})
        response = connection.getresponse()
        data = response.read()
        return (
            response.status,
            json.loads(data) if data else {},
            dict(response.getheaders()),
        )
    finally:
        connection.close()


@pytest.fixture()
def live_service(small_dataset_a, tmp_path):
    """A recovered service + HTTP server, torn down after the test."""
    service = AuditService(
        small_dataset_a,
        wal_dir=tmp_path,
        queue_size=4,
        checkpoint_every=100,
        fsync=False,
    )
    service.recover()
    server = make_http_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield service, host, port
    finally:
        server.shutdown()
        server.server_close()
        service.stop()


class TestIngestProtocol:
    def test_in_order_stream_applies_everything(
        self, live_service, small_dataset_a
    ):
        service, host, port = live_service
        client = AuditClient(host, port)
        feed = list(stream_blocks(small_dataset_a))
        assert client.stream(feed) == len(feed)
        client.wait_applied(feed[-1][0])
        assert service.applied_height == small_dataset_a.chain.height

    def test_duplicate_acks_200(self, live_service, small_dataset_a):
        _, host, port = live_service
        client = AuditClient(host, port)
        feed = list(stream_blocks(small_dataset_a))
        client.stream(feed[:3])
        from repro.service.wal import encode_entry

        height, pool, block = feed[0]
        status, payload, _ = _raw(
            host, port, "POST", "/ingest", encode_entry(height, pool, block)
        )
        assert status == 200
        assert payload["status"] == "duplicate"

    def test_gap_answers_409_with_expected_height(
        self, live_service, small_dataset_a
    ):
        _, host, port = live_service
        from repro.service.wal import encode_entry

        feed = list(stream_blocks(small_dataset_a))
        height, pool, block = feed[5]  # skip 0..4
        status, payload, _ = _raw(
            host, port, "POST", "/ingest", encode_entry(height, pool, block)
        )
        assert status == 409
        assert payload == {"status": "gap", "expected_height": feed[0][0]}

    def test_full_queue_answers_503_with_retry_after(
        self, live_service, small_dataset_a
    ):
        service, host, port = live_service
        from repro.service.wal import encode_entry

        service.pause_applier()  # stalled consumer: nothing drains
        feed = list(stream_blocks(small_dataset_a))
        statuses = []
        for height, pool, block in feed[: service.queue_capacity + 2]:
            status, payload, headers = _raw(
                host, port, "POST", "/ingest", encode_entry(height, pool, block)
            )
            statuses.append(status)
        # The queue (size 4) fills; the overflow is *rejected*, loudly.
        # (The paused applier may hold one dequeued entry in flight, so
        # either `capacity` or `capacity + 1` blocks get accepted.)
        assert statuses.count(202) in (
            service.queue_capacity,
            service.queue_capacity + 1,
        )
        assert statuses[-1] == 503
        assert payload["status"] == "overloaded"
        assert payload["retry_after"] > 0
        assert "Retry-After" in headers

        # Backpressure releases when the consumer drains: the client's
        # retry loop finishes the stream with zero loss.
        service.resume_applier()
        client = AuditClient(host, port)
        client.stream(feed)
        client.wait_applied(feed[-1][0])
        assert service.applied_height == feed[-1][0]

    def test_malformed_ingest_answers_400(self, live_service):
        _, host, port = live_service
        status, _, _ = _raw(host, port, "POST", "/ingest", [1, 2, 3])
        assert status == 400

    def test_recovering_service_answers_503(self, small_dataset_a, tmp_path):
        service = AuditService(small_dataset_a, wal_dir=tmp_path, fsync=False)
        # recover() not called: the service must refuse, not misapply.
        server = make_http_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            status, payload, _ = _raw(host, port, "GET", "/readyz")
            assert status == 503
            from repro.service.wal import encode_entry

            height, pool, block = next(iter(stream_blocks(small_dataset_a)))
            status, payload, _ = _raw(
                host, port, "POST", "/ingest",
                encode_entry(height, pool, block),
            )
            assert status == 503
            assert payload["status"] == "recovering"
        finally:
            server.shutdown()
            server.server_close()


class TestQueries:
    def test_tx_and_pool_answers_match_direct_evaluation(
        self, live_service, small_dataset_a
    ):
        service, host, port = live_service
        client = AuditClient(host, port)
        feed = list(stream_blocks(small_dataset_a))
        client.stream(feed)
        client.wait_applied(feed[-1][0])

        txid = next(
            t
            for t, r in small_dataset_a.tx_records.items()
            if r.commit_height is not None
        )
        got = client.query_tx(txid)
        want = json.loads(json.dumps(tx_answer(service.auditor, txid)))
        assert got["answer"] == want

        pool = small_dataset_a.hash_rates()[0].pool
        got = client.query_pool(pool)
        want = json.loads(json.dumps(pool_answer(service.auditor, pool)))
        assert got["answer"] == want

    def test_unknown_txid_is_a_valid_answer(self, live_service):
        _, host, port = live_service
        status, payload, _ = _raw(host, port, "GET", "/query/tx/no-such-tx")
        assert status == 200
        assert payload["answer"] == {
            "txid": "no-such-tx",
            "observed": False,
            "committed": False,
        }

    def test_unknown_route_404(self, live_service):
        _, host, port = live_service
        for method, path in [("GET", "/nope"), ("POST", "/nope")]:
            status, _, _ = _raw(host, port, method, path)
            assert status == 404

    def test_health_status_and_obs_endpoints(self, live_service):
        _, host, port = live_service
        assert _raw(host, port, "GET", "/healthz")[0] == 200
        assert _raw(host, port, "GET", "/readyz")[0] == 200
        status, payload, _ = _raw(host, port, "GET", "/status")
        assert status == 200
        assert payload["ready"] is True
        status, payload, _ = _raw(host, port, "GET", "/obs")
        assert status == 200
        assert "obs" in payload

    def test_deadline_exceeded_answers_503(self, live_service):
        service, host, port = live_service
        with service._state_lock:  # a stuck fold holds the lock
            status, payload, headers = _raw(
                host,
                port,
                "GET",
                "/audit",
                headers={"X-Deadline-Seconds": "0.05"},
            )
        assert status == 503
        assert payload["status"] == "deadline_exceeded"
        assert "Retry-After" in headers


class TestAnnotations:
    def test_every_answer_carries_quality_and_progress(
        self, live_service, small_dataset_a
    ):
        _, host, port = live_service
        client = AuditClient(host, port)
        feed = list(stream_blocks(small_dataset_a))
        client.stream(feed[:5])
        client.wait_applied(feed[4][0])
        for payload in (
            client.query_tx("whatever"),
            client.query_pool(small_dataset_a.hash_rates()[0].pool),
            client.audit(),
        ):
            annotation = payload["annotation"]
            assert annotation["quality"]["degraded"] is False
            assert annotation["stream"]["applied_height"] == feed[4][0]
            assert annotation["stream"]["blocks_applied"] == 5

    def test_degraded_data_is_flagged_on_every_answer(
        self, small_dataset_a, tmp_path
    ):
        """Gappy observer data must never yield unqualified answers."""
        degraded = degrade_dataset(
            small_dataset_a, FaultSchedule(seed=9, tx_loss_rate=0.25)
        )
        quality = Auditor(degraded).quality_report()
        assert quality.degraded

        service = AuditService(degraded, wal_dir=tmp_path, fsync=False)
        service.recover()
        server = make_http_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            client = AuditClient(host, port)
            feed = list(stream_blocks(degraded))
            client.stream(feed)
            client.wait_applied(feed[-1][0])
            for payload in (
                client.query_tx(next(iter(degraded.tx_records))),
                client.query_pool(degraded.hash_rates()[0].pool),
                client.audit(),
            ):
                annotation = payload["annotation"]
                assert annotation["quality"]["degraded"] is True
                assert annotation["quality"] == json.loads(
                    json.dumps(quality.summary())
                )
        finally:
            server.shutdown()
            server.server_close()
            service.stop()


class TestFromDatasetFile:
    def test_served_context_is_frozen_and_collector_restored(
        self, small_dataset_a, tmp_path
    ):
        from repro.datasets.io import save_dataset

        path = save_dataset(small_dataset_a, tmp_path / "a.json.gz")
        # Nothing frozen before the load, so the count below is its own.
        gc.unfreeze()
        try:
            AuditService.from_dataset_file(
                path, wal_dir=tmp_path / "wal", fsync=False
            )
            assert gc.isenabled()
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
