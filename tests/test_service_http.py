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
from contextlib import contextmanager

import numpy as np
import pytest

from repro import obs
from repro.core.audit import Auditor, stream_blocks
from repro.datasets import columnar
from repro.datasets.columnar import (
    columnar_sidecar,
    load_dataset_file,
    open_columns,
    save_columnar,
)
from repro.datasets.io import (
    DatasetCorruptionError,
    dataset_to_dict,
    load_dataset,
    save_dataset,
)
from repro.faults import FaultSchedule, degrade_dataset
from repro.service.client import AuditClient
from repro.service.server import (
    AuditService,
    make_http_server,
    pool_answer,
    tx_answer,
)

from test_columnar import flip_columnar_version, restamp_crcs


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


def _torn_snapshot_offsets(sidecar):
    """Point the last snapshot past the stored rows (CRCs re-stamped)."""
    store = open_columns(sidecar)
    column = store["snap_start"]
    offset = column.offset + (len(column) - 1) * column.itemsize
    torn = np.array([10**9], dtype=column.dtype).tobytes()
    del store, column
    raw = bytearray(sidecar.read_bytes())
    raw[offset : offset + len(torn)] = torn
    sidecar.write_bytes(bytes(raw))
    restamp_crcs(sidecar)


def _raise_txid_mismatch(store):
    raise DatasetCorruptionError(store.path, "txid mismatch at record 0")


@contextmanager
def _served(path, wal_dir):
    """A client of an HTTP-served :meth:`AuditService.from_dataset_file`."""
    service = AuditService.from_dataset_file(
        path, wal_dir=wal_dir, checkpoint_every=100, fsync=False
    )
    service.recover()
    server = make_http_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield AuditClient(host, port)
    finally:
        server.shutdown()
        server.server_close()
        service.stop()


def _answers(client, dataset) -> dict:
    """/query/tx, /query/pool and /audit responses, annotations included."""
    txids = sorted(dataset.tx_records)
    return {
        "tx": [client.query_tx(t) for t in txids[::25] + ["never-seen"]],
        "pool": [client.query_pool(e.pool) for e in dataset.hash_rates()],
        "audit": client.audit(),
    }


class TestFromDatasetFile:
    """``serve --dataset``: the observer context, through the twin if intact."""

    @pytest.fixture()
    def pair(self, small_dataset_a, tmp_path):
        """A gzip export with its columnar twin beside it."""
        path = save_dataset(small_dataset_a, tmp_path / "twin" / "a.json.gz")
        save_columnar(small_dataset_a, columnar_sidecar(path))
        return path

    @pytest.fixture(scope="class")
    def gzip_answers(self, small_dataset_a, tmp_path_factory):
        """Answers of a gzip-only service after the whole chain."""
        tmp = tmp_path_factory.mktemp("gzip-only")
        path = save_dataset(small_dataset_a, tmp / "a.json.gz")
        feed = list(stream_blocks(small_dataset_a))
        with _served(path, tmp / "wal") as client:
            client.stream(feed)
            client.wait_applied(feed[-1][0])
            return _answers(client, small_dataset_a)

    def test_twin_and_gzip_services_answer_alike_at_every_height(
        self, small_dataset_a, pair, tmp_path
    ):
        gzip_only = save_dataset(small_dataset_a, tmp_path / "gz" / "a.json.gz")
        feed = list(stream_blocks(small_dataset_a))
        cuts = [len(feed) // 3, 2 * len(feed) // 3, len(feed)]
        with obs.tracing(reset=True):
            with _served(pair, tmp_path / "wal-twin") as twin_client:
                with _served(gzip_only, tmp_path / "wal-gz") as gz_client:
                    start = 0
                    for cut in cuts:
                        for client in (twin_client, gz_client):
                            client.stream(feed[start:cut])
                            client.wait_applied(feed[cut - 1][0])
                        assert _answers(twin_client, small_dataset_a) == _answers(
                            gz_client, small_dataset_a
                        )
                        start = cut
                    snap = obs.snapshot()
        counters, spans = snap["counters"], snap["spans"]
        # One twin load (its gzip never parsed), one gzip load; neither
        # service decodes the file's chain.
        assert spans["service.load"]["count"] == 2
        assert spans["columnar.verify"]["count"] == 1
        assert counters["dataset.decode.snapshots"] == 1
        assert counters["dataset.decode.tx_records"] == 1
        assert "dataset.decode.chain" not in counters
        assert "dataset.twin_rejected" not in counters

    @pytest.mark.parametrize(
        "damage",
        [
            "flipped_byte",
            "columnar_version",
            "txid_cross_check",
            "torn_snapshot_offsets",
        ],
    )
    def test_broken_twin_falls_back_to_the_gzip(
        self, small_dataset_a, pair, tmp_path, gzip_answers, damage, monkeypatch
    ):
        sidecar = columnar_sidecar(pair)
        if damage == "flipped_byte":
            raw = bytearray(sidecar.read_bytes())
            raw[open_columns(sidecar)["stx_fee"].offset] ^= 0xFF
            sidecar.write_bytes(bytes(raw))
        elif damage == "columnar_version":
            flip_columnar_version(sidecar)
        elif damage == "txid_cross_check":
            # The txid recomputation guards the chain, which a service
            # never decodes; stand in for any cross-check of the parts it
            # does decode failing the same way.
            monkeypatch.setitem(
                columnar._PART_DECODERS, "tx_records", _raise_txid_mismatch
            )
        else:
            _torn_snapshot_offsets(sidecar)
        feed = list(stream_blocks(small_dataset_a))
        with obs.tracing(reset=True):
            with _served(pair, tmp_path / "wal") as client:
                counters = obs.snapshot()["counters"]
                client.stream(feed)
                client.wait_applied(feed[-1][0])
                assert _answers(client, small_dataset_a) == gzip_answers
        assert counters["dataset.twin_rejected"] == 1

    def test_npz_dataset_path_is_served(
        self, small_dataset_a, pair, tmp_path, gzip_answers
    ):
        pair.unlink()  # the npz stands alone
        feed = list(stream_blocks(small_dataset_a))
        with _served(columnar_sidecar(pair), tmp_path / "wal") as client:
            client.stream(feed)
            client.wait_applied(feed[-1][0])
            assert _answers(client, small_dataset_a) == gzip_answers

    def test_served_context_is_frozen_and_collector_restored(
        self, small_dataset_a, tmp_path
    ):
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

    def test_twin_loaded_context_is_decoded_inside_the_freeze(
        self, pair, tmp_path
    ):
        # Freeze what exists, so the count grows by what the load makes.
        gc.freeze()
        before = gc.get_freeze_count()
        try:
            service = AuditService.from_dataset_file(
                pair, wal_dir=tmp_path / "wal", fsync=False
            )
            frozen = gc.get_freeze_count() - before
            assert gc.isenabled()
        finally:
            gc.unfreeze()
        context = service.auditor.dataset
        rows = {id(tx) for snapshot in context.snapshots for tx in snapshot.txs}
        # The decoded snapshot rows and tx records (the originals behind
        # the service's commit-cleared copies) were all frozen.
        assert frozen >= len(rows) + len(context.tx_records)

    def test_dataset_export_removes_a_stale_twin(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "a.json.gz"
        stale = columnar_sidecar(out)
        stale.write_bytes(b"a twin of an older export")
        argv = ["dataset", "A", "--scale", "0.06", "--out", str(out)]
        assert main(argv) == 0
        assert not stale.exists()
        assert main(argv + ["--columnar", str(stale)]) == 0
        loaded = load_dataset_file(out)
        assert loaded.columnar is not None
        assert dataset_to_dict(loaded) == dataset_to_dict(load_dataset(out))
