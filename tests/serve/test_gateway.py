"""Asyncio gateway: HTTP parity, admission control, overload behaviour."""

from __future__ import annotations

import http.client
import json
import re
import socket
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve import (
    AdmissionController,
    GatewayServer,
    InferenceService,
    ModelRegistry,
    RoutePolicy,
)
from repro.serve.metrics import MetricsRegistry


@pytest.fixture(scope="module")
def registry(serve_corpus, model_dir):
    registry = ModelRegistry(serve_corpus)
    registry.register("default", model_dir)
    return registry


@pytest.fixture(scope="module")
def service(registry):
    service = InferenceService(
        registry, n_workers=0, max_batch_size=8,
        metrics=MetricsRegistry(),
    )
    yield service
    service.close()


@pytest.fixture(scope="module")
def gateway(service):
    with GatewayServer(service) as gateway:
        yield gateway


def _request(gateway, method, path, payload=None, timeout=60):
    connection = http.client.HTTPConnection(
        "127.0.0.1", gateway.port, timeout=timeout
    )
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        connection.request(
            method, path, body=body,
            headers={"Content-Type": "application/json"} if body else {},
        )
        response = connection.getresponse()
        return response.status, response.read(), dict(response.getheaders())
    finally:
        connection.close()


# ----------------------------------------------------------------------
# routes
# ----------------------------------------------------------------------
def test_classify_round_trip_matches_pipeline(gateway, service, serve_corpus):
    pipeline = service.registry.get().pipeline
    docs = list(serve_corpus.test_documents)[:4]
    status, body, _ = _request(gateway, "POST", "/classify", {
        "documents": [
            {"id": doc.doc_id, "title": doc.title, "body": doc.body}
            for doc in docs
        ],
    })
    assert status == 200
    payload = json.loads(body)
    assert [r["topics"] for r in payload["results"]] == \
        pipeline.predict_documents(docs)


def test_classify_text_only_payload(gateway):
    status, body, _ = _request(gateway, "POST", "/classify", {
        "documents": [{"text": "wheat corn grain tonnes shipment"}],
    })
    assert status == 200
    assert len(json.loads(body)["results"]) == 1


def test_healthz_models_metrics_drift(gateway):
    status, body, _ = _request(gateway, "GET", "/healthz")
    assert status == 200
    assert json.loads(body)["status"] == "ok"
    status, body, _ = _request(gateway, "GET", "/models")
    assert status == 200
    model = json.loads(body)["models"][0]
    assert model["name"] == "default"
    assert model["categories"]
    status, body, _ = _request(gateway, "GET", "/metrics")
    assert status == 200
    text = body.decode()
    assert "gateway_requests_total" in text
    assert "gateway_classify_seconds_p50" in text
    assert "admission_admitted_total" in text
    status, body, _ = _request(gateway, "GET", "/drift")
    assert status == 200


def test_track_round_trip(
    gateway, registry, serve_corpus, non_recurrent_pipeline, capped_pipeline
):
    """/track ends on the decision value /classify reports for the same
    text, for the recurrent model, a non-recurrent one and a capped one
    alike."""
    registry.add_pipeline("flat", non_recurrent_pipeline)
    registry.add_pipeline("capped", capped_pipeline)
    try:
        for model in ("default", "flat", "capped"):
            for doc in serve_corpus.test_for("grain")[:4]:
                status, body, _ = _request(gateway, "POST", "/track", {
                    "text": doc.text, "category": "grain", "model": model,
                })
                assert status == 200
                payload = json.loads(body)
                assert payload["category"] == "grain"
                status, body, _ = _request(gateway, "POST", "/classify", {
                    "documents": [{"text": doc.text}], "model": model,
                })
                assert status == 200
                decision = json.loads(body)["results"][0]["decision_values"]
                assert payload["states"][-1]["value"] == decision["grain"]
                if model == "capped":
                    assert payload["words_encoded"] <= \
                        capped_pipeline.encoder.max_sequence_length
    finally:
        registry.unregister("flat")
        registry.unregister("capped")


def test_keep_alive_serves_multiple_requests_per_connection(gateway):
    connection = http.client.HTTPConnection(
        "127.0.0.1", gateway.port, timeout=30
    )
    try:
        for _ in range(3):
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            response.read()
    finally:
        connection.close()


def test_error_statuses(gateway):
    status, _, _ = _request(gateway, "GET", "/nope")
    assert status == 404
    status, _, _ = _request(gateway, "GET", "/classify")
    assert status == 405
    status, body, _ = _request(gateway, "POST", "/classify", {"documents": []})
    assert status == 400
    status, _, _ = _request(
        gateway, "POST", "/classify",
        {"documents": [{"text": "x"}], "model": "nope"},
    )
    assert status == 404


def test_malformed_framing_is_400_and_closed(gateway):
    with socket.create_connection(
        ("127.0.0.1", gateway.port), timeout=10
    ) as sock:
        sock.sendall(b"GARBAGE\r\n\r\n")
        data = sock.recv(4096)
    assert b"400" in data.split(b"\r\n", 1)[0]
    assert b"Connection: close" in data


def test_oversized_body_is_refused_before_reading(service):
    with GatewayServer(service, max_body=64) as gateway:
        status, body, _ = _request(gateway, "POST", "/classify", {
            "documents": [{"text": "x" * 4096}],
        })
        assert status == 400
        assert b"exceeds" in body


# ----------------------------------------------------------------------
# admission control and overload
# ----------------------------------------------------------------------
def test_rate_limited_requests_get_429_with_retry_after(registry):
    service = InferenceService(
        registry, n_workers=0, max_batch_size=8,
        metrics=MetricsRegistry(),
    )
    admission = AdmissionController(
        policies={"classify": RoutePolicy(rate=0.01, burst=1)},
        metrics=service.metrics,
    )
    try:
        with GatewayServer(service, admission=admission) as gateway:
            payload = {"documents": [{"text": "wheat tonnes"}]}
            status, _, _ = _request(gateway, "POST", "/classify", payload)
            assert status == 200
            status, body, headers = _request(
                gateway, "POST", "/classify", payload
            )
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert json.loads(body)["error"] == "rate limited"
            assert service.metrics.snapshot()["admission_shed_rate_total"] == 1
    finally:
        service.close()


def test_200_concurrent_connections_all_get_an_answer(registry):
    """The overload contract: under a 200-connection burst against a
    tiny in-flight bound, every socket receives a definite HTTP answer
    (200, 429 or 503 + Retry-After) -- nothing hangs, nothing is
    dropped, and shed requests never reach the batcher."""
    n_clients = 200
    service = InferenceService(
        registry, n_workers=0, max_batch_size=8,
        metrics=MetricsRegistry(),
    )
    admission = AdmissionController(
        policies={"classify": RoutePolicy(max_inflight=4)},
        metrics=service.metrics,
    )
    try:
        with GatewayServer(service, admission=admission) as gateway:
            def one_request(index):
                status, _, headers = _request(gateway, "POST", "/classify", {
                    "documents": [
                        {"id": index, "text": f"wheat grain tonnes {index}"}
                    ],
                }, timeout=120)
                return status, headers

            with ThreadPoolExecutor(max_workers=n_clients) as executor:
                outcomes = list(executor.map(one_request, range(n_clients)))

            statuses = [status for status, _ in outcomes]
            assert len(statuses) == n_clients
            assert set(statuses) <= {200, 429, 503}
            assert 200 in statuses
            assert 503 in statuses  # the bound actually shed under burst
            for status, headers in outcomes:
                if status in (429, 503):
                    assert int(headers["Retry-After"]) >= 1

            snapshot = service.metrics.snapshot()
            admitted = snapshot["admission_admitted_total"]
            shed = (snapshot["admission_shed_queue_total"]
                    + snapshot.get("admission_shed_rate_total", 0))
            # Every connection was either admitted or shed -- and only
            # admitted work was allowed to allocate batcher state.
            assert admitted + shed == n_clients
            assert admitted == statuses.count(200)
            assert snapshot["gateway_requests_total"] == n_clients
            assert snapshot["admission_classify_inflight"] == 0
    finally:
        service.close()


def test_shedding_keeps_the_batcher_bounded(registry):
    """Shed requests allocate one response and nothing else: the
    admission bound caps how many documents can ever be queued, no
    matter how many clients pile on."""
    max_inflight = 2
    service = InferenceService(
        registry, n_workers=0, max_batch_size=4,
        metrics=MetricsRegistry(),
    )
    admission = AdmissionController(
        policies={"classify": RoutePolicy(max_inflight=max_inflight)},
        metrics=service.metrics,
    )
    try:
        with GatewayServer(service, admission=admission) as gateway:
            def one_request(index):
                status, _, _ = _request(gateway, "POST", "/classify", {
                    "documents": [{"id": index, "text": f"grain {index}"}],
                }, timeout=120)
                return status

            with ThreadPoolExecutor(max_workers=60) as executor:
                statuses = list(executor.map(one_request, range(60)))

            snapshot = service.metrics.snapshot()
            # One admitted request submits one document; everything else
            # was answered at the door.
            assert snapshot["service_documents_total"] == \
                statuses.count(200)
            assert statuses.count(200) + \
                snapshot["admission_shed_queue_total"] == 60
    finally:
        service.close()


# ----------------------------------------------------------------------
# HTTP/1.1 pipelining
# ----------------------------------------------------------------------
def _pipelined_get(path: str) -> bytes:
    return (
        f"GET {path} HTTP/1.1\r\nHost: test\r\n\r\n"
    ).encode("ascii")


def _read_until_closed(sock: socket.socket) -> bytes:
    chunks = []
    while True:
        data = sock.recv(65536)
        if not data:
            return b"".join(chunks)
        chunks.append(data)


def _statuses(raw: bytes) -> list:
    # A response line follows the previous body with no separator, so
    # match the protocol marker anywhere rather than at line starts.
    return [int(code) for code in re.findall(rb"HTTP/1\.1 (\d{3}) ", raw)]


def test_pipelined_requests_answered_in_order(gateway):
    """Requests sent back-to-back without waiting are all served, with
    responses in request order (/models before /healthz here)."""
    with socket.create_connection(
        ("127.0.0.1", gateway.port), timeout=30
    ) as sock:
        sock.sendall(
            _pipelined_get("/models")
            + _pipelined_get("/healthz")
            + _pipelined_get("/healthz")
        )
        buffered = b""
        while buffered.count(b"HTTP/1.1 ") < 3:
            data = sock.recv(65536)
            assert data, f"connection closed early: {buffered!r}"
            buffered += data
    assert _statuses(buffered) == [200, 200, 200]
    assert buffered.find(b'"models"') < buffered.find(b'"status"')


def test_pipelining_beyond_cap_sheds_503_and_closes(service):
    """A client that floods 12 pipelined requests into a depth-2 gateway
    gets the queued answers, then 503 + connection close; the shed is
    counter-tracked and the gateway stays healthy for new connections."""
    with GatewayServer(service, max_pipeline=2) as gateway:
        before = service.metrics.snapshot().get(
            "gateway_pipeline_shed_total", 0
        )
        with socket.create_connection(
            ("127.0.0.1", gateway.port), timeout=30
        ) as sock:
            sock.sendall(_pipelined_get("/healthz") * 12)
            raw = _read_until_closed(sock)
        statuses = _statuses(raw)
        assert statuses[-1] == 503
        assert set(statuses[:-1]) == {200}
        assert len(statuses) <= 4  # cap + in-flight + the 503, not 12
        assert b"pipelining depth exceeded" in raw
        assert b"Connection: close" in raw
        snapshot = service.metrics.snapshot()
        assert snapshot["gateway_pipeline_shed_total"] == before + 1
        # the connection died; the gateway did not
        status, _, _ = _request(gateway, "GET", "/healthz")
        assert status == 200


# ----------------------------------------------------------------------
# degraded health
# ----------------------------------------------------------------------
def test_healthz_degrades_when_admission_saturates(registry):
    service = InferenceService(
        registry, n_workers=0, max_batch_size=8,
        metrics=MetricsRegistry(),
    )
    admission = AdmissionController(
        policies={"classify": RoutePolicy(max_inflight=1)},
        metrics=service.metrics,
    )
    try:
        with GatewayServer(service, admission=admission) as gateway:
            held = admission.admit("classify")
            assert held
            status, body, _ = _request(gateway, "GET", "/healthz")
            assert status == 503
            payload = json.loads(body)
            assert payload["status"] == "degraded"
            assert "admission queue saturated" in payload["degraded_reasons"]
            held.release()
            status, body, _ = _request(gateway, "GET", "/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "ok"
    finally:
        service.close()


def test_healthz_degrades_when_worker_pool_is_short(registry):
    class _ShortPool:
        n_workers = 2
        n_alive = 1

        def shutdown(self):
            pass

    service = InferenceService(
        registry, n_workers=0, max_batch_size=8,
        metrics=MetricsRegistry(),
    )
    try:
        with service._pools_lock:
            service._pools["short"] = (1, _ShortPool())
        health = service.health()
        assert health["status"] == "degraded"
        assert health["degraded_reasons"] == ["pool 'short' at 1/2 workers"]
        with service._pools_lock:
            service._pools.pop("short")
        assert service.health()["status"] == "ok"
    finally:
        service.close()
