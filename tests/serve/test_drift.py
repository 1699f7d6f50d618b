"""Serving-side drift detection: the monitor wiring and the /drift view."""

import json
import urllib.request

import pytest

from repro.serve import GatewayServer, InferenceService, ModelRegistry


@pytest.fixture(scope="module")
def drift_service(serve_corpus, model_dir):
    registry = ModelRegistry(serve_corpus)
    registry.register("default", model_dir)
    service = InferenceService(
        registry,
        n_workers=1,
        max_batch_size=8,
        drift_detect=True,
    )
    yield service
    service.close()


@pytest.fixture(scope="module")
def drift_http(drift_service):
    with GatewayServer(drift_service) as gateway:
        yield f"http://127.0.0.1:{gateway.port}"


def test_drift_detection_is_off_by_default(serve_corpus, model_dir):
    registry = ModelRegistry(serve_corpus)
    registry.register("default", model_dir)
    service = InferenceService(registry, n_workers=1)
    try:
        assert service.drift_monitor() is None
        assert service.drift_report() == {"model": "default", "enabled": False}
    finally:
        service.close()


def test_classification_feeds_the_drift_monitor(drift_service, serve_corpus):
    docs = list(serve_corpus.test_documents)[:5]
    drift_service.classify(docs)
    monitor = drift_service.drift_monitor()
    assert monitor is not None
    report = monitor.report()
    for category in ("earn", "grain"):
        assert report["categories"][category]["observed"] >= len(docs)


def test_drift_metrics_land_on_the_service_registry(drift_service, serve_corpus):
    drift_service.classify(list(serve_corpus.test_documents)[:2])
    snapshot = drift_service.snapshot()
    assert snapshot["drift_documents_total"] > 0
    assert "drift_statistic_earn" in snapshot
    assert "drift_encode_rate_grain" in snapshot


def test_monitor_is_per_model_and_stable_across_calls(drift_service):
    assert drift_service.drift_monitor() is drift_service.drift_monitor("default")


def test_http_drift_view(drift_http, drift_service, serve_corpus):
    drift_service.classify(list(serve_corpus.test_documents)[:3])
    with urllib.request.urlopen(f"{drift_http}/drift", timeout=30) as response:
        assert response.status == 200
        report = json.loads(response.read())
    assert report["enabled"] is True
    assert report["model"] == "default"
    assert report["drifted"] == []
    assert set(report["categories"]) == {"earn", "grain"}
    for state in report["categories"].values():
        assert state["observed"] > 0
        assert not state["drifted"]
