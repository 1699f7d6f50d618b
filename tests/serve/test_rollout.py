"""Shadow/canary rollout: gates, determinism, and both end-to-end verdicts."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.runtime.events import EventBus
from repro.serve import (
    GatewayServer,
    InferenceService,
    ModelRegistry,
    RolloutConfig,
    RolloutManager,
)
from repro.serve.metrics import MetricsRegistry
from repro.serve.rollout import _FractionGate


def _result(doc, topics, value):
    return {
        "doc_id": doc, "model": "m", "topics": list(topics),
        "decision_values": {"earn": value},
    }


def _wait_for(predicate, timeout=30.0):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


# ----------------------------------------------------------------------
# unit level: selection, config, gates
# ----------------------------------------------------------------------
def test_fraction_gate_is_deterministic_and_low_discrepancy():
    first_gate = _FractionGate(0.25)
    takes = [first_gate.take() for _ in range(100)]
    second_gate = _FractionGate(0.25)
    again = [second_gate.take() for _ in range(100)]
    assert takes == again
    assert sum(takes) == 25
    full_gate = _FractionGate(1.0)
    assert all(full_gate.take() for _ in range(10))


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ValueError, match="unknown rollout config keys"):
        RolloutConfig.from_payload({"shadow": 0.5})
    with pytest.raises(ValueError, match="shadow_fraction"):
        RolloutConfig(shadow_fraction=0.0)
    with pytest.raises(ValueError, match="min_samples"):
        RolloutConfig(min_samples=0)
    with pytest.raises(ValueError, match="canary_fraction"):
        RolloutConfig(canary_fraction=1.5)


def _manager(evaluate, promote=None, config=None, events=None, metrics=None):
    return RolloutManager(
        "incumbent", "candidate",
        evaluate=evaluate,
        promote=promote if promote is not None else (lambda: None),
        config=config,
        events=events,
        metrics=metrics if metrics is not None else MetricsRegistry(),
    )


def test_identical_candidate_walks_shadow_to_promoted():
    promotions = []
    events = []
    config = RolloutConfig(min_samples=4, canary_fraction=1.0,
                           max_latency_ratio=10_000.0)
    manager = _manager(
        lambda model, docs: [_result(d, ["earn"], 0.5) for d in docs],
        promote=lambda: promotions.append(True),
        config=config,
        events=EventBus([events.append]),
    )
    try:
        batch = list(range(4))
        results = [_result(d, ["earn"], 0.5) for d in batch]
        assert manager.intercept(batch, results, 0.01) == results
        assert _wait_for(lambda: manager.state == "canary")
        served = manager.intercept(batch, results, 0.01)
        assert served == results  # identical candidate, identical answers
        assert manager.state == "promoted"
        assert promotions == [True]
        kinds = [event.kind for event in events]
        assert kinds == ["rollout_started", "rollout_phase",
                         "rollout_finished"]
        assert events[-1].payload["state"] == "promoted"
        report = manager.report()
        assert report["finished"] is True
        assert report["phases"]["shadow"]["samples"] == 4
        assert report["phases"]["canary"]["agreement_rate"] == 1.0
    finally:
        manager.close()


def test_divergent_decision_values_roll_back_in_shadow():
    metrics = MetricsRegistry()
    manager = _manager(
        lambda model, docs: [_result(d, ["earn"], 9.0) for d in docs],
        config=RolloutConfig(min_samples=3, max_latency_ratio=10_000.0),
        metrics=metrics,
    )
    try:
        batch = list(range(3))
        results = [_result(d, ["earn"], 0.5) for d in batch]
        manager.intercept(batch, results, 0.01)
        assert _wait_for(lambda: manager.finished)
        report = manager.report()
        assert report["state"] == "rolled_back"
        assert "divergence" in report["reason"]
        assert metrics.snapshot()["rollout_state"] == -1.0
    finally:
        manager.close()


def test_slow_candidate_fails_the_latency_gate():
    def slow_evaluate(model, docs):
        time.sleep(0.05)
        return [_result(d, ["earn"], 0.5) for d in docs]

    manager = _manager(
        slow_evaluate,
        config=RolloutConfig(min_samples=2, max_latency_ratio=2.0),
    )
    try:
        batch = [1, 2]
        results = [_result(d, ["earn"], 0.5) for d in batch]
        manager.intercept(batch, results, 1e-6)
        assert _wait_for(lambda: manager.finished)
        report = manager.report()
        assert report["state"] == "rolled_back"
        assert "latency ratio" in report["reason"]
    finally:
        manager.close()


def test_candidate_crash_is_a_rollback_not_a_serving_error():
    def broken_evaluate(model, docs):
        raise RuntimeError("candidate model exploded")

    manager = _manager(
        broken_evaluate, config=RolloutConfig(min_samples=1)
    )
    try:
        results = [_result(1, ["earn"], 0.5)]
        served = manager.intercept([1], results, 0.01)
        assert served == results  # serving was never disturbed
        assert _wait_for(lambda: manager.finished)
        report = manager.report()
        assert report["state"] == "rolled_back"
        assert "candidate evaluation failed" in report["reason"]
    finally:
        manager.close()


def test_mirror_overflow_drops_batches_without_blocking():
    release = threading.Event()

    def stalled_evaluate(model, docs):
        release.wait(timeout=30)
        return [_result(d, ["earn"], 0.5) for d in docs]

    metrics = MetricsRegistry()
    manager = _manager(
        stalled_evaluate,
        config=RolloutConfig(min_samples=1000, mirror_queue=1),
        metrics=metrics,
    )
    try:
        results = [_result(1, ["earn"], 0.5)]
        for _ in range(8):  # mirror thread is stalled; queue holds one
            manager.intercept([1], results, 0.001)
        assert metrics.snapshot()["rollout_mirror_dropped_total"] > 0
    finally:
        release.set()
        manager.close()


def test_abort_is_terminal_and_intercept_becomes_a_no_op():
    manager = _manager(
        lambda model, docs: [_result(d, ["earn"], 0.5) for d in docs],
        config=RolloutConfig(min_samples=1),
    )
    try:
        manager.abort("operator said so")
        assert manager.state == "aborted"
        assert not manager.wants("incumbent")
        results = [_result(1, ["earn"], 0.5)]
        assert manager.intercept([1], results, 0.01) == results
        assert manager.report()["phases"]["shadow"]["samples"] == 0
    finally:
        manager.close()


# ----------------------------------------------------------------------
# end to end through the service and gateway
# ----------------------------------------------------------------------
@pytest.fixture()
def rollout_service(serve_corpus, model_dir):
    registry = ModelRegistry(serve_corpus)
    registry.register("incumbent", model_dir)
    registry.register("retrained", model_dir)
    events = []
    service = InferenceService(
        registry, n_workers=0, max_batch_size=8,
        metrics=MetricsRegistry(), events=EventBus([events.append]),
    )
    yield service, events
    service.close()


_E2E_CONFIG = {
    "shadow_fraction": 1.0,
    "canary_fraction": 1.0,
    "min_samples": 6,
    "max_latency_ratio": 10_000.0,
}


def _drive_until_finished(service, docs, timeout=60.0):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        report = service.rollout_report()
        if report["finished"]:
            return report
        service.classify(docs)
    return service.rollout_report()


def test_identical_candidate_is_auto_promoted_end_to_end(
    rollout_service, serve_corpus
):
    service, events = rollout_service
    docs = list(serve_corpus.test_documents)[:6]
    assert service.rollout_report() is None
    report = service.start_rollout("retrained", config=_E2E_CONFIG)
    assert report["state"] == "shadow"
    report = _drive_until_finished(service, docs)
    assert report["state"] == "promoted"
    assert service.registry.default_name == "retrained"
    assert report["phases"]["shadow"]["samples"] >= 6
    assert report["phases"]["canary"]["samples"] >= 6
    assert report["phases"]["canary"]["agreement_rate"] == 1.0
    kinds = [event.kind for event in events]
    assert "rollout_started" in kinds
    assert "rollout_phase" in kinds
    assert "rollout_finished" in kinds
    finished = [e for e in events if e.kind == "rollout_finished"][-1]
    assert finished.payload["state"] == "promoted"
    assert finished.path == "serve/rollout/retrained"


def test_perturbed_candidate_is_auto_rolled_back_end_to_end(
    rollout_service, serve_corpus
):
    service, events = rollout_service
    # Perturb the candidate's decision rule: with every threshold forced
    # low it asserts every topic on every document, so its topic sets
    # diverge from the incumbent's and the agreement gate must trip.
    candidate = service.registry.get("retrained").pipeline
    for classifier in candidate.suite.classifiers.values():
        classifier.threshold = -1e9
    docs = list(serve_corpus.test_documents)[:6]
    service.start_rollout("retrained", config=_E2E_CONFIG)
    report = _drive_until_finished(service, docs)
    assert report["state"] == "rolled_back"
    assert "agreement" in report["reason"]
    assert service.registry.default_name == "incumbent"  # untouched
    finished = [e for e in events if e.kind == "rollout_finished"][-1]
    assert finished.payload["state"] == "rolled_back"


def test_only_one_live_rollout_and_abort_clears_it(rollout_service):
    service, _ = rollout_service
    service.start_rollout("retrained", config=_E2E_CONFIG)
    with pytest.raises(ValueError, match="already"):
        service.start_rollout("retrained", config=_E2E_CONFIG)
    report = service.abort_rollout()
    assert report["state"] == "aborted"
    # A finished rollout no longer blocks the next one.
    report = service.start_rollout("retrained", config=_E2E_CONFIG)
    assert report["state"] == "shadow"


def test_rollout_lifecycle_over_the_gateway(rollout_service, serve_corpus):
    import http.client

    service, _ = rollout_service
    docs = list(serve_corpus.test_documents)[:6]
    payloads = [
        {"id": doc.doc_id, "title": doc.title, "body": doc.body}
        for doc in docs
    ]
    with GatewayServer(service) as gateway:
        def call(method, path, payload=None):
            connection = http.client.HTTPConnection(
                "127.0.0.1", gateway.port, timeout=60
            )
            try:
                body = (json.dumps(payload).encode()
                        if payload is not None else None)
                connection.request(method, path, body=body)
                response = connection.getresponse()
                return response.status, json.loads(response.read())
            finally:
                connection.close()

        status, body = call("GET", "/rollout")
        assert status == 404
        status, body = call("POST", "/rollout", {
            "candidate": "retrained", "config": _E2E_CONFIG,
        })
        assert status == 200
        assert body["state"] == "shadow"
        deadline = time.perf_counter() + 60
        while time.perf_counter() < deadline:
            status, body = call("GET", "/rollout")
            assert status == 200
            if body["finished"]:
                break
            call("POST", "/classify", {"documents": payloads})
        assert body["state"] == "promoted"
        status, body = call("DELETE", "/rollout")
        assert status == 200  # finished rollout still reports on DELETE
