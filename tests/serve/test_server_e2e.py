"""End-to-end serving: parity with the pipeline, HTTP round trip through
the gateway to a forked worker pool, metrics.

Gateway mechanics that never reach the pool (admission, pipelining) are
tested in ``test_gateway.py`` over inline evaluation.
"""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.gp.fitness import squash_output
from repro.serve import GatewayServer, InferenceService, ModelRegistry
from repro.serve.server import document_from_payload


@pytest.fixture(scope="module")
def service(serve_corpus, model_dir):
    registry = ModelRegistry(serve_corpus)
    registry.register("default", model_dir)
    service = InferenceService(
        registry, n_workers=1, max_batch_size=8
    )
    yield service
    service.close()


@pytest.fixture(scope="module")
def http_server(service):
    with GatewayServer(service) as gateway:
        yield f"http://127.0.0.1:{gateway.port}"


def _get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, response.read().decode("utf-8")


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read())


# ----------------------------------------------------------------------
# service-level behaviour
# ----------------------------------------------------------------------
def test_classify_matches_pipeline_evaluate_predictions(service, serve_corpus):
    """The acceptance bar: served decisions == ProSysPipeline.evaluate's."""
    pipeline = service.registry.get().pipeline
    docs = list(serve_corpus.test_documents)
    results = service.classify(docs)
    served = {
        category: np.array(
            [1 if category in result["topics"] else -1 for result in results]
        )
        for category in pipeline.suite.categories
    }
    for category, classifier in pipeline.suite.classifiers.items():
        dataset = pipeline.encoder.encode_dataset(
            pipeline.tokenized, pipeline.feature_set, category, "test"
        )
        np.testing.assert_array_equal(served[category], classifier.predict(dataset))


def test_classify_matches_predict_documents(service, serve_corpus):
    pipeline = service.registry.get().pipeline
    docs = list(serve_corpus.test_documents)[:10]
    results = service.classify(docs)
    assert [r["topics"] for r in results] == pipeline.predict_documents(docs)


def test_repeat_classification_hits_the_cache(service, serve_corpus):
    docs = list(serve_corpus.test_documents)[:5]
    service.classify(docs)
    hits_before = service.cache.hits
    service.classify(docs)
    assert service.cache.hits > hits_before
    assert service.snapshot()["cache_hit_rate"] > 0


def test_latency_histograms_are_populated(service, serve_corpus):
    service.classify(list(serve_corpus.test_documents)[:3])
    snapshot = service.snapshot()
    assert snapshot["service_request_seconds"]["count"] > 0
    assert snapshot["service_request_seconds"]["p50"] > 0
    assert snapshot["pool_eval_seconds"]["count"] > 0
    assert snapshot["batcher_batch_size"]["count"] > 0


def test_unknown_model_raises(service, serve_corpus):
    with pytest.raises(KeyError, match="unknown model"):
        service.classify(list(serve_corpus.test_documents)[:1], model="nope")


def test_track_reports_stream_states(
    service, serve_corpus, non_recurrent_pipeline, capped_pipeline
):
    """One state per encoded word, read the way /classify reads the text:
    the states equal the interpreter's register trace over
    ``CategoryEncoder.encode`` of the feature-selected words, and the last
    value is the decision value -- for a non-recurrent model, and for a
    capped one on texts longer than its cap."""
    pipeline = service.registry.get().pipeline
    classifier = pipeline.suite.classifiers["grain"]
    for doc in serve_corpus.test_for("grain")[:4]:
        trace = service.track(doc.text, "grain")
        tokens = pipeline.tokenized.preprocessor.tokens(doc.text)
        words = pipeline.feature_set.filter_tokens(tokens, "grain")
        encoded = pipeline.encoder.encoder_for("grain").encode(0, words)
        raw = classifier.program.trace_sequence(encoded.sequence)
        assert trace["category"] == "grain"
        assert trace["threshold"] == classifier.threshold
        assert trace["words_seen"] == len(words) > 0
        assert trace["words_encoded"] == len(encoded) == len(trace["states"])
        assert [
            (state["word"], state["position"], state["value"])
            for state in trace["states"]
        ] == [
            (word, position, float(squash_output(np.array([value]))[0]))
            for word, position, value in zip(encoded.words, encoded.positions, raw)
        ]
        for state in trace["states"]:
            assert set(state) == {"word", "position", "value", "in_class"}
            assert type(state["value"]) is float
            assert state["in_class"] is (state["value"] > classifier.threshold)
        assert trace["in_class"] is trace["states"][-1]["in_class"]
    empty = service.track("", "grain")
    assert (empty["words_seen"], empty["words_encoded"], empty["states"]) == (0, 0, [])
    assert empty["in_class"] is False
    service.registry.add_pipeline("flat", non_recurrent_pipeline)
    service.registry.add_pipeline("capped", capped_pipeline)
    try:
        for model in ("default", "flat", "capped"):
            for doc in serve_corpus.test_for("grain")[:4]:
                states = service.track(doc.text, "grain", model=model)["states"]
                [result] = service.classify(
                    [document_from_payload({"text": doc.text})], model=model
                )
                assert states[-1]["value"] == result["decision_values"]["grain"]
        cap = capped_pipeline.encoder.max_sequence_length
        long_texts = 0
        for doc in serve_corpus.test_for("grain"):
            trace = service.track(doc.text, "grain", model="capped")
            assert trace["words_encoded"] <= cap
            if service.track(doc.text, "grain")["words_encoded"] > cap:
                long_texts += 1
        assert long_texts
    finally:
        service.registry.unregister("flat")
        service.registry.unregister("capped")


def test_track_unknown_category_raises(service):
    with pytest.raises(KeyError, match="no classifier"):
        service.track("wheat tonnes", "ship")


# ----------------------------------------------------------------------
# HTTP round trip
# ----------------------------------------------------------------------
def test_healthz(http_server):
    status, body = _get(f"{http_server}/healthz")
    payload = json.loads(body)
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["models"] == ["default"]


def test_models_endpoint(http_server):
    status, body = _get(f"{http_server}/models")
    payload = json.loads(body)
    assert status == 200
    assert payload["models"][0]["name"] == "default"
    assert payload["models"][0]["categories"]


def test_http_classify_round_trip(http_server, service, serve_corpus):
    pipeline = service.registry.get().pipeline
    docs = list(serve_corpus.test_documents)[:4]
    status, payload = _post(
        f"{http_server}/classify",
        {"documents": [
            {"id": doc.doc_id, "title": doc.title, "body": doc.body}
            for doc in docs
        ]},
    )
    assert status == 200
    assert [r["topics"] for r in payload["results"]] == \
        pipeline.predict_documents(docs)
    for result in payload["results"]:
        assert set(result["decision_values"]) == set(pipeline.suite.categories)


def test_http_classify_text_only_payload(http_server):
    status, payload = _post(
        f"{http_server}/classify",
        {"documents": [{"text": "wheat corn grain tonnes shipment"}]},
    )
    assert status == 200
    assert len(payload["results"]) == 1


def test_http_track(
    http_server, service, serve_corpus, non_recurrent_pipeline, capped_pipeline
):
    """Over HTTP the trace is the service's, and its last value is the
    decision value /classify returns for the same text -- from the worker
    pool, for the recurrent model, a non-recurrent one and a capped one
    alike."""
    service.registry.add_pipeline("flat", non_recurrent_pipeline)
    service.registry.add_pipeline("capped", capped_pipeline)
    try:
        for model in ("default", "flat", "capped"):
            for doc in serve_corpus.test_for("grain")[:4]:
                status, payload = _post(f"{http_server}/track", {
                    "text": doc.text, "category": "grain", "model": model,
                })
                assert status == 200
                assert payload == service.track(doc.text, "grain", model=model)
                status, classified = _post(f"{http_server}/classify", {
                    "documents": [{"text": doc.text}], "model": model,
                })
                assert status == 200
                assert payload["states"][-1]["value"] == \
                    classified["results"][0]["decision_values"]["grain"]
                if model == "capped":
                    assert payload["words_encoded"] <= \
                        capped_pipeline.encoder.max_sequence_length
    finally:
        service.registry.unregister("flat")
        service.registry.unregister("capped")


def test_http_reload_noop(http_server):
    status, payload = _post(f"{http_server}/reload", {})
    assert status == 200
    assert payload == {"model": "default", "reloaded": False, "version": 1}


def test_http_metrics_exposition(http_server, service, serve_corpus):
    service.classify(list(serve_corpus.test_documents)[:2])
    status, body = _get(f"{http_server}/metrics")
    assert status == 200
    assert "service_request_seconds_p50" in body
    assert "cache_hit_rate" in body
    assert "pool_workers_alive" in body


def test_http_bad_request_is_400(http_server):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(f"{http_server}/classify", {"documents": []})
    assert excinfo.value.code == 400


def test_http_unknown_model_is_404(http_server):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(f"{http_server}/classify",
              {"documents": [{"text": "x y z"}], "model": "nope"})
    assert excinfo.value.code == 404


def test_http_unknown_path_is_404(http_server):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(f"{http_server}/nope")
    assert excinfo.value.code == 404


def test_hot_reload_via_http(http_server, service, model_dir, fitted_pipeline):
    import os

    from repro.persistence import save_pipeline

    save_pipeline(fitted_pipeline, model_dir)
    stat = (model_dir / "manifest.json").stat()
    os.utime(model_dir / "manifest.json", (stat.st_atime, stat.st_mtime + 7))
    status, payload = _post(f"{http_server}/reload", {})
    assert status == 200
    assert payload["reloaded"] is True
    assert payload["version"] == 2
    # The service keeps serving identical predictions with the new entry.
    status, payload = _post(
        f"{http_server}/classify", {"documents": [{"text": "wheat tonnes"}]}
    )
    assert status == 200


def test_engine_counters_visible_on_metrics(http_server, service, serve_corpus):
    """Classification runs through the fused GP engine; its shared
    counters must be folded into the service's /metrics exposition --
    including evaluations performed inside forked pool workers, whose
    per-job deltas travel back with the results."""
    from repro.corpus.document import Document

    before = service.snapshot().get("engine_programs_evaluated_total", 0)
    # Fresh documents: repeats of earlier test batches would be served
    # from the response cache without touching the engine.
    fresh = [
        Document(doc_id=990_001 + i,
                 title="grain shipment outlook",
                 body="wheat corn grain export tonnes shipment "
                      f"harvest price rise quarter {i}",
                 split="test")
        for i in range(2)
    ]
    service.classify(fresh)
    snapshot = service.snapshot()
    assert snapshot["engine_programs_evaluated_total"] > before
    assert "engine_instructions_executed_total" in snapshot
    assert "engine_cache_hits_total" in snapshot
    assert "engine_dedup_hits_total" in snapshot
    assert "engine_block_sweeps_total" in snapshot
    status, body = _get(f"{http_server}/metrics")
    assert status == 200
    assert "engine_programs_evaluated_total" in body
    assert "engine_batches_total" in body


# ----------------------------------------------------------------------
# pool construction: fork-outside-lock regression
# ----------------------------------------------------------------------
def test_concurrent_pool_for_yields_one_pool(serve_corpus, model_dir):
    """_pool_for builds the WorkerPool outside _pools_lock (a fork while
    a lock is held copies the held mutex into every worker).  The
    double-checked rebuild must still converge: racing callers all get
    the same pool, the losers' pools are shut down, and the registry
    holds exactly the winner."""
    registry = ModelRegistry(serve_corpus)
    registry.register("default", model_dir)
    service = InferenceService(
        registry, n_workers=0, max_batch_size=8
    )
    try:
        entry = service.registry.get()
        start = threading.Barrier(8)
        pools = []
        pools_lock = threading.Lock()

        def build():
            start.wait()
            pool = service._pool_for(entry)
            with pools_lock:
                pools.append(pool)

        threads = [threading.Thread(target=build) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert len(pools) == 8
        assert len({id(pool) for pool in pools}) == 1
        stored_version, stored_pool = service._pools[entry.name]
        assert stored_version == entry.version
        assert stored_pool is pools[0]
        # repeat calls keep returning the cached pool
        assert service._pool_for(entry) is stored_pool
    finally:
        service.close()
