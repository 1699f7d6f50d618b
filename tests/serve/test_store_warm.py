"""Serve <-> dataset store: LRU warm at startup, miss write-back."""

from __future__ import annotations

import pytest

from repro.data import DatasetStore
from repro.data.fingerprint import serve_miss_address
from repro.serve import InferenceService, ModelRegistry
from repro.serve.metrics import MetricsRegistry


@pytest.fixture()
def registry(serve_corpus, model_dir):
    registry = ModelRegistry(serve_corpus)
    registry.register("default", model_dir)
    return registry


def _service(registry, store):
    return InferenceService(
        registry,
        n_workers=0,
        max_batch_size=8,
        metrics=MetricsRegistry(),
        data_store=store,
    )


def test_misses_are_written_back_and_warm_a_restart(
    registry, serve_corpus, tmp_path
):
    store = DatasetStore(tmp_path / "store", metrics=MetricsRegistry())
    docs = list(serve_corpus.test_documents)[:6]

    first = _service(registry, store)
    try:
        results = first.classify(docs)
        assert len(results) == len(docs)
        assert first.cache.misses > 0
        flushed = first.flush_misses()
        assert flushed > 0
    finally:
        first.close()

    # Each category's write-back dataset is addressed by the model's
    # encoding fingerprint and carries the per-document fingerprints.
    pipeline = registry.get().pipeline
    for category in pipeline.suite.categories:
        address = serve_miss_address(
            pipeline.encoder, pipeline.feature_set, category, name="default"
        )
        stored = store.open(address)
        assert len(stored) == len(docs)
        assert all(stored.fingerprints)
        assert set(stored.labels) == {0.0}  # serve traffic is unlabelled

    second = _service(registry, store)
    try:
        assert len(second.cache) > 0  # warmed before any traffic
        warmed_metric = second.metrics.snapshot()[
            "service_cache_warmed_total"
        ]
        assert warmed_metric == len(second.cache)
        second.classify(docs)
        assert second.cache.misses == 0  # every lookup served from the warm set
        assert second.cache.hits > 0
    finally:
        second.close()


def test_write_back_is_idempotent_across_restarts(
    registry, serve_corpus, tmp_path
):
    store = DatasetStore(tmp_path / "store", metrics=MetricsRegistry())
    docs = list(serve_corpus.test_documents)[:4]
    for _ in range(2):
        service = _service(registry, store)
        try:
            service.classify(docs)
        finally:
            service.close()  # close() flushes the spool
    pipeline = registry.get().pipeline
    category = list(pipeline.suite.categories)[0]
    address = serve_miss_address(
        pipeline.encoder, pipeline.feature_set, category, name="default"
    )
    # Second run was all warm hits; nothing new was ingested.
    assert len(store.open(address)) == len(docs)


def test_flush_targets_spool_time_address_without_registry(
    registry, serve_corpus, tmp_path
):
    """Spooled misses carry their store address: a flush never re-derives
    it from the registry (which may have hot-reloaded a new encoder)."""
    store = DatasetStore(tmp_path / "store", metrics=MetricsRegistry())
    docs = list(serve_corpus.test_documents)[:3]
    service = _service(registry, store)
    try:
        pipeline = registry.get().pipeline
        expected = {
            serve_miss_address(
                pipeline.encoder, pipeline.feature_set, category, name="default"
            )
            for category in pipeline.suite.categories
        }
        service.classify(docs)
        assert set(service._miss_spool) <= expected
        # A flush must not consult the registry at all.
        service.registry = None
        assert service.flush_misses() > 0
        assert all(store.has(address) for address in expected)
    finally:
        service.registry = registry
        service.close()


def test_store_failure_never_reaches_serving(
    registry, serve_corpus, tmp_path, monkeypatch
):
    store = DatasetStore(tmp_path / "store", metrics=MetricsRegistry())
    docs = list(serve_corpus.test_documents)[:3]
    service = _service(registry, store)
    try:
        def broken_ingest(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(store, "ingest", broken_ingest)
        service.classify(docs)  # misses spool; must not raise
        assert service.flush_misses() == 0  # dropped, not raised
        snapshot = service.metrics.snapshot()
        assert snapshot["service_store_writeback_failures_total"] > 0
        assert snapshot["service_store_writebacks_total"] == 0
    finally:
        monkeypatch.undo()
        service.close()


def test_transient_warm_failure_keeps_stored_history(
    registry, serve_corpus, tmp_path, monkeypatch
):
    store = DatasetStore(tmp_path / "store", metrics=MetricsRegistry())
    docs = list(serve_corpus.test_documents)[:3]
    first = _service(registry, store)
    try:
        first.classify(docs)
    finally:
        first.close()
    written = store.keys()
    assert written

    def transient_open(*args, **kwargs):
        raise OSError("too many open files")

    monkeypatch.setattr(store, "open", transient_open)
    second = _service(registry, store)  # warms (and fails) in __init__
    try:
        assert len(second.cache) == 0
    finally:
        second.close()
    monkeypatch.undo()
    # The accumulated write-back history survived the transient error.
    assert store.keys() == written


def test_service_without_store_is_unchanged(registry, serve_corpus):
    service = InferenceService(
        registry, n_workers=0, max_batch_size=8,
        metrics=MetricsRegistry(),
    )
    try:
        assert service.flush_misses() == 0
        assert service.warm_cache() == 0
        results = service.classify(list(serve_corpus.test_documents)[:3])
        assert len(results) == 3
    finally:
        service.close()
