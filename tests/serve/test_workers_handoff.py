"""Worker transport end to end: store-warmed serving through a forked
worker, no shared memory, crash requeue."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.data import DatasetStore
from repro.serve import InferenceService, ModelRegistry, WorkerPool
from repro.serve.metrics import MetricsRegistry
from repro.serve.workers import CRASH_CATEGORY, WorkerCrash


@pytest.fixture(scope="module")
def classifiers(fitted_pipeline):
    return fitted_pipeline.suite.classifiers


@pytest.fixture(scope="module")
def sequences():
    rng = np.random.default_rng(7)
    return [rng.random((int(length), 2)) for length in rng.integers(2, 20, 6)]


def _expected(classifiers, category, sequences):
    return classifiers[category].decision_values(sequences)


def test_serving_creates_no_shared_memory_and_no_resource_tracker():
    """Jobs travel as queue messages only: a pool's whole life leaves no
    ``psm_*`` segment behind and never starts the resource tracker
    (which every ``shared_memory`` segment would register with)."""
    script = textwrap.dedent("""
        import os
        from multiprocessing import resource_tracker
        import numpy as np
        from repro.serve.workers import WorkerPool

        class Sums:
            def decision_values(self, sequences):
                return np.array([float(s.sum()) for s in sequences])

        def segments():
            if not os.path.isdir("/dev/shm"):
                return set()
            return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}

        before = segments()
        batch = {"a": [np.ones((3, 2)), np.arange(4.0).reshape(2, 2)],
                 "b": [np.empty((0, 2))]}
        pool = WorkerPool({"a": Sums(), "b": Sums()}, n_workers=2)
        for _ in range(5):
            values = pool.evaluate_many(batch)
            assert values["a"].tolist() == [6.0, 6.0], values
            assert values["b"].tolist() == [0.0], values
        pool.shutdown()
        assert segments() <= before, segments() - before
        assert resource_tracker._resource_tracker._pid is None
    """)
    src = str(Path(repro.__file__).resolve().parents[1])
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=src),
    )
    assert completed.returncode == 0, completed.stderr


def test_store_warmed_worker_scores_like_the_cold_inline_service(
    serve_corpus, model_dir, tmp_path
):
    """A service warmed from the dataset store ships the stored
    sequences to a forked worker, and its decision values equal, bit for
    bit, those of the cold inline service that wrote the store."""
    registry = ModelRegistry(serve_corpus)
    registry.register("default", model_dir)
    store = DatasetStore(tmp_path / "store", metrics=MetricsRegistry())
    docs = list(serve_corpus.test_documents)[:5]

    first = InferenceService(
        registry, n_workers=0, max_batch_size=8,
        metrics=MetricsRegistry(), data_store=store,
    )
    try:
        baseline = first.classify(docs)
    finally:
        first.close()  # flushes misses into the store

    second = InferenceService(
        registry, n_workers=1, max_batch_size=8,
        metrics=MetricsRegistry(), data_store=store,
    )
    try:
        assert len(second.cache) > 0  # warmed before any traffic
        results = second.classify(docs)
        assert second.cache.misses == 0  # every sequence came from the store
        for ours, theirs in zip(results, baseline):
            assert ours["decision_values"] == theirs["decision_values"]
            assert ours["topics"] == theirs["topics"]
        categories = registry.get().pipeline.suite.categories
        assert second.metrics.snapshot()["pool_pickled_sequences_total"] == (
            len(docs) * len(categories)
        )
    finally:
        second.close()


# ----------------------------------------------------------------------
# crash requeue
# ----------------------------------------------------------------------
def test_batch_is_requeued_once_after_a_worker_crash(
    classifiers, sequences, monkeypatch
):
    metrics = MetricsRegistry()
    pool = WorkerPool(classifiers, n_workers=1, metrics=metrics)
    category = next(iter(classifiers))
    real_evaluate = pool.evaluate
    calls = {"n": 0}

    def crash_first(group):
        calls["n"] += 1
        if calls["n"] == 1:
            future: Future = Future()
            future.set_exception(WorkerCrash("worker died mid-batch"))
            return future
        return real_evaluate(group)

    monkeypatch.setattr(pool, "evaluate", crash_first)
    try:
        results = pool.evaluate_many({category: sequences})
        np.testing.assert_allclose(
            results[category], _expected(classifiers, category, sequences)
        )
        assert calls["n"] == 2
        assert metrics.snapshot()["serve_batch_requeues_total"] == 1
    finally:
        pool.shutdown()


def test_unrecoverable_crash_still_fails_after_one_requeue(
    classifiers, sequences
):
    """A job containing the crash category kills its worker every time:
    the pool never retries it, evaluate_many re-queues the group once."""
    metrics = MetricsRegistry()
    pool = WorkerPool(classifiers, n_workers=1, metrics=metrics)
    category = next(iter(classifiers))
    try:
        with pytest.raises(WorkerCrash):
            pool.evaluate_many({category: sequences, CRASH_CATEGORY: []})
        assert metrics.snapshot()["serve_batch_requeues_total"] == 1
        assert metrics.snapshot()["pool_jobs_total"] == 2
    finally:
        pool.shutdown()


def test_inline_crash_is_not_requeued(classifiers):
    metrics = MetricsRegistry()
    pool = WorkerPool(classifiers, n_workers=0, metrics=metrics)
    try:
        with pytest.raises(WorkerCrash):
            pool.evaluate_many({CRASH_CATEGORY: []})
        assert metrics.snapshot()["serve_batch_requeues_total"] == 0
    finally:
        pool.shutdown()
