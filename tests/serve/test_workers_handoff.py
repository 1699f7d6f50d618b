"""Worker dataset handoff: store refs, shared memory, pickling fallback."""

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
from repro.serve.workers import CRASH_CATEGORY, SequenceRef, WorkerCrash


@pytest.fixture(scope="module")
def classifiers(fitted_pipeline):
    return fitted_pipeline.suite.classifiers


@pytest.fixture(scope="module")
def sequences():
    rng = np.random.default_rng(7)
    return [rng.random((int(length), 2)) for length in rng.integers(2, 20, 6)]


def _expected(classifiers, category, sequences):
    return classifiers[category].decision_values(sequences)


def test_fresh_sequences_travel_via_shared_memory(classifiers, sequences):
    metrics = MetricsRegistry()
    pool = WorkerPool(classifiers, n_workers=1, metrics=metrics)
    try:
        category = next(iter(classifiers))
        values = pool.evaluate({category: sequences}).result(timeout=30)
        np.testing.assert_allclose(
            values[category], _expected(classifiers, category, sequences)
        )
        snapshot = metrics.snapshot()
        assert snapshot["pool_shm_sequences_total"] == len(sequences)
        assert snapshot["pool_pickled_sequences_total"] == 0
    finally:
        pool.shutdown()


def test_disabling_shared_memory_falls_back_to_pickling(
    classifiers, sequences
):
    metrics = MetricsRegistry()
    pool = WorkerPool(
        classifiers, n_workers=1, metrics=metrics, use_shared_memory=False
    )
    try:
        category = next(iter(classifiers))
        values = pool.evaluate({category: sequences}).result(timeout=30)
        np.testing.assert_allclose(
            values[category], _expected(classifiers, category, sequences)
        )
        snapshot = metrics.snapshot()
        assert snapshot["pool_pickled_sequences_total"] == len(sequences)
        assert snapshot["pool_shm_sequences_total"] == 0
    finally:
        pool.shutdown()


def test_worker_attach_leaves_the_parent_tracker_entry_alone():
    """A pool forked after the parent's resource tracker started shares
    that tracker.  Its workers' shared-memory attaches must not touch the
    parent's registration, or the parent's unlink makes the tracker
    print a ``KeyError`` (and a server dying first leaks the segment)."""
    script = textwrap.dedent("""
        import numpy as np
        from repro.serve.workers import WorkerPool

        class Sums:
            def decision_values(self, sequences):
                return np.array([float(s.sum()) for s in sequences])

        batch = {"a": [np.ones((3, 2)), np.arange(4.0).reshape(2, 2)]}
        first = WorkerPool({"a": Sums()}, n_workers=1)
        first.evaluate_many(batch)  # the parent's tracker starts here
        first.shutdown()
        second = WorkerPool({"a": Sums()}, n_workers=1)
        for _ in range(5):
            assert second.evaluate_many(batch)["a"].tolist() == [6.0, 6.0]
        second.shutdown()
    """)
    src = str(Path(repro.__file__).resolve().parents[1])
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=src),
    )
    assert completed.returncode == 0, completed.stderr
    assert "KeyError" not in completed.stderr, completed.stderr


def test_store_refs_cross_as_addresses_not_bytes(
    classifiers, sequences, tmp_path
):
    """The zero-copy contract: sequences resolved from the dataset store
    reach workers as (address, row) references -- nothing is pickled,
    nothing is copied into shared memory."""
    store = DatasetStore(tmp_path / "store", metrics=MetricsRegistry())
    key = "cafe0handoff"
    store.ingest(
        key,
        [(index, 0, sequence, f"fp-{index}")
         for index, sequence in enumerate(sequences)],
    )
    stored = store.open(key)
    refs = [
        SequenceRef(sequence, address=key, row=row)
        for row, sequence in enumerate(stored.sequences)
    ]
    metrics = MetricsRegistry()
    pool = WorkerPool(
        classifiers, n_workers=1, metrics=metrics, store_root=store.root
    )
    try:
        category = next(iter(classifiers))
        values = pool.evaluate({category: refs}).result(timeout=30)
        np.testing.assert_allclose(
            values[category],
            _expected(classifiers, category, stored.sequences),
        )
        snapshot = metrics.snapshot()
        assert snapshot["pool_store_sequences_total"] == len(refs)
        assert snapshot["pool_shm_sequences_total"] == 0
        assert snapshot["pool_pickled_sequences_total"] == 0
    finally:
        pool.shutdown()


def test_refs_without_a_store_root_still_evaluate(classifiers, sequences):
    """A pool with no store attached degrades refs to the shm path."""
    metrics = MetricsRegistry()
    pool = WorkerPool(classifiers, n_workers=1, metrics=metrics)
    refs = [SequenceRef(s, address="deadbeef", row=i)
            for i, s in enumerate(sequences)]
    try:
        category = next(iter(classifiers))
        values = pool.evaluate({category: refs}).result(timeout=30)
        np.testing.assert_allclose(
            values[category], _expected(classifiers, category, sequences)
        )
        assert metrics.snapshot()["pool_store_sequences_total"] == 0
    finally:
        pool.shutdown()


def test_mixed_batch_splits_between_store_and_shared_memory(
    classifiers, sequences, tmp_path
):
    store = DatasetStore(tmp_path / "store", metrics=MetricsRegistry())
    key = "cafe1mixed"
    store.ingest(
        key,
        [(index, 0, sequence, f"fp-{index}")
         for index, sequence in enumerate(sequences[:3])],
    )
    stored = store.open(key)
    batch = [
        SequenceRef(sequence, address=key, row=row)
        for row, sequence in enumerate(stored.sequences)
    ] + list(sequences[3:])
    metrics = MetricsRegistry()
    pool = WorkerPool(
        classifiers, n_workers=1, metrics=metrics, store_root=store.root
    )
    try:
        category = next(iter(classifiers))
        values = pool.evaluate({category: batch}).result(timeout=30)
        np.testing.assert_allclose(
            values[category],
            _expected(
                classifiers, category,
                list(stored.sequences) + list(sequences[3:]),
            ),
        )
        snapshot = metrics.snapshot()
        assert snapshot["pool_store_sequences_total"] == 3
        assert snapshot["pool_shm_sequences_total"] == len(sequences) - 3
        assert snapshot["pool_pickled_sequences_total"] == 0
    finally:
        pool.shutdown()


def test_inline_pool_unwraps_refs(classifiers, sequences):
    pool = WorkerPool(classifiers, n_workers=0)
    refs = [SequenceRef(s) for s in sequences]
    try:
        category = next(iter(classifiers))
        values = pool.evaluate({category: refs}).result(timeout=5)
        np.testing.assert_allclose(
            values[category], _expected(classifiers, category, sequences)
        )
    finally:
        pool.shutdown()


def test_store_resident_serving_pickles_nothing(
    serve_corpus, model_dir, tmp_path
):
    """End to end: a service warmed from the dataset store hands workers
    addresses, and the pickled-sequence counter stays at zero."""
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
        assert len(second.cache) > 0  # warmed with store provenance
        results = second.classify(docs)
        assert [r["topics"] for r in results] == \
            [r["topics"] for r in baseline]
        snapshot = second.metrics.snapshot()
        assert snapshot["pool_store_sequences_total"] > 0
        assert snapshot["pool_pickled_sequences_total"] == 0
        assert snapshot["pool_shm_sequences_total"] == 0
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
