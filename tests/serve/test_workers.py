"""Worker pool: parity with direct evaluation, one job per worker,
crash-restart, shutdown."""

import time

import numpy as np
import pytest

from repro.serve.metrics import MetricsRegistry
from repro.serve.workers import (
    CRASH_CATEGORY,
    PoolClosed,
    WorkerCrash,
    WorkerPool,
)


@pytest.fixture(scope="module")
def classifiers(fitted_pipeline):
    return fitted_pipeline.suite.classifiers


@pytest.fixture(scope="module")
def sequences():
    rng = np.random.default_rng(0)
    return [rng.random((int(length), 2)) for length in rng.integers(1, 20, 8)]


@pytest.fixture()
def pool(classifiers):
    pool = WorkerPool(classifiers, n_workers=2)
    yield pool
    pool.shutdown()


def test_inline_mode_matches_direct_evaluation(classifiers, sequences):
    pool = WorkerPool(classifiers, n_workers=0)
    try:
        for category, classifier in classifiers.items():
            values = pool.evaluate({category: sequences}).result(timeout=30)
            np.testing.assert_allclose(
                values[category], classifier.decision_values(sequences)
            )
    finally:
        pool.shutdown()


def test_process_mode_matches_direct_evaluation(pool, classifiers, sequences):
    for category, classifier in classifiers.items():
        values = pool.evaluate({category: sequences}).result(timeout=30)
        np.testing.assert_allclose(
            values[category], classifier.decision_values(sequences)
        )


def test_evaluate_many_fans_across_categories(pool, classifiers, sequences):
    results = pool.evaluate_many(
        {category: sequences for category in classifiers}
    )
    assert set(results) == set(classifiers)
    for category, classifier in classifiers.items():
        np.testing.assert_allclose(
            results[category], classifier.decision_values(sequences)
        )


def test_evaluate_many_sends_one_job_per_worker(classifiers):
    """Ten categories on two workers are two jobs, and every category's
    values are its classifier's, bit for bit."""
    trained = list(classifiers.values())
    suite = {f"c{index}": trained[index % len(trained)] for index in range(10)}
    rng = np.random.default_rng(3)
    batch = {
        category: [rng.random((int(length), 2))
                   for length in rng.integers(1, 20, 2 + index % 3)]
        for index, category in enumerate(suite)
    }
    metrics = MetricsRegistry()
    pool = WorkerPool(suite, n_workers=2, metrics=metrics)
    try:
        results = pool.evaluate_many(batch)
        assert metrics.counter("pool_jobs_total").value == 2
        assert list(results) == list(suite)
        for category, classifier in suite.items():
            assert np.array_equal(
                results[category], classifier.decision_values(batch[category])
            )
    finally:
        pool.shutdown()


def test_unknown_category_fails_the_future(pool, classifiers, sequences):
    with pytest.raises(KeyError, match="no classifier"):
        pool.evaluate({"nope": []}).result(timeout=5)
    known = next(iter(classifiers))
    with pytest.raises(KeyError, match="no classifier"):
        pool.evaluate({known: sequences, "nope": []}).result(timeout=5)


def test_crash_restart_replaces_the_worker(classifiers, sequences):
    metrics = MetricsRegistry()
    pool = WorkerPool(classifiers, n_workers=2, metrics=metrics)
    try:
        category = next(iter(classifiers))
        baseline = pool.evaluate({category: sequences}).result(timeout=30)
        pids_before = set(pool.worker_pids)

        with pytest.raises(WorkerCrash):
            pool.evaluate({CRASH_CATEGORY: []}).result(timeout=30)

        deadline = time.time() + 30
        while time.time() < deadline and pool.n_restarts < 1:
            time.sleep(0.05)
        assert pool.n_restarts >= 1
        deadline = time.time() + 30
        while time.time() < deadline and len(pool.worker_pids) < 2:
            time.sleep(0.05)
        assert len(pool.worker_pids) == 2
        assert set(pool.worker_pids) != pids_before

        # The pool keeps serving correct results after the crash.
        values = pool.evaluate({category: sequences}).result(timeout=30)
        np.testing.assert_allclose(values[category], baseline[category])
        assert metrics.counter("pool_worker_restarts_total").value >= 1
    finally:
        pool.shutdown()


def test_inline_crash_category_fails_immediately(classifiers):
    pool = WorkerPool(classifiers, n_workers=0)
    try:
        with pytest.raises(WorkerCrash):
            pool.evaluate({CRASH_CATEGORY: []}).result(timeout=5)
    finally:
        pool.shutdown()


def test_shutdown_rejects_new_work(classifiers):
    pool = WorkerPool(classifiers, n_workers=1)
    pool.shutdown()
    with pytest.raises(PoolClosed):
        pool.evaluate({next(iter(classifiers)): []})


def test_shutdown_is_idempotent(classifiers):
    pool = WorkerPool(classifiers, n_workers=1)
    pool.shutdown()
    pool.shutdown()


def test_negative_worker_count_rejected(classifiers):
    with pytest.raises(ValueError):
        WorkerPool(classifiers, n_workers=-1)


def test_latency_histogram_records_jobs(classifiers, sequences):
    metrics = MetricsRegistry()
    pool = WorkerPool(classifiers, n_workers=1, metrics=metrics)
    try:
        category = next(iter(classifiers))
        pool.evaluate({category: sequences}).result(timeout=30)
        assert metrics.histogram("pool_eval_seconds").count >= 1
        assert metrics.counter("pool_jobs_total").value >= 1
    finally:
        pool.shutdown()
