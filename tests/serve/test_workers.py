"""Worker pool: parity with direct evaluation, one job per worker,
the one-block transport, crash-restart, shutdown."""

import os
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


@pytest.fixture(scope="module")
def suite(classifiers):
    """Four categories over the two trained rules, so a job can carry
    several categories."""
    trained = list(classifiers.values())
    return {f"c{index}": trained[index % len(trained)] for index in range(4)}


@pytest.fixture(scope="module")
def one_worker(suite):
    metrics = MetricsRegistry()
    pool = WorkerPool(suite, n_workers=1, metrics=metrics)
    yield pool, metrics
    pool.shutdown()


#: Row counts that matter to the block layout: empty, one row, long.
_lengths = st.one_of(st.just(0), st.just(1), st.integers(0, 64))


@st.composite
def _ragged_jobs(draw):
    names = draw(st.lists(st.sampled_from(["c0", "c1", "c2", "c3"]),
                          min_size=1, max_size=4, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return {
        category: [rng.random((length, 2))
                   for length in draw(st.lists(_lengths, max_size=6))]
        for category in names
    }


@settings(max_examples=40, deadline=None)
@given(job=_ragged_jobs())
@example(job={"c0": [np.empty((0, 2)), np.ones((1, 2)),
                     np.linspace(0.0, 1.0, 200).reshape(100, 2)],
              "c1": [], "c2": [np.empty((0, 2))]})
@example(job={"c3": []})
def test_one_block_transport_is_exact(one_worker, suite, job):
    """Whatever the job's shape, a worker's values are the inline
    ``decision_values`` bit for bit, and every sequence sent counts."""
    pool, metrics = one_worker
    before = metrics.counter("pool_pickled_sequences_total").value
    values = pool.evaluate(job).result(timeout=30)
    assert list(values) == list(job)
    for category, sequences in job.items():
        assert np.array_equal(
            values[category], suite[category].decision_values(sequences)
        )
    sent = sum(len(sequences) for sequences in job.values())
    assert metrics.counter("pool_pickled_sequences_total").value == before + sent


def test_killing_idle_workers_never_stops_the_pool(classifiers, sequences):
    """Every worker SIGKILLed while waiting for work: the replacements
    take the next job (a dead reader of a shared task queue would leave
    its read lock held, and no job would be taken again)."""
    pool = WorkerPool(classifiers, n_workers=2)
    try:
        category = next(iter(classifiers))
        baseline = pool.evaluate({category: sequences}).result(timeout=30)
        time.sleep(0.2)  # let the result's sender go back to waiting
        for pid in pool.worker_pids:
            os.kill(pid, signal.SIGKILL)
        deadline = time.time() + 30
        while time.time() < deadline and pool.n_restarts < 2:
            time.sleep(0.05)
        assert pool.n_restarts == 2
        values = pool.evaluate({category: sequences}).result(timeout=10)
        assert np.array_equal(values[category], baseline[category])
    finally:
        pool.shutdown()


def test_crashes_among_concurrent_jobs_all_resolve(classifiers, sequences):
    """More workers than cores, four submitting threads, a simulated
    crash every few jobs: every future resolves -- a crash job to
    WorkerCrash, any other to its values (or to WorkerCrash once the
    crashes around it spent its retries) -- and none is left pending."""
    category = next(iter(classifiers))
    expected = classifiers[category].decision_values(sequences)
    pool = WorkerPool(classifiers, n_workers=3)

    def submit(thread):
        submitted = []
        for index in range(20):
            crash = (index + thread) % 7 == 0
            job = {CRASH_CATEGORY: []} if crash else {category: sequences}
            submitted.append((crash, pool.evaluate(job)))
        return submitted

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as executor:
            jobs = [job for jobs in executor.map(submit, range(4)) for job in jobs]
    finally:
        sys.setswitchinterval(interval)
    try:
        answered = 0
        for crash, future in jobs:
            if crash:
                with pytest.raises(WorkerCrash):
                    future.result(timeout=60)
                continue
            try:
                values = future.result(timeout=60)
            except WorkerCrash:
                continue
            assert np.array_equal(values[category], expected)
            answered += 1
        assert answered > 0
        assert pool.metrics.counter("pool_jobs_total").value == len(jobs)
        assert not pool._pending
        values = pool.evaluate({category: sequences}).result(timeout=30)
        assert np.array_equal(values[category], expected)
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
