"""Multiprocessing worker pool for per-category RLGP evaluation.

Encoding happens in the front-end (it is cheap, cacheable and shares the
encoder's BMU cache); the register-machine evaluation of a batch is the
CPU-bound part, and it parallelises naturally across *categories* — each
one-vs-rest classifier scores the batch independently.
:meth:`WorkerPool.evaluate_many` splits a batch's categories into one
group per worker (``min(n_workers, n_categories)`` groups, one in inline
mode) and submits one job per group: a job scores all of its categories
and comes back as ``{category: values}``, so a batch costs as many queue
round trips as there are workers, not categories.

Transport: every worker reads its own task queue, and the parent assigns
a job to the live worker with the fewest unfinished jobs when it submits
it.  A job is one message on that queue, ``(job_id, layout, row counts,
block)``: ``block`` holds every sequence of the job concatenated as
float64 rows, and the worker slices it back into one view per sequence.
A served job is a few encoded words per document and category, so one
pickled block is all the transport there is; the sequences it carries
are counted in ``pool_pickled_sequences_total``.

Supervision: the parent knows which worker holds each job, so when a
worker dies, busy or idle, the monitor thread starts a replacement,
retires the dead worker's queue and resubmits its unfinished jobs (up to
a fixed retry bound; a job naming :data:`CRASH_CATEGORY` is never
retried).  No worker waits on a lock another worker can die holding, so
a killed worker never stops the pool taking jobs.  A group orphaned by a
crash is re-queued once by :meth:`WorkerPool.evaluate_many`
(``serve_batch_requeues_total``) before the failure reaches callers.
``n_workers=0`` degrades to inline evaluation in the calling thread (no
processes), which keeps unit tests and single-core deployments simple.

The pool prefers the ``fork`` start method (workers inherit the evolved
programs for free) and falls back to ``spawn``, where the classifier
table is pickled to each worker once at startup.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import signal
import threading
import time
import traceback
from concurrent.futures import Future
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.classify.binary import RlgpBinaryClassifier
from repro.gp.engine import shared_metrics
from repro.runtime.parallel import split_evenly
from repro.serve.metrics import MetricsRegistry

#: Reserved category that makes a worker die abruptly (``os._exit``).
#: Exists so operators and tests can exercise the crash-restart path of a
#: live pool without attaching a debugger.
CRASH_CATEGORY = "__crash__"

#: Resubmissions of a job whose workers died before its future fails
#: with :class:`WorkerCrash`.
_MAX_RETRIES = 2

#: Seconds between the monitor's liveness sweeps.
_MONITOR_INTERVAL = 0.1


class WorkerCrash(RuntimeError):
    """The worker evaluating a job died before producing a result."""


class PoolClosed(RuntimeError):
    """Raised by :meth:`WorkerPool.evaluate` after shutdown."""


def _engine_counter_values() -> Dict[str, float]:
    """Current values of the shared GP-engine counters (``*_total``)."""
    return {
        name: value
        for name, value in shared_metrics().snapshot().items()
        if name.startswith("engine_") and name.endswith("_total")
    }


def _pack_job(sequences_by_category: Mapping[str, Sequence]):
    """A job's ``(category, count)`` layout, the row count of each
    sequence, and every sequence's rows concatenated into one block."""
    layout: List[Tuple[str, int]] = []
    lengths: List[int] = []
    rows: List[np.ndarray] = []
    for category, sequences in sequences_by_category.items():
        arrays = [np.asarray(sequence, dtype=np.float64) for sequence in sequences]
        layout.append((category, len(arrays)))
        lengths.extend(len(array) for array in arrays)
        rows.extend(array for array in arrays if len(array))
    # With no rows at all (no sequences, or only empty ones) the block is
    # empty too; np.concatenate refuses an empty list.
    block = np.concatenate(rows) if rows else np.empty((0, 0))
    return layout, lengths, block


def _unpack_rows(block: np.ndarray, lengths: Sequence[int]) -> List[np.ndarray]:
    """One view of ``block`` per sequence, ``lengths`` rows each."""
    views = []
    start = 0
    for length in lengths:
        views.append(block[start:start + length])
        start += length
    return views


def _score(classifiers, layout, sequences) -> Dict[str, np.ndarray]:
    """Decision values per category of a job; ``layout`` lists
    ``(category, count)`` runs of the flat ``sequences``."""
    values: Dict[str, np.ndarray] = {}
    start = 0
    for category, count in layout:
        values[category] = np.asarray(
            classifiers[category].decision_values(
                sequences[start:start + count]
            )
        )
        start += count
    return values


def _worker_main(classifiers, task_queue, result_queue):
    """Worker process body: take a job, evaluate, report — until the
    stop sentinel, on which it returns."""
    # A terminal Ctrl-C reaches the whole foreground process group;
    # shutdown is the parent's job (sentinel / terminate), so workers
    # must not die mid-protocol with a KeyboardInterrupt traceback.
    # SIGTERM goes back to its default action (the serving parent may
    # have turned it into Ctrl-C), so terminate() still kills a stuck
    # worker.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    while True:
        message = task_queue.get()
        if message is None:
            return
        job_id, layout, lengths, block = message
        if any(category == CRASH_CATEGORY for category, _ in layout):
            # Simulated hard crash.  Flush earlier results first: one
            # still in the feeder thread could be cut off mid-write,
            # holding the result queue's cross-process write lock.
            result_queue.close()
            result_queue.join_thread()
            os._exit(1)
        try:
            # Engine counters tick in *this* process's shared registry,
            # invisible to the parent; ship the per-job deltas back so
            # the service's /metrics reflects worker activity.
            before = _engine_counter_values()
            values = _score(classifiers, layout, _unpack_rows(block, lengths))
            deltas = {
                name: after - before.get(name, 0.0)
                for name, after in _engine_counter_values().items()
            }
            result_queue.put(("done", job_id, values, deltas))
        except BaseException:  # noqa: BLE001 - reported to the parent
            result_queue.put(("error", job_id, traceback.format_exc()))


def _retire(tasks) -> None:
    """Close a task queue without joining its feeder thread: the reader
    may be dead, and a feeder stuck on a full pipe must not hang exit."""
    tasks.cancel_join_thread()
    tasks.close()


class _Worker:
    __slots__ = ("worker_id", "process", "tasks")

    def __init__(self, worker_id, process, tasks):
        self.worker_id = worker_id
        self.process = process
        self.tasks = tasks


class _Job:
    __slots__ = ("job_id", "categories", "message", "future", "worker_id",
                 "submitted_at", "retries")

    def __init__(self, job_id, layout, lengths, block):
        self.job_id = job_id
        self.categories = [category for category, _ in layout]
        self.message = (job_id, layout, lengths, block)
        self.future: Future = Future()
        self.worker_id: Optional[int] = None
        self.submitted_at = time.perf_counter()
        self.retries = 0


class WorkerPool:
    """Fans per-category evaluation across worker processes, one job
    (a group of categories) per worker.

    Args:
        classifiers: category -> trained binary classifier (as in
            ``OneVsRestRlgp.classifiers``).
        n_workers: process count; 0 evaluates inline with no processes.
        metrics: optional shared registry (``pool_*`` series).
    """

    def __init__(
        self,
        classifiers: Mapping[str, RlgpBinaryClassifier],
        n_workers: int = 1,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if n_workers < 0:
            raise ValueError(f"n_workers must be >= 0, got {n_workers}")
        self.classifiers = dict(classifiers)
        self.n_workers = n_workers
        self.metrics = metrics if metrics is not None else MetricsRegistry()

        self._restarts = self.metrics.counter(
            "pool_worker_restarts_total", "workers respawned after a crash"
        )
        self._alive_gauge = self.metrics.gauge("pool_workers_alive", "live workers")
        self._latency = self.metrics.histogram(
            "pool_eval_seconds", "job latency: submit to result"
        )
        self._jobs_total = self.metrics.counter("pool_jobs_total", "jobs submitted")
        self._requeues = self.metrics.counter(
            "serve_batch_requeues_total",
            "batches re-queued once after a worker crash",
        )
        self._pickled_seqs = self.metrics.counter(
            "pool_pickled_sequences_total",
            "sequences shipped to worker processes in job messages",
        )

        self._closed = False
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self._pending: Dict[int, _Job] = {}  # guarded by _lock
        self._next_job_id = 0  # guarded by _lock
        self._next_worker_id = 0  # guarded by _lock
        self._workers: Dict[int, _Worker] = {}  # guarded by _lock

        if n_workers == 0:
            self._context = None
            self._alive_gauge.set(0)
            return

        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._context = multiprocessing.get_context("spawn")
        self._result_queue = self._context.Queue()
        for _ in range(n_workers):
            worker = self._start_worker()
            with self._lock:
                self._workers[worker.worker_id] = worker
        self._alive_gauge.set(n_workers)
        self._collector = threading.Thread(
            target=self._collect_loop, name="pool-collector", daemon=True
        )
        self._collector.start()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="pool-monitor", daemon=True
        )
        self._monitor.start()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def evaluate(self, sequences_by_category: Mapping[str, Sequence]) -> Future:
        """Submit one job scoring every category of the mapping.

        Resolves to ``{category: decision values}``.  The job travels to
        one worker as one message carrying all of its sequences.  A job
        that names :data:`CRASH_CATEGORY` kills the worker that runs it.
        """
        if self._closed:
            raise PoolClosed("worker pool is shut down")
        for category in sequences_by_category:
            if category != CRASH_CATEGORY and category not in self.classifiers:
                future: Future = Future()
                future.set_exception(
                    KeyError(f"pool has no classifier for category {category!r}")
                )
                return future
        self._jobs_total.inc()
        if self.n_workers == 0:
            return self._evaluate_inline(sequences_by_category)
        layout, lengths, block = _pack_job(sequences_by_category)
        self._pickled_seqs.inc(len(lengths))
        with self._lock:
            job = _Job(self._next_job_id, layout, lengths, block)
            self._next_job_id += 1
            self._pending[job.job_id] = job
        self._dispatch(job)
        return job.future

    def evaluate_many(
        self, sequences_by_category: Mapping[str, Sequence]
    ) -> Dict[str, np.ndarray]:
        """Score one batch for every category and block for the results.

        The categories are split into ``min(n_workers, n_categories)``
        contiguous groups (one inline) and each group is one
        :meth:`evaluate` job.  A group whose job is killed by a worker
        crash is re-queued once (``serve_batch_requeues_total``) before
        the crash is allowed to reach the caller: by then the monitor
        has respawned workers, so a single mid-batch death costs
        latency, not errors.
        """
        groups = [
            {category: sequences_by_category[category] for category in names}
            for names in split_evenly(
                list(sequences_by_category), max(1, self.n_workers)
            )
        ]
        futures = [self.evaluate(group) for group in groups]
        results: Dict[str, np.ndarray] = {}
        for group, future in zip(groups, futures):
            try:
                results.update(future.result())
            except WorkerCrash:
                if self._closed or self.n_workers == 0:
                    raise  # nobody left to run a retry; fail honestly
                self._requeues.inc()
                results.update(self.evaluate(group).result())
        return results

    @property
    def n_restarts(self) -> int:
        return int(self._restarts.value)

    @property
    def n_alive(self) -> int:
        """Live worker processes right now (0 in inline mode)."""
        if self.n_workers == 0:
            return 0
        with self._lock:
            return sum(
                1 for worker in self._workers.values()
                if worker.process.is_alive()
            )

    @property
    def worker_pids(self) -> List[int]:
        with self._lock:
            return [
                worker.process.pid for worker in self._workers.values()
                if worker.process.pid is not None
            ]

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop accepting jobs, drain workers, fail leftover futures."""
        if self._closed:
            return
        self._closed = True
        if self.n_workers == 0:
            return
        # No replacement may start once the workers are told to stop.
        self._stopping.set()
        self._monitor.join(timeout=timeout)
        with self._lock:
            workers = list(self._workers.values())
        for worker in workers:
            worker.tasks.put(None)
        deadline = time.monotonic() + timeout
        for worker in workers:
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            _retire(worker.tasks)
        self._collector.join(timeout=1.0)
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for job in pending:
            if not job.future.done():
                job.future.set_exception(PoolClosed("pool shut down"))
        self._alive_gauge.set(0)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _dispatch(self, job: _Job) -> None:
        """Assign a pending job to the live worker with the fewest
        unfinished jobs and put it on that worker's queue."""
        with self._lock:
            if self._pending.get(job.job_id) is not job:
                return  # resolved while it waited to be resubmitted
            load = {worker_id: 0 for worker_id in self._workers}
            for pending in self._pending.values():
                if pending.worker_id in load:
                    load[pending.worker_id] += 1
            candidates = [
                worker for worker in self._workers.values()
                if worker.process.is_alive()
            ] or list(self._workers.values())
            worker = min(candidates, key=lambda worker: load[worker.worker_id])
            job.worker_id = worker.worker_id
            worker.tasks.put(job.message)

    def _evaluate_inline(self, sequences_by_category) -> Future:
        future: Future = Future()
        start = time.perf_counter()
        try:
            if CRASH_CATEGORY in sequences_by_category:
                raise WorkerCrash("crash requested with no worker processes")
            future.set_result({
                category: np.asarray(
                    self.classifiers[category].decision_values(sequences)
                )
                for category, sequences in sequences_by_category.items()
            })
        except BaseException as error:  # noqa: BLE001
            future.set_exception(error)
        self._latency.observe(time.perf_counter() - start)
        return future

    def _start_worker(self) -> _Worker:
        """Fork (or spawn) one worker with a task queue of its own.

        The caller publishes it in ``_workers``, which holds started
        processes only: the monitor and shutdown() join whatever they
        find there, and joining a never-started process raises.
        """
        with self._lock:
            worker_id = self._next_worker_id
            self._next_worker_id += 1
        tasks = self._context.Queue()
        process = self._context.Process(
            target=_worker_main,
            args=(self.classifiers, tasks, self._result_queue),
            name=f"rlgp-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        return _Worker(worker_id, process, tasks)

    def _collect_loop(self) -> None:
        while not self._closed:
            try:
                message = self._result_queue.get(timeout=0.1)
            except queue_module.Empty:
                continue
            kind = message[0]
            if kind == "done":
                _, job_id, values, deltas = message
                registry = shared_metrics()
                for name, delta in deltas.items():
                    if delta > 0:
                        registry.counter(name).inc(delta)
                with self._lock:
                    job = self._pending.pop(job_id, None)
                if job is not None:
                    self._latency.observe(time.perf_counter() - job.submitted_at)
                    job.future.set_result(values)
            elif kind == "error":
                _, job_id, text = message
                with self._lock:
                    job = self._pending.pop(job_id, None)
                if job is not None:
                    job.future.set_exception(
                        RuntimeError(f"worker evaluation failed:\n{text}")
                    )

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(_MONITOR_INTERVAL):
            with self._lock:
                dead = [
                    worker for worker in self._workers.values()
                    if not worker.process.is_alive()
                ]
            for worker in dead:
                self._replace(worker)

    def _replace(self, dead: _Worker) -> None:
        """Start a replacement for a dead worker, then resubmit the
        unfinished jobs assigned to it, or fail them."""
        replacement = self._start_worker()
        failed: List[_Job] = []
        retried: List[_Job] = []
        with self._lock:
            del self._workers[dead.worker_id]
            self._workers[replacement.worker_id] = replacement
            for job in list(self._pending.values()):
                if job.worker_id != dead.worker_id:
                    continue
                if (CRASH_CATEGORY in job.categories
                        or job.retries >= _MAX_RETRIES):
                    del self._pending[job.job_id]
                    failed.append(job)
                else:
                    job.retries += 1
                    retried.append(job)
            alive = len(self._workers)
        _retire(dead.tasks)
        self._restarts.inc()
        self._alive_gauge.set(alive)
        for job in retried:
            self._dispatch(job)
        for job in failed:
            job.future.set_exception(
                WorkerCrash(
                    f"worker died evaluating categories {job.categories} "
                    f"(after {job.retries} retries)"
                )
            )
