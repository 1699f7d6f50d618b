"""Multiprocessing worker pool for per-category RLGP evaluation.

Encoding happens in the front-end (it is cheap, cacheable and shares the
encoder's BMU cache); the register-machine evaluation of a batch is the
CPU-bound part, and it parallelises naturally across *categories* — each
one-vs-rest classifier scores the batch independently.
:meth:`WorkerPool.evaluate_many` splits a batch's categories into one
group per worker (``min(n_workers, n_categories)`` groups, one in inline
mode) and submits one job per group: a job carries one handoff for all
of its categories and comes back as ``{category: values}``, so a batch
costs as many queue round trips as there are workers, not categories.

Dataset handoff is zero-copy wherever the data already lives on disk:
sequences the service resolved from the content-addressed dataset store
travel as ``(address, row)`` references (a :class:`SequenceRef`), and the
worker memory-maps the very same sealed shards — the kernel shares the
pages, nothing crosses the pipe but a few integers.  Freshly encoded
sequences that have no store address yet are packed into one
``multiprocessing.shared_memory`` segment per job, which workers map
read-only without registering it with the resource tracker (the parent
created it; the parent unlinks it); only when shared memory is
unavailable does the pool fall back to pickling arrays over the queue.
The three paths are counted (``pool_store_sequences_total``,
``pool_shm_sequences_total``, ``pool_pickled_sequences_total``) so tests
and operators can assert that store-resident traffic pickles nothing.

Supervision: every job is acknowledged by the worker that picks it up
("claim"), so when a worker dies mid-job the monitor thread respawns a
replacement and resubmits the orphaned jobs.  A group orphaned by a
crash is re-queued once by :meth:`WorkerPool.evaluate_many`
(``serve_batch_requeues_total``) before the failure reaches callers.
``n_workers=0`` degrades to inline evaluation in the calling thread (no
processes), which keeps unit tests and single-core deployments simple.

The pool prefers the ``fork`` start method (workers inherit the evolved
programs for free) and falls back to ``spawn``, where the classifier
table is pickled to each worker once at startup.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import queue as queue_module
import signal
import threading
import time
import traceback
from concurrent.futures import Future
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.classify.binary import RlgpBinaryClassifier
from repro.gp.engine import shared_metrics
from repro.runtime.parallel import split_evenly
from repro.serve.metrics import MetricsRegistry

try:  # pragma: no cover - present on every POSIX platform
    import _posixshmem
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover
    _posixshmem = None
    shared_memory = None

#: Reserved category that makes a worker die abruptly (``os._exit``).
#: Exists so operators and tests can exercise the crash-restart path of a
#: live pool without attaching a debugger.
CRASH_CATEGORY = "__crash__"


class WorkerCrash(RuntimeError):
    """The worker evaluating a job died before producing a result."""


class PoolClosed(RuntimeError):
    """Raised by :meth:`WorkerPool.evaluate` after shutdown."""


class SequenceRef:
    """An encoded sequence plus its dataset-store provenance.

    ``sequence`` is always usable in-process.  When ``address`` is set,
    the sequence is row ``row`` of the sealed store dataset at that
    content address, and the pool ships the *reference* to workers
    instead of the array.
    """

    __slots__ = ("sequence", "address", "row")

    def __init__(
        self,
        sequence: np.ndarray,
        address: Optional[str] = None,
        row: int = -1,
    ) -> None:
        self.sequence = sequence
        self.address = address
        self.row = row

    def __len__(self) -> int:
        return len(self.sequence)


def unwrap_sequence(item: Union[np.ndarray, SequenceRef]) -> np.ndarray:
    """The plain array behind a sequence or reference."""
    return item.sequence if isinstance(item, SequenceRef) else item


def _engine_counter_values() -> Dict[str, float]:
    """Current values of the shared GP-engine counters (``*_total``)."""
    return {
        name: value
        for name, value in shared_metrics().snapshot().items()
        if name.startswith("engine_") and name.endswith("_total")
    }


def _attach_readonly(name: str) -> mmap.mmap:
    """Map the parent's shared-memory segment ``name`` read-only.

    ``SharedMemory(name=...)`` would register the segment with the
    resource tracker, and a worker forked after the parent's tracker
    started shares that tracker: undoing the registration deletes the
    *parent's* entry, so the parent's unlink makes the tracker print a
    ``KeyError`` and a server that dies first leaks the segment.  The
    parent created it; the parent unlinks it -- so the worker opens and
    maps it directly, leaving the tracker alone.
    """
    fd = _posixshmem.shm_open("/" + name, os.O_RDONLY, mode=0o600)
    try:
        return mmap.mmap(fd, os.fstat(fd).st_size, prot=mmap.PROT_READ)
    finally:
        os.close(fd)


def _materialize(handoff: dict, store_root: Optional[str]):
    """Rebuild a job's flat sequence list from its handoff descriptor.

    Returns ``(sequences, segment)`` -- the caller must release
    ``segment`` (the read-only mapping of the shared-memory block, or
    None) after evaluation, once no views into it remain.
    """
    from repro.data.store import attach_dataset

    sequences: List[Optional[np.ndarray]] = [None] * handoff["n"]
    row_lists: Dict[str, List[np.ndarray]] = {}
    for position, address, row in handoff["store"]:
        rows = row_lists.get(address)
        if rows is None or row >= len(rows):
            # Checksums were verified by the service when it opened the
            # dataset to warm its cache; re-hashing per worker would put
            # the whole shard through the CPU for nothing.
            stored = attach_dataset(store_root, address, verify=False)
            if row >= len(stored):
                stored = attach_dataset(
                    store_root, address, verify=False, refresh=True
                )
            rows = stored.sequences
            row_lists[address] = rows
        sequences[position] = rows[row]
    segment = None
    if handoff["shm"] is not None:
        name, metas = handoff["shm"]
        segment = _attach_readonly(name)
        for position, offset, shape in metas:
            sequences[position] = np.ndarray(
                shape, dtype=np.float64, buffer=segment, offset=offset
            )
    for position, array in handoff["raw"]:
        sequences[position] = array
    return sequences, segment


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


def _worker_main(worker_id, classifiers, task_queue, result_queue, store_root):
    """Worker process body: claim, materialize, evaluate, report — forever."""
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
        job_id, handoff = message
        result_queue.put(("claim", worker_id, job_id))
        if any(category == CRASH_CATEGORY for category, _ in handoff["layout"]):
            # Simulated hard crash; the sleep lets the claim flush through
            # the queue's feeder thread so supervision sees it.
            time.sleep(0.05)
            os._exit(1)
        segment = None
        try:
            try:
                sequences, segment = _materialize(handoff, store_root)
                # Engine counters tick in *this* process's shared registry,
                # invisible to the parent; ship the per-job deltas back so
                # the service's /metrics reflects worker activity.
                before = _engine_counter_values()
                values = _score(classifiers, handoff["layout"], sequences)
                deltas = {
                    name: after - before.get(name, 0.0)
                    for name, after in _engine_counter_values().items()
                }
                result_queue.put(("done", job_id, values, deltas))
            finally:
                if segment is not None:
                    # Views into the segment die with this scope; the
                    # evaluator copies sequences into its own packing.
                    sequences = None
                    try:
                        segment.close()
                    except BufferError:
                        pass  # a view survived; mapping dies with the process
        except BaseException:  # noqa: BLE001 - reported to the parent
            result_queue.put(("error", job_id, traceback.format_exc()))


class _Job:
    __slots__ = ("job_id", "categories", "handoff", "shm", "future",
                 "claimed_by", "submitted_at", "retries")

    def __init__(self, job_id, handoff, shm=None):
        self.job_id = job_id
        self.categories = [category for category, _ in handoff["layout"]]
        self.handoff = handoff
        self.shm = shm
        self.future: Future = Future()
        self.claimed_by: Optional[int] = None
        self.submitted_at = time.perf_counter()
        self.retries = 0

    def release(self) -> None:
        """Free the job's shared-memory segment (parent side, once)."""
        segment, self.shm = self.shm, None
        if segment is None:
            return
        try:
            segment.close()
            segment.unlink()
        except (OSError, BufferError):
            pass  # already unlinked / view outstanding; nothing to leak


class WorkerPool:
    """Fans per-category evaluation across worker processes, one job
    (a group of categories) per worker.

    Args:
        classifiers: category -> trained binary classifier (as in
            ``OneVsRestRlgp.classifiers``).
        n_workers: process count; 0 evaluates inline with no processes.
        metrics: optional shared registry (``pool_*`` series).
        restart_workers: respawn workers that die (on by default).
        max_retries: resubmissions of a job orphaned by worker deaths
            before its future fails with :class:`WorkerCrash`.
        store_root: dataset-store root for address-based zero-copy
            handoff; None disables the store path (references fall back
            to shared memory / pickling).
        use_shared_memory: pack fresh (store-less) sequences into one
            ``multiprocessing.shared_memory`` segment per job instead of
            pickling them over the task queue.
    """

    def __init__(
        self,
        classifiers: Mapping[str, RlgpBinaryClassifier],
        n_workers: int = 1,
        metrics: Optional[MetricsRegistry] = None,
        restart_workers: bool = True,
        max_retries: int = 2,
        monitor_interval: float = 0.1,
        store_root: Optional[Union[str, Path]] = None,
        use_shared_memory: bool = True,
    ) -> None:
        if n_workers < 0:
            raise ValueError(f"n_workers must be >= 0, got {n_workers}")
        self.classifiers = dict(classifiers)
        self.n_workers = n_workers
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.restart_workers = restart_workers
        self.max_retries = max_retries
        self.monitor_interval = monitor_interval
        self.store_root = str(store_root) if store_root is not None else None
        self.use_shared_memory = use_shared_memory and _posixshmem is not None

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
        self._store_seqs = self.metrics.counter(
            "pool_store_sequences_total",
            "sequences handed to workers as store (address, row) refs",
        )
        self._shm_seqs = self.metrics.counter(
            "pool_shm_sequences_total",
            "sequences handed to workers via shared memory",
        )
        self._pickled_seqs = self.metrics.counter(
            "pool_pickled_sequences_total",
            "sequences pickled over the task queue (fallback path)",
        )

        self._closed = False
        self._lock = threading.Lock()
        self._pending: Dict[int, _Job] = {}  # guarded by _lock
        self._next_job_id = 0  # guarded by _lock
        self._next_worker_id = 0  # guarded by _lock
        self._workers: Dict[int, multiprocessing.process.BaseProcess] = {}  # guarded by _lock

        if n_workers == 0:
            self._context = None
            self._alive_gauge.set(0)
            return

        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._context = multiprocessing.get_context("spawn")
        self._task_queue = self._context.Queue()
        self._result_queue = self._context.Queue()
        for _ in range(n_workers):
            self._spawn_worker()
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

        Resolves to ``{category: decision values}``.  The job ships one
        handoff for all of its sequences; ``sequences`` items may be
        plain arrays or :class:`SequenceRef`\\ s, and references whose
        dataset address matches this pool's store root cross to workers
        as addresses, not bytes.  A job that names
        :data:`CRASH_CATEGORY` kills the worker that runs it.
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
        lists = {
            category: list(sequences)
            for category, sequences in sequences_by_category.items()
        }
        handoff, shm = self._build_handoff(
            [item for sequences in lists.values() for item in sequences]
        )
        handoff["layout"] = [
            (category, len(sequences)) for category, sequences in lists.items()
        ]
        with self._lock:
            job = _Job(self._next_job_id, handoff, shm)
            self._next_job_id += 1
            self._pending[job.job_id] = job
        self._task_queue.put((job.job_id, job.handoff))
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
                if (self._closed or self.n_workers == 0
                        or not (self.restart_workers or self.n_alive)):
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
                1 for process in self._workers.values() if process.is_alive()
            )

    @property
    def worker_pids(self) -> List[int]:
        with self._lock:
            return [p.pid for p in self._workers.values() if p.pid is not None]

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop accepting jobs, drain workers, fail leftover futures."""
        if self._closed:
            return
        self._closed = True
        if self.n_workers == 0:
            return
        with self._lock:
            workers = list(self._workers.values())
        for _ in workers:
            self._task_queue.put(None)
        deadline = time.monotonic() + timeout
        for worker in workers:
            worker.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=1.0)
        self._collector.join(timeout=1.0)
        self._monitor.join(timeout=1.0)
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for job in pending:
            job.release()
            if not job.future.done():
                job.future.set_exception(PoolClosed("pool shut down"))
        self._alive_gauge.set(0)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _build_handoff(self, sequences: Sequence):
        """Partition a batch into store refs / shared memory / pickled.

        Returns ``(descriptor, shm_segment)``; the segment (if any) must
        stay alive until the job resolves and is released by the parent.
        """
        store_items: List[Tuple[int, str, int]] = []
        raw_items: List[Tuple[int, np.ndarray]] = []
        for position, item in enumerate(sequences):
            if (
                isinstance(item, SequenceRef)
                and item.address is not None
                and item.row >= 0
                and self.store_root is not None
            ):
                store_items.append((position, item.address, item.row))
            else:
                raw_items.append((
                    position,
                    np.ascontiguousarray(
                        unwrap_sequence(item), dtype=np.float64
                    ),
                ))
        shm = None
        shm_desc = None
        if raw_items and self.use_shared_memory:
            total = sum(array.nbytes for _, array in raw_items)
            try:
                shm = shared_memory.SharedMemory(
                    create=True, size=max(1, total)
                )
            except OSError:
                shm = None  # no /dev/shm headroom; pickle this batch
            if shm is not None:
                metas = []
                offset = 0
                for position, array in raw_items:
                    view = np.ndarray(
                        array.shape, dtype=np.float64,
                        buffer=shm.buf, offset=offset,
                    )
                    view[...] = array
                    metas.append((position, offset, array.shape))
                    offset += array.nbytes
                del view  # drop the buffer export before workers attach
                shm_desc = (shm.name, metas)
                self._shm_seqs.inc(len(raw_items))
                raw_items = []
        if store_items:
            self._store_seqs.inc(len(store_items))
        if raw_items:
            self._pickled_seqs.inc(len(raw_items))
        handoff = {
            "n": len(sequences),
            "store": store_items,
            "shm": shm_desc,
            "raw": raw_items,
        }
        return handoff, shm

    def _evaluate_inline(self, sequences_by_category) -> Future:
        future: Future = Future()
        start = time.perf_counter()
        try:
            if CRASH_CATEGORY in sequences_by_category:
                raise WorkerCrash("crash requested with no worker processes")
            future.set_result({
                category: np.asarray(
                    self.classifiers[category].decision_values(
                        [unwrap_sequence(item) for item in sequences]
                    )
                )
                for category, sequences in sequences_by_category.items()
            })
        except BaseException as error:  # noqa: BLE001
            future.set_exception(error)
        self._latency.observe(time.perf_counter() - start)
        return future

    def _spawn_worker(self) -> None:
        with self._lock:
            worker_id = self._next_worker_id
            self._next_worker_id += 1
        process = self._context.Process(
            target=_worker_main,
            args=(worker_id, self.classifiers, self._task_queue,
                  self._result_queue, self.store_root),
            name=f"rlgp-worker-{worker_id}",
            daemon=True,
        )
        # Publish only after start(): the monitor and shutdown() join
        # whatever they find in _workers, and joining a never-started
        # process raises.
        process.start()
        with self._lock:
            self._workers[worker_id] = process
            alive = len(self._workers)
        self._alive_gauge.set(alive)

    def _collect_loop(self) -> None:
        while not self._closed:
            try:
                message = self._result_queue.get(timeout=0.1)
            except queue_module.Empty:
                continue
            kind = message[0]
            if kind == "claim":
                _, worker_id, job_id = message
                with self._lock:
                    job = self._pending.get(job_id)
                    if job is not None:
                        job.claimed_by = worker_id
            elif kind == "done":
                _, job_id, values, deltas = message
                registry = shared_metrics()
                for name, delta in deltas.items():
                    if delta > 0:
                        registry.counter(name).inc(delta)
                with self._lock:
                    job = self._pending.pop(job_id, None)
                if job is not None:
                    job.release()
                    self._latency.observe(time.perf_counter() - job.submitted_at)
                    job.future.set_result(values)
            elif kind == "error":
                _, job_id, text = message
                with self._lock:
                    job = self._pending.pop(job_id, None)
                if job is not None:
                    job.release()
                    job.future.set_exception(
                        RuntimeError(f"worker evaluation failed:\n{text}")
                    )

    def _monitor_loop(self) -> None:
        while not self._closed:
            time.sleep(self.monitor_interval)
            with self._lock:
                dead = {
                    worker_id: process
                    for worker_id, process in self._workers.items()
                    if not process.is_alive()
                }
                for worker_id in dead:
                    del self._workers[worker_id]
            if not dead or self._closed:
                continue
            for worker_id, process in dead.items():
                process.join(timeout=0.1)
                self._reassign_orphans(worker_id)
                if self.restart_workers:
                    self._restarts.inc()
                    self._spawn_worker()
            with self._lock:
                alive = len(self._workers)
            self._alive_gauge.set(alive)

    def _reassign_orphans(self, dead_worker_id: int) -> None:
        """Resubmit jobs claimed by a dead worker (or fail them)."""
        with self._lock:
            orphans = [
                job for job in self._pending.values()
                if job.claimed_by == dead_worker_id and not job.future.done()
            ]
        for job in orphans:
            if CRASH_CATEGORY in job.categories or job.retries >= self.max_retries:
                with self._lock:
                    self._pending.pop(job.job_id, None)
                job.release()
                job.future.set_exception(
                    WorkerCrash(
                        f"worker died evaluating categories {job.categories} "
                        f"(after {job.retries} retries)"
                    )
                )
                continue
            job.retries += 1
            job.claimed_by = None
            self._task_queue.put((job.job_id, job.handoff))
