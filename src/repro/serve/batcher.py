"""Micro-batching queue: coalesce single requests into vectorised batches.

The RLGP evaluator is dramatically faster per document when documents are
packed and evaluated together (see ``repro.gp.recurrent``), but a service
receives requests one at a time.  The :class:`MicroBatcher` sits between
the two: callers ``submit()`` items and get a future; a drain thread
hands queued items to one handler call at a time.

Dispatch contract: whenever the drain thread is free it takes the oldest
queued item plus everything else already queued (up to
``max_batch_size``) and calls the handler at once -- it never sleeps
waiting for company.  Items that arrive while the handler runs form the
next batch, so batches grow with load on their own and a lone request
pays no waiting at all.  :meth:`MicroBatcher.submit_many` enqueues a
whole request in one step, so a request of at most ``max_batch_size``
items reaching an idle batcher is exactly one handler call.

Shutdown and overload contracts: every future returned before
:meth:`MicroBatcher.close` resolves (the drain thread empties the queue
before it exits), and :meth:`MicroBatcher.submit_many` is all-or-nothing
at the ``max_queue`` bound.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Callable, Deque, List, Optional, Sequence

from repro.serve.metrics import MetricsRegistry


class BatcherClosed(RuntimeError):
    """Raised by :meth:`MicroBatcher.submit` after the batcher is closed."""


class BatcherSaturated(RuntimeError):
    """Raised by :meth:`MicroBatcher.submit` at the queue bound.

    The batcher's last line of defence under overload: admission control
    sheds at the gateway door, but anything that bypasses it (direct
    ``classify()`` callers, several gateways over one service) still may
    not grow the queue without bound.  Retryable -- HTTP layers answer
    503 + ``Retry-After``.
    """


class _Item:
    __slots__ = ("payload", "future", "enqueued_at")

    def __init__(self, payload: object) -> None:
        self.payload = payload
        self.future: Future = Future()
        self.enqueued_at = time.perf_counter()


class MicroBatcher:
    """Coalesces submitted items into handler calls.

    Args:
        handler: called with the list of payloads of one batch; must
            return one result per payload, in order.  An exception fails
            every future of the batch.
        max_batch_size: most items one handler call receives.
        max_queue: queued-item bound; beyond it :meth:`submit` raises
            :class:`BatcherSaturated` instead of growing memory
            (0 = unbounded, the historical behaviour).
        metrics: optional registry; the batcher records batch sizes,
            queue depth and per-item queue latency under ``batcher_*``.
    """

    def __init__(
        self,
        handler: Callable[[List[object]], Sequence[object]],
        max_batch_size: int = 16,
        max_queue: int = 0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        self.handler = handler
        self.max_batch_size = max_batch_size
        self.max_queue = max_queue
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Reentrant: submit_many holds it across its per-item submit()
        # calls, which is what makes a request one step for the drain
        # thread and all-or-nothing at the queue bound.
        self._lock = threading.RLock()
        self._pending: Deque[_Item] = deque()  # guarded by _lock
        self._closed = False  # guarded by _lock
        #: Set while items are pending or the batcher is closing; only
        #: changed under _lock, so the drain thread never sleeps on work.
        self._wake = threading.Event()
        self._batch_sizes = self.metrics.histogram(
            "batcher_batch_size", "documents per dispatched batch"
        )
        self._queue_wait = self.metrics.histogram(
            "batcher_queue_wait_seconds", "time from submit to dispatch"
        )
        self._depth = self.metrics.gauge("batcher_queue_depth", "items waiting")
        self._dispatched = self.metrics.counter(
            "batcher_batches_total", "batches dispatched"
        )
        self._saturated = self.metrics.counter(
            "batcher_saturated_total", "submissions refused at the queue bound"
        )
        self._thread = threading.Thread(
            target=self._drain_loop, name="micro-batcher", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def submit(self, payload: object) -> Future:
        """Enqueue one item; the future resolves to its handler result."""
        with self._lock:
            self._admit(1)
            item = _Item(payload)
            self._pending.append(item)
            self._wake.set()
        self._depth.set(self.queue_depth)
        return item.future

    def submit_many(self, payloads: Sequence[object]) -> List[Future]:
        """Enqueue a whole request in one step, or none of it.

        The drain thread cannot take part of the request while the rest
        is still being queued, so a request of at most ``max_batch_size``
        items that reaches an idle batcher is one handler call.  At the
        ``max_queue`` bound nothing is queued and
        :class:`BatcherSaturated` is raised.
        """
        with self._lock:
            self._admit(len(payloads))
            return [self.submit(payload) for payload in payloads]

    def _admit(self, n_items: int) -> None:
        """Refuse ``n_items`` more when closed or past the queue bound.

        Callers hold ``_lock`` across this check and their enqueue, so
        the two are one step.
        """
        with self._lock:
            if self._closed:
                raise BatcherClosed("batcher is closed")
            if self.max_queue and len(self._pending) + n_items > self.max_queue:
                self._saturated.inc()
                raise BatcherSaturated(
                    f"batcher queue at its {self.max_queue}-item bound"
                )

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._pending)

    def close(self, timeout: Optional[float] = 5.0) -> None:
        """Stop accepting work, drain what is queued, join the thread."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._wake.set()
        self._thread.join(timeout=timeout)

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    def _drain_loop(self) -> None:
        while True:
            self._wake.wait()
            with self._lock:
                batch = [
                    self._pending.popleft()
                    for _ in range(min(len(self._pending), self.max_batch_size))
                ]
                if not self._pending and not self._closed:
                    self._wake.clear()
            if not batch:
                return  # woken with nothing queued: closed and drained
            self._dispatch(batch)

    def _dispatch(self, batch: List[_Item]) -> None:
        self._depth.set(self.queue_depth)
        now = time.perf_counter()
        for item in batch:
            self._queue_wait.observe(now - item.enqueued_at)
        self._batch_sizes.observe(len(batch))
        self._dispatched.inc()
        try:
            results = self.handler([item.payload for item in batch])
        except BaseException as error:  # noqa: BLE001 - forwarded to callers
            for item in batch:
                item.future.set_exception(error)
            return
        if len(results) != len(batch):
            error = RuntimeError(
                f"batch handler returned {len(results)} results "
                f"for {len(batch)} items"
            )
            for item in batch:
                item.future.set_exception(error)
            return
        for item, result in zip(batch, results):
            item.future.set_result(result)
