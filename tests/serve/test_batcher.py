"""Micro-batcher: dispatch-when-free coalescing, failure propagation,
shutdown and overload contracts."""

import sys
import threading
import time

import pytest

from repro.serve import batcher as batcher_module
from repro.serve.batcher import BatcherClosed, BatcherSaturated, MicroBatcher
from repro.serve.metrics import MetricsRegistry


def _echo(batch):
    return list(batch)


def test_single_item_round_trip():
    batcher = MicroBatcher(_echo, max_batch_size=8)
    try:
        assert batcher.submit("x").result(timeout=5) == "x"
    finally:
        batcher.close()


def test_results_align_with_items():
    batcher = MicroBatcher(lambda batch: [item * 2 for item in batch],
                           max_batch_size=4)
    try:
        futures = batcher.submit_many([1, 2, 3, 4, 5])
        assert [future.result(timeout=5) for future in futures] == [2, 4, 6, 8, 10]
    finally:
        batcher.close()


def test_concurrent_submissions_coalesce_into_batches():
    """Items queued while the handler is busy leave together, as the
    next batch, however long they waited."""
    seen = []
    entered = threading.Event()
    gate = threading.Event()

    def handler(batch):
        entered.set()
        gate.wait(5)
        seen.append(list(batch))
        return list(batch)

    metrics = MetricsRegistry()
    batcher = MicroBatcher(handler, max_batch_size=16, metrics=metrics)
    try:
        first = batcher.submit(0)
        assert entered.wait(5)
        queued = [batcher.submit(index) for index in range(1, 8)]
        time.sleep(0.05)  # the queued items are old when the handler frees up
        gate.set()
        assert [f.result(timeout=5) for f in [first] + queued] == list(range(8))
        assert seen == [[0], list(range(1, 8))]
        assert metrics.histogram("batcher_batch_size").summary()["max"] == 7
    finally:
        gate.set()
        batcher.close()


def test_max_batch_size_is_respected():
    seen = []
    batcher = MicroBatcher(lambda batch: (seen.append(len(batch)), batch)[1],
                           max_batch_size=3)
    try:
        futures = batcher.submit_many(list(range(10)))
        for future in futures:
            future.result(timeout=5)
        assert max(seen) <= 3
    finally:
        batcher.close()


def test_lone_item_is_dispatched_without_waiting():
    """A lone item waits for no company: it leaves as soon as the drain
    thread wakes, not after a timer."""
    metrics = MetricsRegistry()
    batcher = MicroBatcher(_echo, max_batch_size=64, metrics=metrics)
    try:
        for index in range(20):
            assert batcher.submit(index).result(timeout=5) == index
        summary = metrics.histogram("batcher_queue_wait_seconds").summary()
        assert summary["count"] == 20
        assert summary["p50"] < 0.01
        assert metrics.histogram("batcher_batch_size").summary()["max"] == 1
    finally:
        batcher.close()


def test_submit_many_to_an_idle_batcher_is_one_handler_call():
    calls = []
    batcher = MicroBatcher(
        lambda batch: (calls.append(list(batch)), list(batch))[1],
        max_batch_size=8,
    )
    try:
        futures = batcher.submit_many(list(range(8)))
        assert [f.result(timeout=5) for f in futures] == list(range(8))
        assert calls == [list(range(8))]
    finally:
        batcher.close()


def test_handler_exception_fails_every_future_of_the_batch():
    def handler(batch):
        raise RuntimeError("boom")

    batcher = MicroBatcher(handler, max_batch_size=4)
    try:
        futures = batcher.submit_many([1, 2])
        for future in futures:
            with pytest.raises(RuntimeError, match="boom"):
                future.result(timeout=5)
    finally:
        batcher.close()


def test_result_count_mismatch_is_an_error():
    batcher = MicroBatcher(lambda batch: [], max_batch_size=4)
    try:
        with pytest.raises(RuntimeError, match="results"):
            batcher.submit("x").result(timeout=5)
    finally:
        batcher.close()


def test_close_drains_queued_items():
    batcher = MicroBatcher(_echo, max_batch_size=4)
    futures = batcher.submit_many(list(range(6)))
    batcher.close()
    assert [future.result(timeout=5) for future in futures] == list(range(6))


def test_submit_after_close_raises():
    batcher = MicroBatcher(_echo)
    batcher.close()
    with pytest.raises(BatcherClosed):
        batcher.submit("x")


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        MicroBatcher(_echo, max_batch_size=0)
    with pytest.raises(ValueError):
        MicroBatcher(_echo, max_queue=-1)


def test_submit_racing_close_still_resolves(monkeypatch):
    """A submit already under way when close() starts either raises
    BatcherClosed or returns a future that resolves."""
    constructing = threading.Event()
    closed = threading.Event()

    class SlowItem(batcher_module._Item):
        def __init__(self, payload):
            if payload == "late":
                constructing.set()
                closed.wait(0.5)  # close() runs while this submit is open
            super().__init__(payload)

    monkeypatch.setattr(batcher_module, "_Item", SlowItem)
    batcher = MicroBatcher(_echo)
    outcome = {}

    def submit_late():
        try:
            outcome["future"] = batcher.submit("late")
        except BatcherClosed as error:
            outcome["refused"] = error

    def close():
        batcher.close(timeout=5)
        closed.set()

    submitter = threading.Thread(target=submit_late)
    submitter.start()
    assert constructing.wait(5)
    closer = threading.Thread(target=close)
    closer.start()
    for thread in (submitter, closer):
        thread.join(timeout=10)
        assert not thread.is_alive()
    if "future" in outcome:
        assert outcome["future"].result(timeout=5) == "late"
    else:
        assert isinstance(outcome["refused"], BatcherClosed)


def test_every_future_returned_before_close_resolves():
    """Submitters racing close(): each submit either raises BatcherClosed
    or returns a future that resolves -- none is stranded in the queue."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(20):
            batcher = MicroBatcher(_echo, max_batch_size=4)
            futures = []
            lock = threading.Lock()

            def submitter():
                while True:
                    try:
                        future = batcher.submit("x")
                    except BatcherClosed:
                        return
                    with lock:
                        futures.append(future)

            threads = [threading.Thread(target=submitter) for _ in range(8)]
            for thread in threads:
                thread.start()
            time.sleep(0.005)
            batcher.close(timeout=10)
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            for future in futures:
                assert future.result(timeout=5) == "x"
    finally:
        sys.setswitchinterval(previous)


def test_submit_many_is_all_or_nothing_at_the_queue_bound():
    seen = []
    entered = threading.Event()
    gate = threading.Event()

    def handler(batch):
        entered.set()
        gate.wait(5)
        seen.extend(batch)
        return list(batch)

    metrics = MetricsRegistry()
    batcher = MicroBatcher(handler, max_batch_size=16, max_queue=4,
                           metrics=metrics)
    try:
        first = batcher.submit("first")
        assert entered.wait(5)  # the queue is empty again, handler busy
        with pytest.raises(BatcherSaturated):
            batcher.submit_many([f"over-{index}" for index in range(6)])
        assert batcher.queue_depth == 0  # nothing of the refused request
        accepted = batcher.submit_many([f"fits-{index}" for index in range(4)])
        gate.set()
        assert first.result(timeout=5) == "first"
        assert [f.result(timeout=5) for f in accepted] == \
            [f"fits-{index}" for index in range(4)]
        assert not any(item.startswith("over") for item in seen)
        assert metrics.counter("batcher_saturated_total").value == 1
    finally:
        gate.set()
        batcher.close()
