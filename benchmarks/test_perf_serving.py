"""Serving throughput: single-doc sequential vs batched multi-worker,
and the asyncio gateway under concurrent connection churn.

Characterises the ``repro.serve`` subsystem on one fitted pipeline:

* **single-doc sequential** -- the pre-serving deployment mode, one
  ``ProSysPipeline.predict_topics`` call per document;
* **batched** -- the same documents pushed through
  :class:`~repro.serve.server.InferenceService` (micro-batching +
  encoded-sequence cache + worker fan-out, one job per worker over a
  group of categories) at ``n_workers`` of 1 and 4;
* **gateway** -- 64 concurrent connection-per-request HTTP clients
  against the :class:`~repro.serve.gateway.GatewayServer`, a warm
  inline service underneath; requests/sec, p50 and p99 are written to
  ``BENCH_serving.json`` at the repo root together with the floors they
  must clear.

Prints the paper-style table and emits one ``SERVING_BENCH_JSON`` line
(docs/sec per mode) for the bench trajectory.  Two acceptance bars are
asserted at the end: batched multi-worker throughput at least twice the
single-doc sequential baseline, and the gateway's request rate, p50 and
p99 within ``GATEWAY_FLOORS`` at concurrency 64.  ``REPRO_BENCH_ASSERT=0``
disables both (noisy shared CI runners; the artifact still records the
measured numbers).
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro import GpConfig, ProSysConfig, ProSysPipeline
from repro.serve import (
    GatewayServer,
    InferenceService,
    ModelRegistry,
    document_from_payload,
)

SERVING_CATEGORIES = ("earn", "grain", "trade")
WORKER_COUNTS = (1, 4)
MAX_DOCS = 64

#: Gateway load shape: this many clients, one request each at a time,
#: fresh connection per request (the load-balancer-facing pattern).
GATEWAY_CONCURRENCY = 64
GATEWAY_REQUESTS = 384

#: What the gateway must clear at that shape.  The rate floor is twice
#: the retired threaded front end's 123.3 req/s (the old ">= 2x threaded"
#: bar, made absolute).  The latency ceilings sit ~2x (p50) and ~4x
#: (p99) above the slowest of nineteen runs on a 2-vCPU VM (p50 36-101
#: ms, p99 50-116 ms): a noisy run passes, the threaded server's 2070 ms
#: p99 would not.
GATEWAY_FLOORS = {
    "min_requests_per_second": 250.0,
    "max_p50_ms": 200.0,
    "max_p99_ms": 500.0,
}

#: Where the gateway measurement is recorded (committed artifact).
BENCH_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"


@pytest.fixture(scope="module")
def serving_pipeline(corpus, settings):
    """A small pipeline: serving cost is what is measured, not accuracy."""
    config = ProSysConfig(
        feature_method="mi",
        n_features=60,
        som_epochs=settings.som_epochs,
        max_sequence_length=settings.max_sequence_length,
        gp=GpConfig().small(tournaments=150, seed=1),
        seed=1,
    )
    return ProSysPipeline(config).fit(corpus, categories=SERVING_CATEGORIES)


@pytest.fixture(scope="module")
def serving_docs(corpus):
    return list(corpus.test_documents)[:MAX_DOCS]


def _docs_per_second(n_docs: int, elapsed: float) -> float:
    return n_docs / elapsed if elapsed > 0 else float("inf")


def _service(corpus, pipeline, n_workers):
    registry = ModelRegistry(corpus)
    registry.add_pipeline("bench", pipeline)
    return InferenceService(
        registry, n_workers=n_workers, max_batch_size=16
    )


def test_perf_serving_throughput(serving_pipeline, serving_docs, corpus, benchmark):
    def run():
        results = {}

        # Context: the raw pipeline loop (no serving layer, warm
        # tokenisation caches -- the in-process notebook deployment).
        started = time.perf_counter()
        for doc in serving_docs:
            serving_pipeline.predict_topics(doc)
        results["pipeline_sequential"] = _docs_per_second(
            len(serving_docs), time.perf_counter() - started
        )

        # Baseline: the service driven one document per request,
        # sequentially -- what naive (unbatched) serving costs.
        service = _service(corpus, serving_pipeline, n_workers=1)
        try:
            service.classify(serving_docs[:2])  # warm the pool
            single_docs = serving_docs[: max(8, len(serving_docs) // 4)]
            started = time.perf_counter()
            for doc in single_docs:
                service.classify([doc])
            elapsed = time.perf_counter() - started
            results["service_single_doc"] = _docs_per_second(
                len(single_docs), elapsed
            )
            results["service_single_doc_latency_ms"] = (
                1000.0 * elapsed / len(single_docs)
            )
        finally:
            service.close()

        # Batched: the whole document set submitted at once, coalesced by
        # the micro-batcher, categories grouped one job per worker.
        # A fresh service per worker count keeps the cache cold.
        for n_workers in WORKER_COUNTS:
            service = _service(corpus, serving_pipeline, n_workers)
            try:
                service.classify(serving_docs[:2])  # warm the pool
                started = time.perf_counter()
                service.classify(serving_docs)
                results[f"batched_workers_{n_workers}"] = _docs_per_second(
                    len(serving_docs), time.perf_counter() - started
                )
                # Same documents again: the encoded-sequence LRU is warm.
                started = time.perf_counter()
                service.classify(serving_docs)
                results[f"batched_workers_{n_workers}_warm_cache"] = (
                    _docs_per_second(
                        len(serving_docs), time.perf_counter() - started
                    )
                )
            finally:
                service.close()
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print("\nServing throughput (docs/sec, "
          f"{len(serving_docs)} docs x {len(SERVING_CATEGORIES)} categories)")
    print(f"{'mode':36s}{'docs/sec':>12s}{'speedup':>10s}")
    print("-" * 58)
    single = results["service_single_doc"]
    for mode, value in results.items():
        if mode.endswith("_latency_ms"):
            print(f"{mode:36s}{value:>12.2f}{'':>10s}")
        else:
            print(f"{mode:36s}{value:>12.1f}{value / single:>9.1f}x")

    payload = {
        "benchmark": "serving_throughput",
        "n_docs": len(serving_docs),
        "categories": list(SERVING_CATEGORIES),
        "docs_per_second": results,
    }
    print("SERVING_BENCH_JSON " + json.dumps(payload))

    best_batched = max(
        value for mode, value in results.items() if mode.startswith("batched")
    )
    if os.environ.get("REPRO_BENCH_ASSERT", "1") != "0":
        assert best_batched >= 2.0 * single, (
            f"batched throughput {best_batched:.1f} docs/s is below twice the "
            f"single-doc serving baseline {single:.1f} docs/s"
        )


# ----------------------------------------------------------------------
# the asyncio gateway under connection churn
# ----------------------------------------------------------------------
def _percentile_ms(sorted_latencies, fraction):
    index = min(
        len(sorted_latencies) - 1,
        int(round(fraction * (len(sorted_latencies) - 1))),
    )
    return 1000.0 * sorted_latencies[index]


def _drive_front_end(port, n_requests, concurrency):
    """``n_requests`` POST /classify calls from ``concurrency`` clients,
    one fresh connection per request; returns (wall, sorted latencies)."""
    body = json.dumps(
        {"documents": [{"text": "wheat corn grain export tonnes shipment"}]}
    ).encode()
    latencies = []
    retries = [0]
    lock = threading.Lock()

    def one_request(_index):
        # Refused/reset connections (a listen backlog overflowing under
        # burst) are retried, and the retry time stays on the clock --
        # the stall is the front end's cost, not noise.
        started = time.perf_counter()
        for _attempt in range(200):
            connection = http.client.HTTPConnection(
                "127.0.0.1", port, timeout=120
            )
            try:
                connection.request(
                    "POST", "/classify", body=body,
                    headers={"Content-Type": "application/json",
                             "Connection": "close"},
                )
                response = connection.getresponse()
                assert response.status == 200, response.status
                response.read()
                break
            except (ConnectionError, http.client.BadStatusLine):
                with lock:
                    retries[0] += 1
                time.sleep(0.005)
            finally:
                connection.close()
        else:
            raise AssertionError("front end never answered after 200 tries")
        elapsed = time.perf_counter() - started
        with lock:
            latencies.append(elapsed)

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=concurrency) as executor:
        list(executor.map(one_request, range(n_requests)))
    return time.perf_counter() - started, sorted(latencies), retries[0]


def test_perf_gateway_front_end(serving_pipeline, corpus, benchmark):
    """The serving SLO: at 64 concurrent connection-per-request clients
    the gateway clears every floor in ``GATEWAY_FLOORS`` (request rate,
    p50, p99) over a warm service."""

    def run():
        service = _service(corpus, serving_pipeline, n_workers=0)
        try:
            with GatewayServer(service) as gateway:
                service.classify([document_from_payload(
                    {"text": "wheat corn grain export tonnes shipment"}
                )])  # warm the encode cache
                wall, latencies, retries = _drive_front_end(
                    gateway.port, GATEWAY_REQUESTS, GATEWAY_CONCURRENCY
                )
        finally:
            service.close()
        return {
            "requests_per_second": round(GATEWAY_REQUESTS / wall, 1),
            "p50_ms": round(_percentile_ms(latencies, 0.50), 3),
            "p99_ms": round(_percentile_ms(latencies, 0.99), 3),
            "connect_retries": retries,
        }

    gateway = benchmark.pedantic(run, rounds=1, iterations=1)

    print(f"\nGateway at concurrency {GATEWAY_CONCURRENCY} "
          f"({GATEWAY_REQUESTS} requests, connection per request)")
    print(f"{'':16s}{'req/sec':>10s}{'p50 ms':>10s}{'p99 ms':>10s}")
    print("-" * 46)
    print(f"{'measured':16s}{gateway['requests_per_second']:>10.1f}"
          f"{gateway['p50_ms']:>10.2f}{gateway['p99_ms']:>10.2f}")
    print(f"{'floor':16s}{GATEWAY_FLOORS['min_requests_per_second']:>10.1f}"
          f"{GATEWAY_FLOORS['max_p50_ms']:>10.2f}"
          f"{GATEWAY_FLOORS['max_p99_ms']:>10.2f}")

    payload = {
        "benchmark": "serving_gateway",
        "concurrency": GATEWAY_CONCURRENCY,
        "n_requests": GATEWAY_REQUESTS,
        "categories": list(SERVING_CATEGORIES),
        "gateway": gateway,
        "floors": GATEWAY_FLOORS,
    }
    BENCH_RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print("SERVING_BENCH_JSON " + json.dumps(payload))

    if os.environ.get("REPRO_BENCH_ASSERT", "1") != "0":
        assert (gateway["requests_per_second"]
                >= GATEWAY_FLOORS["min_requests_per_second"]), gateway
        assert gateway["p50_ms"] <= GATEWAY_FLOORS["max_p50_ms"], gateway
        assert gateway["p99_ms"] <= GATEWAY_FLOORS["max_p99_ms"], gateway
