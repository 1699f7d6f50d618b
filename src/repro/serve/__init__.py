"""Serving subsystem: batched, parallel, observable inference.

Turns saved pipeline directories (``repro.persistence``) into a
long-lived service behind one HTTP front end, the asyncio gateway::

    from repro import load_corpus
    from repro.serve import GatewayServer, InferenceService, ModelRegistry

    registry = ModelRegistry(load_corpus("data/"))
    registry.register("default", "model/")
    service = InferenceService(registry, n_workers=4)
    gateway = GatewayServer(service, "0.0.0.0", 8080).start()
    ...
    gateway.close()
    service.close()

or from the command line::

    python -m repro.cli serve --model model/ --data data/ --port 8080

Components: :mod:`~repro.serve.registry` (named models + hot reload),
:mod:`~repro.serve.batcher` (micro-batching that dispatches whatever is
queued the moment it is free),
:mod:`~repro.serve.workers` (crash-supervised process pool, one job per
worker over a group of categories, each job one message on its worker's
own queue carrying its sequences as one float64 block),
:mod:`~repro.serve.cache` (encoded-sequence LRU),
:mod:`~repro.serve.metrics` (counters/gauges/histograms),
:mod:`~repro.serve.admission` (queues, shedding, rate limits),
:mod:`~repro.serve.gateway` (the asyncio HTTP front end),
:mod:`~repro.serve.rollout` (shadow/canary promotion),
:mod:`~repro.serve.server` (the inference service the gateway exposes).
"""

from repro.serve.admission import (
    AdmissionController,
    Decision,
    RoutePolicy,
    TokenBucket,
)
from repro.serve.batcher import BatcherClosed, BatcherSaturated, MicroBatcher
from repro.serve.cache import LruCache, sequence_key, token_fingerprint
from repro.serve.gateway import GatewayServer
from repro.serve.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.serve.registry import ModelEntry, ModelRegistry
from repro.serve.rollout import RolloutConfig, RolloutManager
from repro.serve.server import InferenceService, document_from_payload
from repro.serve.workers import (
    CRASH_CATEGORY,
    PoolClosed,
    WorkerCrash,
    WorkerPool,
)

__all__ = [
    "AdmissionController",
    "Decision",
    "RoutePolicy",
    "TokenBucket",
    "BatcherClosed",
    "BatcherSaturated",
    "MicroBatcher",
    "LruCache",
    "sequence_key",
    "token_fingerprint",
    "GatewayServer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ModelEntry",
    "ModelRegistry",
    "RolloutConfig",
    "RolloutManager",
    "InferenceService",
    "document_from_payload",
    "CRASH_CATEGORY",
    "PoolClosed",
    "WorkerCrash",
    "WorkerPool",
]
