"""The inference service behind the HTTP gateway.

:class:`InferenceService` wires the serving subsystem together:

* requests enter through the :class:`~repro.serve.batcher.MicroBatcher`,
  which hands whatever is queued to one batch call the moment it is free
  (classification is batch-friendly; the RLGP evaluator vectorises
  across documents);
* encoded word sequences are memoised in the
  :class:`~repro.serve.cache.LruCache` keyed on token fingerprints;
* per-category evaluation fans across the
  :class:`~repro.serve.workers.WorkerPool`, one job per worker, each
  scoring a group of categories;
* everything is observable through one
  :class:`~repro.serve.metrics.MetricsRegistry`.

The service speaks Python, not HTTP: :class:`repro.serve.gateway.GatewayServer`
exposes it over the network, and tests and benchmarks call it directly.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from concurrent.futures import Future

from repro.classify.tracking import track_document
from repro.corpus.document import Document
from repro.errors import PersistenceError
from repro.runtime.events import EventBus
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import LruCache, sequence_key, token_fingerprint
from repro.gp.engine import shared_metrics
from repro.serve.metrics import MetricsRegistry, render_snapshot
from repro.serve.registry import ModelRegistry
from repro.serve.rollout import RolloutConfig, RolloutManager
from repro.serve.workers import WorkerPool


def document_from_payload(payload: dict, fallback_id: int = 0) -> Document:
    """Build a :class:`Document` from a request payload.

    Accepts either ``{"text": ...}`` or ``{"id", "title", "body"}``
    (topics, when present, are carried along for comparison use-cases).
    """
    if not isinstance(payload, dict):
        raise ValueError("each document must be a JSON object")
    if "text" in payload:
        body = payload["text"]
        title = payload.get("title", "")
    else:
        body = payload.get("body", "")
        title = payload.get("title", "")
    if not (title or body):
        raise ValueError("document has no text (need 'text' or 'title'/'body')")
    return Document(
        doc_id=int(payload.get("id", fallback_id)),
        title=title,
        body=body,
        topics=tuple(payload.get("topics", ())),
        split="test",
    )


class InferenceService:
    """Batched, parallel, observable inference over registered models.

    Args:
        registry: the models to serve.
        n_workers: worker processes for per-category evaluation
            (0 = evaluate inline).
        max_batch_size: most documents one micro-batch carries.
        cache_size: encoded-sequence LRU capacity (0 disables).
        metrics: optional shared registry (one is created otherwise).
        data_store: optional :class:`repro.data.DatasetStore`.  When
            set, the LRU is warmed at startup (and after hot reloads)
            from each model's stored serve-miss dataset, and cache
            misses are spooled and written back, so a restarted service
            starts warm from its own past traffic instead of cold.
        drift_detect: when True, every classified document also feeds a
            per-model :class:`~repro.temporal.detector.DriftMonitor`
            (decision values + encoder word coverage); state is exposed
            on ``/drift`` and as ``drift_*`` metrics.
    """

    #: Spooled misses per model triggering an automatic write-back.
    WRITEBACK_THRESHOLD = 256

    def __init__(
        self,
        registry: ModelRegistry,
        n_workers: int = 1,
        max_batch_size: int = 16,
        cache_size: int = 4096,
        max_queue: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        data_store=None,
        drift_detect: bool = False,
        events: Optional[EventBus] = None,
    ) -> None:
        self.registry = registry
        self.n_workers = n_workers
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = LruCache(cache_size)
        self.data_store = data_store
        self.drift_detect = drift_detect
        self.events = events
        #: Attached by the asyncio gateway; lets /healthz fold admission
        #: saturation into its degraded signal.
        self.admission = None
        self._rollout: Optional[RolloutManager] = None
        self._rollout_lock = threading.Lock()
        self._drift_monitors: Dict[str, object] = {}  # guarded by _drift_lock
        self._drift_lock = threading.Lock()
        self.started_at = time.time()

        self._requests = self.metrics.counter(
            "service_requests_total", "classify calls"
        )
        self._documents = self.metrics.counter(
            "service_documents_total", "documents classified"
        )
        self._request_latency = self.metrics.histogram(
            "service_request_seconds", "end-to-end classify latency"
        )
        self._encode_latency = self.metrics.histogram(
            "service_encode_seconds", "batch encoding latency"
        )
        self._reloads = self.metrics.counter(
            "service_model_reloads_total", "hot reloads applied"
        )

        self._cache_warmed = self.metrics.counter(
            "service_cache_warmed_total", "cache entries warmed from the store"
        )
        self._store_writebacks = self.metrics.counter(
            "service_store_writebacks_total", "miss sequences written back"
        )
        self._writeback_failures = self.metrics.counter(
            "service_store_writeback_failures_total",
            "miss sequences dropped because the store write failed",
        )

        self._pools: Dict[str, Tuple[int, WorkerPool]] = {}  # guarded by _pools_lock
        self._pools_lock = threading.Lock()
        #: store address -> {"meta": ingest metadata, "items": spooled
        #: sequences}.  The address is computed when a miss is spooled
        #: (it fingerprints the encoder that produced the sequence), so
        #: a hot reload between spool and flush cannot retarget old
        #: encodings at the new encoder's dataset.
        self._miss_spool: Dict[str, dict] = {}  # guarded by _spool_lock
        self._miss_addresses: Dict[Tuple[str, int, str], str] = {}  # guarded by _spool_lock
        self._spool_lock = threading.Lock()
        self._closed = False
        self.batcher = MicroBatcher(
            self._handle_batch,
            max_batch_size=max_batch_size,
            max_queue=max_queue,
            metrics=self.metrics,
        )
        if self.data_store is not None:
            for name in self.registry.names:
                self.warm_cache(name)

    # ------------------------------------------------------------------
    # public API (used by the HTTP layer, tests and the benchmark alike)
    # ------------------------------------------------------------------
    def classify(
        self, documents: Sequence[Document], model: Optional[str] = None
    ) -> List[dict]:
        """Classify documents; one result dict per input, in order."""
        start = time.perf_counter()
        futures = self.submit_documents(documents, model=model)
        results = [future.result() for future in futures]
        self._request_latency.observe(time.perf_counter() - start)
        return results

    def submit_documents(
        self, documents: Sequence[Document], model: Optional[str] = None
    ) -> List[Future]:
        """Enqueue documents for classification; one future per input.

        The non-blocking half of :meth:`classify`: the asyncio gateway
        submits here and awaits the futures on its event loop instead of
        parking a thread per request.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        entry = self.registry.get(model)  # resolve + validate the name now
        self._requests.inc()
        self._documents.inc(len(documents))
        return self.batcher.submit_many(
            [(entry.name, doc) for doc in documents]
        )

    def submit_payloads(
        self, payloads: Sequence[dict], model: Optional[str] = None
    ) -> List[Future]:
        """Enqueue raw request payloads; one future per input."""
        documents = [
            document_from_payload(payload, fallback_id=index)
            for index, payload in enumerate(payloads)
        ]
        return self.submit_documents(documents, model=model)

    def track(
        self, text: str, category: str, model: Optional[str] = None
    ) -> dict:
        """Per-word trace of one category's classifier over ``text``.

        The paper's word tracking (Sec. 8.2) as a service: one state per
        encoded word, read by :func:`~repro.classify.tracking.track_document`
        the way ``/classify`` reads a text (cut at the model's
        ``max_sequence_length`` too), so the last state's ``value`` is
        the text's decision value.  ``position`` indexes the
        feature-selected words (``words_seen`` of them), and
        ``in_class`` is False when no word is encoded.
        """
        entry = self.registry.get(model)
        pipeline = entry.pipeline
        if category not in pipeline.suite.classifiers:
            raise KeyError(
                f"model {entry.name!r} has no classifier for {category!r}"
            )
        tokens = pipeline.tokenized.preprocessor.tokens(text)
        words = pipeline.feature_set.filter_tokens(tokens, category)
        classifier = pipeline.suite.classifiers[category]
        trace = track_document(
            classifier,
            pipeline.encoder.encoder_for(category).encode(
                0, words, max_words=pipeline.encoder.max_sequence_length
            ),
        )
        flags = trace.in_class_flags.tolist()
        return {
            "model": entry.name,
            "category": category,
            "threshold": classifier.threshold,
            "words_seen": len(words),
            "words_encoded": len(trace),
            "in_class": flags[-1] if flags else False,
            "states": [
                {"word": word, "position": position, "value": value,
                 "in_class": flag}
                for word, position, value, flag in zip(
                    trace.words, trace.positions, trace.squashed.tolist(), flags
                )
            ],
        }

    def reload(self, model: Optional[str] = None) -> dict:
        """Hot-reload a model if its manifest changed on disk."""
        reloaded = self.registry.maybe_reload(model)
        entry = self.registry.get(model)
        if reloaded:
            self._reloads.inc()
            self.flush_misses()
            self.cache.clear()
            if self.data_store is not None:
                self.warm_cache(entry.name)
        return {"model": entry.name, "reloaded": reloaded,
                "version": entry.version}

    def warm_cache(self, model: Optional[str] = None) -> int:
        """Pre-populate the LRU from the store's serve-miss dataset.

        The dataset is addressed by the model's *encoding fingerprint*
        (see :func:`repro.data.fingerprint.serve_miss_address`), so a
        restarted service warms from exactly the traffic this encoder
        saw, while a retrained model misses cleanly and starts fresh.
        The cached values are the stored sequences themselves (memmap
        views of the sealed shards); a job ships them to workers like
        any freshly encoded sequence.  Returns the number of cache
        entries inserted.
        """
        if self.data_store is None:
            return 0
        entry = self.registry.get(model)
        pipeline = entry.pipeline
        model_key = f"{entry.name}@{entry.version}"
        warmed = 0
        for category in pipeline.suite.categories:
            address = self._serve_miss_address(entry, category)
            if not self.data_store.has(address):
                continue
            try:
                stored = self.data_store.open(address)
            except PersistenceError:
                # Corrupt or unsealed: discard so the next write-back
                # rebuilds the dataset from scratch.
                self.data_store.discard(address)
                continue
            except OSError:
                # Transient read failure (EMFILE, permissions, ...):
                # skip warming but keep the accumulated history.
                continue
            warmed += self.cache.warm(
                (sequence_key(model_key, category, fingerprint), sequence)
                for fingerprint, sequence in zip(
                    stored.fingerprints, stored.sequences
                )
                if fingerprint
            )
        self._cache_warmed.inc(warmed)
        return warmed

    def flush_misses(self) -> int:
        """Write spooled cache misses back to the dataset store.

        Idempotent and safe to call at any time (the store dedupes by
        token fingerprint, and existing shards are adopted by hard link,
        not rewritten).  Each spool batch targets the store address
        recorded when the miss was spooled, so sequences always land in
        the dataset of the encoder that produced them -- even if the
        model hot-reloaded in between.  Write-back is an optimisation:
        store failures are counted and the batch dropped (the sequences
        respool on their next miss), never raised into serving.  Returns
        the number of sequences accepted by the store.  Called
        automatically when the spool reaches ``WRITEBACK_THRESHOLD``, on
        reload, and on :meth:`close`.
        """
        if self.data_store is None:
            return 0
        with self._spool_lock:
            spooled = self._miss_spool
            self._miss_spool = {}
        flushed = 0
        for address, spool in spooled.items():
            items = spool["items"]
            try:
                self.data_store.ingest(address, items, extra_meta=spool["meta"])
            except (PersistenceError, OSError):
                self._writeback_failures.inc(len(items))
                continue
            flushed += len(items)
        self._store_writebacks.inc(flushed)
        return flushed

    def drift_monitor(self, model: Optional[str] = None):
        """The model's :class:`~repro.temporal.detector.DriftMonitor`
        (created on first use), or None when detection is off.

        The monitor survives hot reloads: drift state describes the
        *traffic*, and a reload that did not retrain the drifted
        categories has not answered the alarm.  The retrain
        orchestrator resets exactly the categories it refit.
        """
        if not self.drift_detect:
            return None
        entry = self.registry.get(model)
        with self._drift_lock:
            monitor = self._drift_monitors.get(entry.name)
            if monitor is None:
                from repro.temporal.detector import DriftMonitor

                monitor = DriftMonitor(
                    entry.pipeline.suite.categories, metrics=self.metrics
                )
                self._drift_monitors[entry.name] = monitor
            return monitor

    def drift_report(self, model: Optional[str] = None) -> dict:
        """JSON-ready drift state for one model (the ``/drift`` view)."""
        entry = self.registry.get(model)
        monitor = self.drift_monitor(model)
        if monitor is None:
            return {"model": entry.name, "enabled": False}
        report = monitor.report()
        report["model"] = entry.name
        report["enabled"] = True
        return report

    # ------------------------------------------------------------------
    # shadow/canary rollout
    # ------------------------------------------------------------------
    def start_rollout(
        self,
        candidate: str,
        incumbent: Optional[str] = None,
        config: Optional[dict] = None,
    ) -> dict:
        """Start driving ``candidate`` through shadow -> canary -> verdict.

        Args:
            candidate: a registered model (register or hot-load it
                first); promoted to registry default on metric parity.
            incumbent: the model whose traffic is compared (defaults to
                the registry default).
            config: :class:`~repro.serve.rollout.RolloutConfig` fields.

        Raises:
            ValueError: a rollout is already live, the names coincide,
                or the config is malformed.
            KeyError: unknown model name.
        """
        candidate_entry = self.registry.get(candidate)
        incumbent_name = (
            incumbent
            if incumbent is not None
            else self.registry.default_name
        )
        incumbent_entry = self.registry.get(incumbent_name)
        rollout_config = RolloutConfig.from_payload(config or {})
        with self._rollout_lock:
            if self._rollout is not None and not self._rollout.finished:
                raise ValueError(
                    f"a rollout of {self._rollout.candidate!r} is already "
                    "live; abort it first (DELETE /rollout)"
                )
            previous = self._rollout
            manager = RolloutManager(
                incumbent_entry.name,
                candidate_entry.name,
                evaluate=self._classify_model_batch,
                promote=lambda: self.registry.set_default(
                    candidate_entry.name
                ),
                config=rollout_config,
                events=self.events,
                metrics=self.metrics,
            )
            self._rollout = manager
        if previous is not None:
            previous.close()  # free the finished rollout's mirror thread
        return manager.report()

    def rollout_report(self) -> Optional[dict]:
        """The live (or last finished) rollout's report; None if none."""
        with self._rollout_lock:
            rollout = self._rollout
        return rollout.report() if rollout is not None else None

    def abort_rollout(self) -> Optional[dict]:
        """Terminate the live rollout without a verdict; None if none."""
        with self._rollout_lock:
            rollout = self._rollout
        if rollout is None:
            return None
        rollout.abort()
        return rollout.report()

    def health(self) -> dict:
        """Liveness view; ``status`` degrades (load-balancer drain cue)
        when any model's worker pool is below its target size or the
        gateway's admission queues are saturated."""
        degraded: List[str] = []
        with self._pools_lock:
            pools = list(self._pools.items())
        for name, (_, pool) in pools:
            alive = pool.n_alive
            if pool.n_workers and alive < pool.n_workers:
                degraded.append(
                    f"pool {name!r} at {alive}/{pool.n_workers} workers"
                )
        if self.admission is not None and self.admission.saturated:
            degraded.append("admission queue saturated")
        return {
            "status": "degraded" if degraded else "ok",
            "degraded_reasons": degraded,
            "uptime_seconds": time.time() - self.started_at,
            "models": self.registry.names,
            "default_model": self.registry.default_name,
            "n_workers": self.n_workers,
            "queue_depth": self.batcher.queue_depth,
        }

    def snapshot(self) -> dict:
        """Metrics snapshot including cache statistics and GP engine
        activity (classification runs through the fused engine, whose
        counters live on a process-wide registry -- see
        :func:`repro.gp.engine.shared_metrics`)."""
        self._export_cache_stats()
        combined = self.metrics.snapshot()
        shared = shared_metrics()
        if shared is not self.metrics:
            combined.update(shared.snapshot())
        return combined

    def metrics_text(self) -> str:
        return render_snapshot(self.snapshot())

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with self._rollout_lock:
            rollout, self._rollout = self._rollout, None
        if rollout is not None:
            rollout.close()
        self.flush_misses()
        self.batcher.close()
        with self._pools_lock:
            pools = [pool for _, pool in self._pools.values()]
            self._pools.clear()
        for pool in pools:
            pool.shutdown()

    # ------------------------------------------------------------------
    # batch path
    # ------------------------------------------------------------------
    def _handle_batch(self, items: List[Tuple[str, Document]]) -> List[dict]:
        """One micro-batch: group by model, encode, fan out, assemble."""
        by_model: Dict[str, List[int]] = {}
        for index, (model_name, _) in enumerate(items):
            by_model.setdefault(model_name, []).append(index)
        results: List[Optional[dict]] = [None] * len(items)
        for model_name, indices in by_model.items():
            documents = [items[index][1] for index in indices]
            for index, result in zip(
                indices, self._classify_model_batch(model_name, documents)
            ):
                results[index] = result
        self._export_cache_stats()
        return results

    def _classify_model_batch(
        self, model_name: str, documents: Sequence[Document]
    ) -> List[dict]:
        batch_started = time.perf_counter()
        entry = self.registry.get(model_name)
        pipeline = entry.pipeline
        categories = list(pipeline.suite.categories)
        with self._encode_latency.time():
            sequences_by_category, token_counts = self._encode_batch(
                entry, documents
            )
        pool = self._pool_for(entry)
        values_by_category = pool.evaluate_many(sequences_by_category)
        monitor = self.drift_monitor(model_name)
        results = []
        for position, doc in enumerate(documents):
            values = {
                category: float(values_by_category[category][position])
                for category in categories
            }
            if monitor is not None:
                for category in categories:
                    monitor.observe(
                        category,
                        values[category],
                        len(sequences_by_category[category][position]),
                        token_counts[position],
                    )
            topics = [
                category
                for category in categories
                if values[category]
                > pipeline.suite.classifiers[category].threshold
            ]
            results.append(
                {
                    "doc_id": doc.doc_id,
                    "model": entry.name,
                    "topics": topics,
                    "decision_values": values,
                }
            )
        with self._rollout_lock:
            rollout = self._rollout
        if rollout is not None and rollout.wants(model_name):
            # Incumbent traffic only: the manager's own candidate
            # evaluations come back through this method under the
            # candidate's name and must not re-enter the rollout.
            results = rollout.intercept(
                documents, results, time.perf_counter() - batch_started
            )
        return results

    def _encode_batch(
        self, entry, documents: Sequence[Document]
    ) -> Tuple[Dict[str, list], List[int]]:
        """Per-category sequences for a document batch, via the LRU cache.

        Tokenisation is done fresh from the document text (never through
        ``TokenizedCorpus``'s doc-id keyed cache: served documents carry
        client-chosen ids).  Encoding is deterministic, so identical token
        streams are served from the cache.

        Returns the sequences and each document's raw token count (the
        drift monitor's coverage denominator).
        """
        pipeline = entry.pipeline
        preprocessor = pipeline.tokenized.preprocessor
        model_key = f"{entry.name}@{entry.version}"
        sequences_by_category: Dict[str, list] = {
            category: [] for category in pipeline.suite.categories
        }
        token_counts: List[int] = []
        for doc in documents:
            tokens = preprocessor.document_tokens(doc)
            token_counts.append(len(tokens))
            fingerprint = token_fingerprint(tokens)
            for category in pipeline.suite.categories:
                key = sequence_key(model_key, category, fingerprint)
                sequence = self.cache.get(key)
                if sequence is None:
                    indexed = pipeline.feature_set.filter_tokens_with_positions(
                        tokens, category
                    )
                    encoded = pipeline.encoder.encoder_for(category).encode(
                        doc.doc_id,
                        [word for _, word in indexed],
                        positions=[index for index, _ in indexed],
                        max_words=pipeline.encoder.max_sequence_length,
                    )
                    sequence = encoded.sequence
                    self.cache.put(key, sequence)
                    self._spool_miss(
                        entry, category, doc.doc_id, sequence, fingerprint
                    )
                sequences_by_category[category].append(sequence)
        return sequences_by_category, token_counts

    def _spool_miss(
        self, entry, category: str, doc_id: int, sequence, fingerprint: str
    ) -> None:
        """Queue a freshly encoded sequence for store write-back.

        The target store address is resolved *now*, from the entry that
        encoded the sequence, and travels with the spool batch: a later
        flush must never re-derive it from the registry, which may have
        hot-reloaded to a different encoder in the meantime.
        """
        if self.data_store is None:
            return
        address = self._serve_miss_address(entry, category)
        with self._spool_lock:
            spool = self._miss_spool.setdefault(
                address,
                {
                    "meta": {
                        "category": category,
                        "split": "serve",
                        "model": entry.name,
                    },
                    "items": [],
                },
            )
            spool["items"].append((doc_id, 0, sequence, fingerprint))
            pending = sum(len(s["items"]) for s in self._miss_spool.values())
        if pending >= self.WRITEBACK_THRESHOLD:
            self.flush_misses()

    def _serve_miss_address(self, entry, category: str) -> str:
        """The store address for an entry's write-back dataset (cached:
        the fingerprint hashes SOM weights, too costly per miss)."""
        cache_key = (entry.name, entry.version, category)
        with self._spool_lock:
            address = self._miss_addresses.get(cache_key)
        if address is None:
            from repro.data.fingerprint import serve_miss_address

            # Computed outside the lock -- the fingerprint hashes SOM
            # weights; a duplicate computation on a race is cheaper than
            # holding the spool lock for it (both writers store the same
            # deterministic address).
            address = serve_miss_address(
                entry.pipeline.encoder,
                entry.pipeline.feature_set,
                category,
                name=entry.name,
            )
            with self._spool_lock:
                self._miss_addresses[cache_key] = address
        return address

    def _pool_for(self, entry) -> WorkerPool:
        """The worker pool for a model entry, rebuilt when it reloads.

        Built outside ``_pools_lock``: WorkerPool() forks workers, and a
        fork while any thread holds a lock copies the held mutex into
        the child (REPRO-C002).  Double-checked instead -- a concurrent
        builder may race us, and the loser's pool is shut down.
        """
        with self._pools_lock:
            current = self._pools.get(entry.name)
            if current is not None and current[0] == entry.version:
                return current[1]
        pool = WorkerPool(
            entry.pipeline.suite.classifiers,
            n_workers=self.n_workers,
            metrics=self.metrics,
        )
        with self._pools_lock:
            current = self._pools.get(entry.name)
            if current is not None and current[0] == entry.version:
                loser, winner = pool, current[1]
            else:
                stale = current[1] if current is not None else None
                self._pools[entry.name] = (entry.version, pool)
                loser, winner = stale, pool
        if loser is not None:
            loser.shutdown()
        return winner

    def _export_cache_stats(self) -> None:
        stats = self.cache.stats()
        self.metrics.gauge("cache_size", "entries cached").set(stats["size"])
        self.metrics.gauge("cache_hits", "cache hits").set(stats["hits"])
        self.metrics.gauge("cache_misses", "cache misses").set(stats["misses"])
        self.metrics.gauge("cache_evictions", "evictions").set(
            stats["evictions"]
        )
        self.metrics.gauge("cache_hit_rate", "hits / lookups").set(
            stats["hit_rate"]
        )
