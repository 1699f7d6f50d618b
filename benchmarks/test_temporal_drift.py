"""Drift benchmark: detection latency and post-retrain recovery.

The temporal subsystem's two promises are (1) drift in the document
stream is *detected* within a bounded number of documents and (2) the
surgical retrain *recovers* the lost F1 without re-encoding the
undrifted categories.  This benchmark injects vocabulary churn plus a
topic-prior shift into one category of the synthetic corpus, streams the
drifted epoch through a :class:`DriftMonitor`, retrains exactly the
drifted categories through the orchestrator, and records both numbers in
``BENCH_drift.json``.

``REPRO_BENCH_ASSERT=0`` disables the recovery/latency thresholds (CI
smoke runs tiny budgets); the artifact still records the measurements.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro import GpConfig, ProSysConfig, ProSysPipeline, make_corpus
from repro.corpus.reuters import Corpus
from repro.data import DatasetStore
from repro.evaluation.metrics import BinaryCounts, score_multilabel
from repro.runtime import RunContext
from repro.temporal import (
    DriftMonitor,
    RetrainOrchestrator,
    documents_in_epoch,
    time_slice,
)

CATEGORIES = ("earn", "grain")
DRIFTED = "earn"
WARM_DOCS = 80

#: Where the detection-latency / recovery measurement is recorded.
BENCH_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_drift.json"


def _config() -> ProSysConfig:
    return ProSysConfig(
        feature_method="mi",
        n_features=60,
        som_epochs=5,
        gp=GpConfig().small(tournaments=80),
        seed=13,
    )


def _macro_f1_on(pipeline, docs) -> float:
    """Macro F1 of the fitted suite on an arbitrary document batch."""
    values = pipeline.decision_matrix(docs)
    counts = {}
    for category, classifier in pipeline.suite.classifiers.items():
        labels = np.array(
            [1 if category in doc.topics else -1 for doc in docs]
        )
        predictions = np.where(values[category] > classifier.threshold, 1, -1)
        counts[category] = BinaryCounts.from_predictions(labels, predictions)
    return score_multilabel(counts).macro_f1


def test_drift_detection_and_recovery(tmp_path):
    corpus = make_corpus(
        scale=0.03,
        seed=11,
        n_epochs=3,
        drift_epoch=2,
        vocab_churn=0.8,
        topic_shift=0.3,
        drift_categories=(DRIFTED,),
    )
    docs = list(corpus.documents)
    drift_docs = documents_in_epoch(docs, 2)
    adopt, held = (
        drift_docs[: len(drift_docs) // 2],
        drift_docs[len(drift_docs) // 2:],
    )

    # Fit on the pre-drift epochs; the drifted epoch is the test split.
    pre = time_slice(docs, train_through=1, test_epoch=2, categories=CATEGORIES)
    store = DatasetStore(tmp_path / "store")
    config = _config()
    pipeline = ProSysPipeline(config, data_store=store)
    pipeline.fit(pre, categories=CATEGORIES, ctx=RunContext(seed=config.seed))

    # --- detection: warm the monitor on in-distribution traffic, then
    # stream the drifted epoch and count documents until the alarm.
    warm = list(pre.train_documents)[-WARM_DOCS:]
    stream = warm + drift_docs
    sequences = {
        category: [
            pipeline.encoder.encode_document(
                doc, pipeline.tokenized, pipeline.feature_set, category
            ).sequence
            for doc in stream
        ]
        for category in CATEGORIES
    }
    values = {
        category: pipeline.suite.classifiers[category].decision_values(
            sequences[category]
        )
        for category in CATEGORIES
    }

    # Stream until the first alarm -- operationally the alarm triggers
    # the retrain; the rest of the epoch is what retraining prevents.
    monitor = DriftMonitor(CATEGORIES)
    alarms = []
    started = time.perf_counter()
    for position, doc in enumerate(stream):
        words_seen = len(pipeline.tokenized.tokens(doc))
        for category in CATEGORIES:
            alarm = monitor.observe(
                category,
                float(values[category][position]),
                words_encoded=len(sequences[category][position]),
                words_seen=words_seen,
            )
            if alarm is not None:
                alarms.append(alarm)
        if alarms:
            break
    detection_seconds = time.perf_counter() - started

    first = alarms[0] if alarms else None
    detection_latency = (
        first.at_document - len(warm) if first is not None else None
    )
    degraded = _macro_f1_on(pipeline, held)

    # --- response: adopt the first half of the drifted epoch into the
    # training window and retrain only what drifted; the held-back half
    # scores the recovery.
    extended = Corpus.from_documents(
        [
            replace(doc, split="train")
            for doc in list(pre.train_documents) + adopt
        ]
        + [replace(doc, split="test") for doc in held],
        CATEGORIES,
    )
    orchestrator = RetrainOrchestrator(pipeline, monitor=monitor)
    started = time.perf_counter()
    report = orchestrator.retrain(
        extended, monitor.drifted() or (DRIFTED,), ctx=RunContext(seed=config.seed)
    )
    retrain_seconds = time.perf_counter() - started
    recovered = pipeline.evaluate("test").macro_f1

    payload = {
        "drifted_category": DRIFTED,
        "vocab_churn": 0.8,
        "topic_shift": 0.3,
        "warm_documents": len(warm),
        "drifted_documents": len(drift_docs),
        "detection_latency_docs": detection_latency,
        "detection_seconds": detection_seconds,
        "alarms": [
            {
                "category": alarm.category,
                "source": alarm.source,
                "at_document": alarm.at_document,
            }
            for alarm in alarms
        ],
        "degraded_macro_f1": degraded,
        "recovered_macro_f1": recovered,
        "recovery_delta": recovered - degraded,
        "retrain_seconds": retrain_seconds,
        "retrained": list(report.retrained),
        "kept": list(report.kept),
        "reused_datasets": report.reused_datasets,
        "reencoded_documents": report.reencoded_documents,
    }
    BENCH_RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print("\nDrift detection and recovery")
    print(f"  alarm: {first.category if first else 'none'} "
          f"via {first.source if first else '-'} "
          f"after {detection_latency} drifted docs")
    print(f"  macro F1 on held-out drifted docs: "
          f"{degraded:.3f} -> {recovered:.3f}")
    print(f"  retrained={payload['retrained']} kept={payload['kept']} "
          f"reused_datasets={report.reused_datasets}")

    if os.environ.get("REPRO_BENCH_ASSERT", "1") != "0":
        assert first is not None, "drift was never detected"
        assert first.category == DRIFTED
        assert detection_latency is not None
        assert detection_latency <= len(drift_docs), (
            f"alarm after {detection_latency} docs; the whole drifted epoch "
            f"is only {len(drift_docs)}"
        )
        assert report.retrained == (DRIFTED,)
        assert report.kept == ("grain",)
        assert report.reused_datasets >= 1, (
            "the kept category should re-open its dataset from the store"
        )
        assert recovered >= degraded, (
            f"retrain made things worse: {degraded:.3f} -> {recovered:.3f}"
        )
