"""End-to-end drift scenario: inject churn, detect, surgically retrain.

The acceptance path of the temporal subsystem: a corpus with vocabulary
churn and a topic-prior shift in ``earn`` from epoch 2 on, a pipeline
fitted on epochs 0-1 with a shared :class:`DatasetStore`, a monitor that
must alarm within the drifted epoch, and an orchestrator retrain that
must touch *only* ``earn`` -- the store's counters prove ``grain``
re-opened its dataset without encoding anything.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import GpConfig, ProSysConfig, ProSysPipeline, make_corpus
from repro.corpus.reuters import Corpus
from repro.data import DatasetStore
from repro.persistence import load_rule, load_word_som
from repro.runtime import CheckpointStore, RunContext
from repro.runtime.events import EventBus
from repro.temporal import (
    DriftMonitor,
    RetrainOrchestrator,
    documents_in_epoch,
    time_slice,
)

CATEGORIES = ("earn", "grain")
DRIFTED = "earn"


def _config():
    return ProSysConfig(
        feature_method="mi",
        n_features=60,
        som_epochs=5,
        gp=GpConfig().small(tournaments=80),
        seed=13,
    )


@pytest.fixture(scope="module")
def drift_docs_all():
    corpus = make_corpus(
        scale=0.03,
        seed=11,
        n_epochs=3,
        drift_epoch=2,
        vocab_churn=0.8,
        topic_shift=0.3,
        drift_categories=(DRIFTED,),
    )
    return list(corpus.documents)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return DatasetStore(tmp_path_factory.mktemp("temporal-store") / "store")


@pytest.fixture(scope="module")
def fitted(drift_docs_all, store):
    """Pipeline fitted on the pre-drift epochs (0 and 1)."""
    pre = time_slice(
        drift_docs_all, train_through=1, test_epoch=2, categories=CATEGORIES
    )
    config = _config()
    pipeline = ProSysPipeline(config, data_store=store)
    pipeline.fit(pre, categories=CATEGORIES, ctx=RunContext(seed=config.seed))
    return pipeline, pre


# ----------------------------------------------------------------------
# orchestrator validation
# ----------------------------------------------------------------------
def test_orchestrator_rejects_an_unfitted_pipeline():
    with pytest.raises(ValueError, match="fitted"):
        RetrainOrchestrator(ProSysPipeline(_config()))


def test_retrain_rejects_unknown_categories(fitted, drift_docs_all):
    pipeline, pre = fitted
    with pytest.raises(KeyError, match="ship"):
        RetrainOrchestrator(pipeline).retrain(pre, ["ship"])


def test_retrain_rejects_an_empty_drift_set(fitted):
    pipeline, pre = fitted
    with pytest.raises(ValueError, match="no drifted"):
        RetrainOrchestrator(pipeline).retrain(pre, [])


# ----------------------------------------------------------------------
# the acceptance scenario
# ----------------------------------------------------------------------
def test_drift_is_detected_and_retrained_surgically(
    fitted, drift_docs_all, tmp_path
):
    pipeline, pre = fitted
    config = _config()
    drifted_epoch = documents_in_epoch(drift_docs_all, 2)
    adopt = drifted_epoch[: len(drifted_epoch) // 2]
    held = drifted_epoch[len(drifted_epoch) // 2:]

    # --- detect: warm on in-distribution traffic, stream the drifted
    # epoch, stop at the first alarm (which triggers the retrain).
    warm = list(pre.train_documents)[-80:]
    stream = warm + drifted_epoch
    monitor = DriftMonitor(CATEGORIES)
    first_alarm = None
    for doc in stream:
        words_seen = len(pipeline.tokenized.tokens(doc))
        for category in CATEGORIES:
            encoded = pipeline.encoder.encode_document(
                doc, pipeline.tokenized, pipeline.feature_set, category
            )
            value = float(
                pipeline.suite.classifiers[category].decision_values(
                    [encoded.sequence]
                )[0]
            )
            alarm = monitor.observe(
                category,
                value,
                words_encoded=len(encoded.sequence),
                words_seen=words_seen,
            )
            if alarm is not None and first_alarm is None:
                first_alarm = alarm
        if first_alarm is not None:
            break

    assert first_alarm is not None, "injected drift was never detected"
    assert first_alarm.category == DRIFTED
    latency = first_alarm.at_document - len(warm)
    assert 0 < latency <= len(drifted_epoch), (
        f"alarm after {latency} drifted docs; epoch has {len(drifted_epoch)}"
    )
    assert monitor.drifted() == (DRIFTED,)

    degraded = pipeline.evaluate("test").macro_f1  # test split = epoch 2

    # --- respond: adopt half the drifted epoch into the training window
    # and retrain only what drifted; the held-back half scores recovery.
    extended = Corpus.from_documents(
        [replace(d, split="train") for d in list(pre.train_documents) + adopt]
        + [replace(d, split="test") for d in held],
        CATEGORIES,
    )
    events = []
    checkpoints = CheckpointStore(tmp_path / "run")
    ctx = RunContext(
        seed=config.seed,
        events=EventBus([events.append]),
        checkpoints=checkpoints,
    )
    report = RetrainOrchestrator(pipeline, monitor=monitor).retrain(
        extended, monitor.drifted(), ctx=ctx
    )

    # Surgical: only earn was refit; grain's training data re-opened at
    # its original address -- a store hit with nothing encoded for it.
    assert report.retrained == (DRIFTED,)
    assert report.kept == ("grain",)
    assert report.reused_datasets >= 1
    assert report.reencoded_documents == len(extended.train_documents)
    assert report.store_stats.get("encoded_documents", 0) == (
        report.reencoded_documents
    )
    dropped, added = report.features_changed[DRIFTED]
    assert added > 0, "churned vocabulary should change the selected terms"

    # The monitor was reset for the retrained category.
    assert monitor.drifted() == ()

    # Recovery: the retrained suite on held-out drifted documents must
    # come back to within 5% of (or above) the degraded score.
    recovered = pipeline.evaluate("test").macro_f1  # test split = held
    assert recovered >= degraded - 0.05, (
        f"macro F1 did not recover: {degraded:.3f} -> {recovered:.3f}"
    )

    # The retrained parts were checkpointed, and their stages load back
    # to exactly what the pipeline now holds.
    assert checkpoints.completed() == ["rlgp__earn", "word_som__earn"]
    encoder = pipeline.encoder.encoder_for(DRIFTED)
    restored = checkpoints.load(
        f"word_som/{DRIFTED}",
        lambda directory: load_word_som(directory, DRIFTED, pipeline.encoder),
    )
    np.testing.assert_array_equal(restored.som.weights, encoder.som.weights)
    assert restored.selected_units == encoder.selected_units
    classifier = pipeline.suite.classifiers[DRIFTED]
    rule = checkpoints.load(
        f"rlgp/{DRIFTED}",
        lambda directory: load_rule(directory, DRIFTED, config.recurrent),
    )
    assert rule.program.code == classifier.program.code
    assert rule.threshold == classifier.threshold
    assert rule.train_fitness == classifier.train_fitness

    # Structured reporting went over the bus.
    kinds = [e.kind for e in events]
    assert "retrain_started" in kinds
    assert "retrain_finished" in kinds
    finished = next(e for e in events if e.kind == "retrain_finished")
    assert finished.payload["retrained"] == [DRIFTED]
    assert finished.payload["kept"] == ["grain"]
