"""End-to-end tests of the ProSys pipeline."""

from dataclasses import replace

import numpy as np
import pytest

from repro import GpConfig, ProSysConfig, ProSysPipeline
from repro.classify.tracking import TrackingTrace


@pytest.fixture(scope="module")
def fitted(corpus):
    config = ProSysConfig(
        feature_method="mi",
        n_features=60,
        som_epochs=8,
        gp=GpConfig().small(tournaments=180),
        seed=3,
    )
    return ProSysPipeline(config).fit(corpus, categories=["earn", "grain"])


def test_unknown_feature_method_rejected():
    with pytest.raises(ValueError, match="feature method"):
        ProSysConfig(feature_method="tfidf")


def test_unfitted_pipeline_raises(corpus):
    pipeline = ProSysPipeline()
    with pytest.raises(RuntimeError, match="not fitted"):
        pipeline.evaluate()


def test_fit_populates_components(fitted):
    assert fitted.is_fitted
    assert set(fitted.suite.classifiers) == {"earn", "grain"}
    assert fitted.encoder.is_fitted
    assert fitted.feature_set.method == "mi"


def test_evaluate_produces_paper_shapes(fitted):
    scores = fitted.evaluate("test")
    assert set(scores.per_category) == {"earn", "grain"}
    assert 0.0 <= scores.micro_f1 <= 1.0
    # earn is the paper's easiest category; the pipeline must do clearly
    # better than chance on it even at smoke-test budgets.
    assert scores.f1("earn") > 0.5


def test_evaluate_train_split_accessible(fitted):
    scores = fitted.evaluate("train")
    assert scores.f1("earn") > 0.5


def test_predict_topics_returns_subset_of_fitted(fitted, corpus):
    doc = corpus.test_documents[0]
    topics = fitted.predict_topics(doc)
    assert set(topics) <= {"earn", "grain"}


def test_track_returns_trace(fitted, corpus):
    doc = corpus.test_for("earn")[0]
    trace = fitted.track(doc, "earn")
    assert isinstance(trace, TrackingTrace)
    assert len(trace) > 0
    assert np.all(np.abs(trace.squashed) <= 1.0)


def test_track_all_covers_categories(fitted, corpus):
    doc = corpus.test_for("grain")[0]
    traces = fitted.track_all(doc)
    assert set(traces) == {"earn", "grain"}


def test_multi_label_document_tracked_by_both(fitted, corpus):
    multi = [
        d for d in corpus.test_documents
        if d.has_topic("grain") and d.has_topic("earn")
    ]
    doc = multi[0] if multi else corpus.test_for("grain")[0]
    traces = fitted.track_all(doc)
    assert all(isinstance(t, TrackingTrace) for t in traces.values())


def test_new_document_is_read_from_its_own_text(fitted, corpus):
    """A new document reusing a corpus document's id scores and tracks
    exactly like the same text under an id no corpus document has."""
    taken = corpus.train_for("earn")[0]
    text = corpus.test_for("grain")[0]
    unused = max(doc.doc_id for doc in corpus.documents) + 1
    reused = replace(text, doc_id=taken.doc_id)
    fresh = replace(text, doc_id=unused)
    assert fitted.tokenized.tokens(reused) != fitted.tokenized.tokens(taken)

    reused_values = fitted.decision_matrix([reused])
    fresh_values = fitted.decision_matrix([fresh])
    for category in ("earn", "grain"):
        assert np.array_equal(reused_values[category], fresh_values[category])
    assert fitted.predict_topics(reused) == fitted.predict_topics(fresh)
    reused_traces = fitted.track_all(reused)
    for category, trace in fitted.track_all(fresh).items():
        assert reused_traces[category].words == trace.words
        assert reused_traces[category].positions == trace.positions
        assert np.array_equal(reused_traces[category].raw, trace.raw)


def test_default_config_feature_counts():
    from repro.pipeline import DEFAULT_FEATURE_COUNTS

    assert DEFAULT_FEATURE_COUNTS == {
        "df": 1000, "ig": 1000, "mi": 300, "nouns": 100, "chi2": 1000,
        "round_robin": 300,
    }


def test_selector_instantiation():
    config = ProSysConfig(feature_method="nouns")
    selector = config.selector()
    assert selector.n_features == 100
    config = ProSysConfig(feature_method="nouns", n_features=17)
    assert config.selector().n_features == 17
