"""Fixtures for the serving-subsystem tests.

One small fitted pipeline, saved once, shared by the whole package
(training dominates the suite's cost; none of these tests mutate it).
"""

from __future__ import annotations

import pytest

from repro import GpConfig, ProSysConfig, ProSysPipeline, make_corpus
from repro.persistence import load_pipeline, save_pipeline

SERVE_CATEGORIES = ("earn", "grain")


@pytest.fixture(scope="package")
def serve_corpus():
    return make_corpus(scale=0.01, seed=3)


@pytest.fixture(scope="package")
def fitted_pipeline(serve_corpus):
    config = ProSysConfig(
        feature_method="mi",
        n_features=60,
        som_epochs=5,
        gp=GpConfig().small(tournaments=80),
        seed=13,
    )
    return ProSysPipeline(config).fit(serve_corpus, categories=SERVE_CATEGORIES)


@pytest.fixture(scope="package")
def model_dir(fitted_pipeline, tmp_path_factory):
    directory = tmp_path_factory.mktemp("served-model")
    save_pipeline(fitted_pipeline, directory)
    return directory


@pytest.fixture(scope="package")
def non_recurrent_pipeline(serve_corpus, model_dir):
    """The served model with every rule marked non-recurrent, so each
    classifier reads a document by its final word alone (tests register
    it under a name of their own and unregister it afterwards)."""
    pipeline = load_pipeline(model_dir, serve_corpus)
    for classifier in pipeline.suite.classifiers.values():
        classifier.recurrent = False
    return pipeline


@pytest.fixture(scope="package")
def capped_pipeline(serve_corpus, model_dir):
    """The served model with encoded sequences cut at two words
    (``max_sequence_length``), shorter than most test texts' encodings,
    so a long text is read by its first words only (tests register it
    under a name of their own and unregister it afterwards)."""
    pipeline = load_pipeline(model_dir, serve_corpus)
    pipeline.encoder.max_sequence_length = 2
    return pipeline
