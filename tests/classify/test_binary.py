"""Integration tests for the binary RLGP classifier on the earn problem."""

import numpy as np
import pytest

from repro.classify.binary import RlgpBinaryClassifier
from repro.classify.threshold import median_threshold
from repro.classify.tracking import track_document
from repro.gp.fitness import balanced_sse, squash_output
from repro.gp.trainer import RlgpTrainer


@pytest.fixture(scope="module")
def classifier(earn_train, small_config):
    return RlgpBinaryClassifier.fit(
        earn_train, RlgpTrainer(small_config), n_restarts=1, base_seed=5
    )


def test_threshold_fitted_via_eq6(classifier, earn_train):
    outputs = classifier.decision_values(earn_train.sequences)
    expected = median_threshold(outputs, earn_train.labels)
    assert classifier.threshold == pytest.approx(expected)


def test_predictions_are_plus_minus_one(classifier, earn_test):
    predictions = classifier.predict(earn_test)
    assert set(np.unique(predictions)) <= {-1, 1}


def test_better_than_chance_on_test(classifier, earn_test):
    """A trained earn classifier must clearly beat coin flipping."""
    predictions = classifier.predict(earn_test)
    accuracy = float(np.mean(predictions == earn_test.labels))
    assert accuracy > 0.65


def test_decision_values_in_squashed_range(classifier, earn_test):
    values = classifier.decision_values(earn_test.sequences)
    assert np.all(values >= -1.0)
    assert np.all(values <= 1.0)


def test_predict_document_matches_batch(classifier, earn_test):
    doc = earn_test.documents[0]
    single = classifier.predict_document(doc)
    batch = classifier.predict(earn_test)[0]
    assert single == batch


def test_rule_listing_is_disassembly(classifier):
    listing = classifier.rule_listing()
    assert len(listing) == len(classifier.program)
    assert all(line.startswith("R") for line in listing)


def test_restarts_no_worse_than_single(earn_train, small_config):
    trainer = RlgpTrainer(small_config)
    single = RlgpBinaryClassifier.fit(earn_train, trainer, n_restarts=1, base_seed=50)
    multi = RlgpBinaryClassifier.fit(earn_train, trainer, n_restarts=2, base_seed=50)
    assert multi.train_fitness <= single.train_fitness + 1e-9


def test_category_recorded(classifier):
    assert classifier.category == "earn"


def test_non_recurrent_rule_is_read_as_evolved(earn_train, small_config):
    """Evolution scored a ``recurrent=False`` rule on each document's
    final word; its decision values, Eq. 6 threshold and per-word traces
    must read the documents the same way, not recurrently."""
    classifier = RlgpBinaryClassifier.fit(
        earn_train,
        RlgpTrainer(small_config, recurrent=False),
        n_restarts=1,
        base_seed=5,
    )
    output = classifier.config.output_register
    reference = squash_output(np.array([
        classifier.program.run_sequence(sequence[-1:])[output]
        for sequence in earn_train.sequences
    ]))
    values = classifier.decision_values(earn_train.sequences)
    assert np.array_equal(values, reference)
    assert classifier.threshold == median_threshold(reference, earn_train.labels)
    assert classifier.train_fitness == balanced_sse(earn_train.labels, reference)
    for document, value in zip(earn_train.documents, values):
        trace = track_document(classifier, document)
        sequence = document.sequence
        assert np.array_equal(trace.raw, [
            classifier.program.run_sequence(sequence[t : t + 1])[output]
            for t in range(len(sequence))
        ])
        if len(sequence):
            assert trace.squashed[-1] == value
