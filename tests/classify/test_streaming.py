"""Tests for reading a trained rule word by word over a live word stream.

A text's feature-selected words are encoded by the category's encoder,
which drops words whose BMU it did not keep, and traced by
:func:`track_document` -- the per-word reading behind ``POST /track``.
"""

import numpy as np
import pytest

from repro.classify.binary import RlgpBinaryClassifier
from repro.classify.tracking import track_document
from repro.gp.trainer import RlgpTrainer


@pytest.fixture(scope="module")
def classifier(earn_train, small_config):
    return RlgpBinaryClassifier.fit(
        earn_train, RlgpTrainer(small_config), base_seed=41
    )


@pytest.fixture(scope="module")
def earn_encoder(encoder):
    return encoder.encoder_for("earn")


def _words(tokenized, mi_features, index):
    return mi_features.filter_tokens(
        tokenized.tokens(tokenized.train_documents[index]), "earn"
    )


def test_initial_state(classifier, earn_encoder):
    """Before any word the registers are zero: no states, no in-class
    word, and the rule's reading of the empty stream is 0."""
    trace = track_document(classifier, earn_encoder.encode(0, []))
    assert len(trace) == 0
    assert trace.positions == ()
    assert trace.raw.shape == trace.squashed.shape == (0,)
    assert trace.in_class_words == []
    assert trace.context_changes == []
    assert classifier.decision_values([np.zeros((0, 2))])[0] == 0.0


def test_dropped_words_leave_state_unchanged(
    classifier, earn_encoder, tokenized, mi_features
):
    """Words the encoder drops reach no register: the trace over the whole
    stream is the trace over its surviving words alone."""
    words = next(
        words
        for words in (
            _words(tokenized, mi_features, index)
            for index in range(len(tokenized.train_documents))
        )
        if 0 < len(earn_encoder.encode(0, words)) < len(words)
    )
    encoded = earn_encoder.encode(0, words)
    survivors = [words[position] for position in encoded.positions]
    alone = track_document(classifier, earn_encoder.encode(0, survivors))
    whole = track_document(classifier, encoded)
    assert whole.words == alone.words == tuple(survivors)
    assert np.array_equal(whole.raw, alone.raw)
    assert np.array_equal(whole.in_class_flags, alone.in_class_flags)
    assert (
        whole.squashed[-1] == classifier.decision_values([encoded.sequence])[0]
    )


def test_states_carry_positions(
    classifier, earn_encoder, tokenized, mi_features
):
    words = _words(tokenized, mi_features, 0)
    encoded = earn_encoder.encode(0, words)
    trace = track_document(classifier, encoded)
    assert len(trace) == len(encoded) > 0
    assert trace.positions == encoded.positions
    assert list(trace.positions) == sorted(set(trace.positions))
    assert all(words[p] == w for p, w in zip(trace.positions, trace.words))
    assert np.all(np.abs(trace.squashed) <= 1.0)
    assert trace.in_class_flags.dtype == np.bool_
    assert np.array_equal(
        trace.in_class_flags, trace.squashed > classifier.threshold
    )
