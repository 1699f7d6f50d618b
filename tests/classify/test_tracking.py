"""Unit tests for word tracking (paper Sec. 8.2, Figs. 5-6)."""

from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.classify.binary import RlgpBinaryClassifier
from repro.classify.tracking import TrackingTrace, track_document, track_multi_label
from repro.encoding.representation import EncodedDocument
from repro.gp import engine as engine_module
from repro.gp.config import GpConfig
from repro.gp.fitness import squash_output
from repro.gp.instructions import MODE_EXTERNAL, OP_ADD, OP_SUB, encode_instruction
from repro.gp.program import Program

CONFIG = GpConfig().small(tournaments=10)


def _classifier(category="earn", positive=True, threshold=0.0):
    opcode = OP_ADD if positive else OP_SUB
    program = Program([encode_instruction(MODE_EXTERNAL, opcode, 0, 0)], CONFIG)
    return RlgpBinaryClassifier(
        category=category, program=program, config=CONFIG, threshold=threshold
    )


def _encoded(values, category="earn"):
    values = np.asarray(values, dtype=float)
    sequence = np.column_stack([values, np.zeros_like(values)])
    return EncodedDocument(
        doc_id=1,
        category=category,
        sequence=sequence,
        words=tuple(f"w{i}" for i in range(len(values))),
        units=tuple(0 for _ in values),
    )


def _document(sequence):
    return EncodedDocument(
        doc_id=1,
        category="earn",
        sequence=sequence,
        words=tuple(f"w{i}" for i in range(len(sequence))),
        units=tuple(0 for _ in range(len(sequence))),
        positions=tuple(range(3, 3 + 2 * len(sequence), 2)),
    )


@settings(max_examples=25, deadline=None)
@given(
    program_seed=st.integers(0, 10**6),
    data_seed=st.integers(0, 10**6),
    n_docs=st.integers(1, 150),
    recurrent=st.booleans(),
)
@example(program_seed=1, data_seed=2, n_docs=150, recurrent=True)
@example(program_seed=1, data_seed=2, n_docs=150, recurrent=False)
def test_word_trace_is_the_rules_reading(
    program_seed, data_seed, n_docs, recurrent
):
    """Per-word values are the rule read after every word the way
    ``decision_values`` reads it after the last: a recurrent rule's
    register trace, a non-recurrent rule's reading of each word alone.
    Bit for bit against the interpreter, over empty, one-word and ragged
    documents, with the sweep forced across document blocks."""
    program = Program.random(Random(program_seed), CONFIG, page_size=1)
    classifier = RlgpBinaryClassifier(
        category="earn", program=program, config=CONFIG, threshold=0.0,
        recurrent=recurrent,
    )
    rng = Random(data_seed)
    sequences = [
        np.array(
            [[rng.random(), rng.random()]
             for _ in range(rng.choice([0, 1, rng.randrange(2, 9)]))]
        ).reshape(-1, 2)
        for _ in range(n_docs)
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "_BLOCK_BYTES", 1)  # 64-document blocks
        batch = classifier.word_values(sequences)
    assert len(batch) == n_docs
    out = CONFIG.output_register
    for sequence, values in zip(sequences, batch):
        if recurrent:
            expected = program.trace_sequence(sequence)
        else:
            expected = np.array([
                program.run_sequence(sequence[t : t + 1])[out]
                for t in range(len(sequence))
            ])
        trace = track_document(classifier, _document(sequence))
        assert np.array_equal(values, expected)
        assert np.array_equal(trace.raw, expected)
        assert trace.positions == _document(sequence).positions
        if len(sequence):
            assert trace.squashed[-1] == classifier.decision_values([sequence])[0]


def test_trace_aligned_with_words():
    trace = track_document(_classifier(), _encoded([0.5, 0.5, 0.5]))
    assert len(trace) == 3
    assert len(trace.raw) == 3
    assert len(trace.squashed) == 3
    assert trace.words == ("w0", "w1", "w2")


def test_accumulator_trace_rises_toward_in_class():
    """Paper Fig. 5: rising output register = context moving in class."""
    trace = track_document(_classifier(), _encoded([1.0, 1.0, 1.0, 1.0]))
    assert np.all(np.diff(trace.raw) > 0)
    assert np.all(trace.direction[1:] == 1)


def test_squashed_consistent_with_raw():
    trace = track_document(_classifier(), _encoded([0.3, 0.7]))
    np.testing.assert_allclose(trace.squashed, squash_output(trace.raw))


def test_in_class_words_above_threshold():
    trace = track_document(
        _classifier(threshold=0.5), _encoded([1.0, 1.0, 1.0])
    )
    # Raw trace is 1, 2, 3 -> squashed ~0.462, 0.762, 0.905.
    assert trace.in_class_words == ["w1", "w2"]


def test_context_changes_detected():
    """A document whose inputs flip sign flips the decision (Fig. 6)."""
    trace = track_document(
        _classifier(), _encoded([1.0, 1.0, -3.0, -3.0, 8.0])
    )
    flags = trace.in_class_flags
    assert flags[0] and flags[1]
    assert not flags[2] and not flags[3]
    assert flags[4]
    assert trace.context_changes == [2, 4]


def test_empty_document_trace():
    trace = track_document(_classifier(), _encoded([]))
    assert len(trace) == 0
    assert trace.context_changes == []
    assert trace.in_class_words == []


def test_track_multi_label_parallel_classifiers():
    classifiers = {
        "grain": _classifier("grain", positive=True),
        "ship": _classifier("ship", positive=False),
    }
    encoded = {
        "grain": _encoded([1.0, 1.0], category="grain"),
        "ship": _encoded([1.0, 1.0], category="ship"),
    }
    traces = track_multi_label(classifiers, encoded)
    assert set(traces) == {"grain", "ship"}
    assert traces["grain"].in_class_words == ["w0", "w1"]
    assert traces["ship"].in_class_words == []


def test_track_multi_label_skips_missing_encoding():
    classifiers = {"grain": _classifier("grain")}
    assert track_multi_label(classifiers, {}) == {}


def test_single_word_direction_flat():
    trace = track_document(_classifier(), _encoded([0.5]))
    assert np.all(trace.direction == 0)


def test_trace_on_real_classifier(encoder, earn_train, small_config):
    from repro.gp.trainer import RlgpTrainer

    classifier = RlgpBinaryClassifier.fit(
        earn_train, RlgpTrainer(small_config), base_seed=6
    )
    doc = next(d for d in earn_train.documents if len(d) >= 3)
    trace = track_document(classifier, doc)
    assert isinstance(trace, TrackingTrace)
    assert len(trace) == len(doc)
    assert np.all(np.abs(trace.squashed) <= 1.0)
