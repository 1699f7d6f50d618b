"""Tests for document packing and recurrent evaluation.

The central property: the vectorised kernel (:class:`FusedEngine`, here
on one-program batches) agrees bit for bit with the interpreted
per-document reference (:class:`RecurrentEvaluator`) on arbitrary
programs and sequences.
"""

from random import Random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gp.config import GpConfig
from repro.gp.engine import FusedEngine
from repro.gp.program import Program
from repro.gp.recurrent import PackedSequences, RecurrentEvaluator, final_words
from repro.serve.metrics import MetricsRegistry

CONFIG = GpConfig().small(tournaments=10)
EVALUATOR = RecurrentEvaluator(CONFIG)
ENGINE = FusedEngine(CONFIG, metrics=MetricsRegistry())


def _fast(program, packed):
    return ENGINE.outputs([program], packed)[0]


def _random_sequences(rng, n_docs, max_len):
    sequences = []
    for _ in range(n_docs):
        length = rng.randrange(0, max_len + 1)
        sequences.append(
            np.array(
                [[rng.uniform(0, 1), rng.uniform(0, 1)] for _ in range(length)]
            ).reshape(-1, 2)
        )
    return sequences


# ----------------------------------------------------------------------
# PackedSequences
# ----------------------------------------------------------------------
def test_pack_sorts_by_length_descending():
    rng = Random(0)
    packed = EVALUATOR.pack(_random_sequences(rng, 10, 8))
    assert all(
        packed.lengths[i] >= packed.lengths[i + 1]
        for i in range(len(packed) - 1)
    )


def test_pack_active_counts_monotone():
    rng = Random(1)
    packed = EVALUATOR.pack(_random_sequences(rng, 12, 6))
    counts = packed.active_counts
    assert all(counts[i] >= counts[i + 1] for i in range(len(counts) - 1))
    assert counts[0] == np.sum(packed.lengths >= 1)


def test_pack_round_trips_contents():
    sequences = [
        np.array([[1.0, 2.0], [3.0, 4.0]]),
        np.array([[5.0, 6.0]]),
        np.zeros((0, 2)),
    ]
    packed = EVALUATOR.pack(sequences)
    for row, original_index in enumerate(packed.order):
        original = sequences[int(original_index)]
        np.testing.assert_array_equal(
            packed.inputs[row, : packed.lengths[row]], original
        )


def test_pack_all_empty():
    packed = EVALUATOR.pack([np.zeros((0, 2)), np.zeros((0, 2))])
    assert len(packed) == 2
    assert packed.inputs.shape[1] == 1  # minimum padding


def test_subset_restricts_to_original_indices():
    rng = Random(2)
    sequences = _random_sequences(rng, 8, 5)
    packed = EVALUATOR.pack(sequences)
    subset = packed.subset([1, 4, 6])
    assert sorted(int(i) for i in subset.order) == [1, 4, 6]


# ----------------------------------------------------------------------
# differential testing: vectorised vs interpreted
# ----------------------------------------------------------------------
def test_vectorised_matches_interpreted_fixed():
    rng = Random(3)
    sequences = _random_sequences(rng, 25, 12)
    packed = EVALUATOR.pack(sequences)
    for seed in range(10):
        program = Program.random(Random(seed), CONFIG, page_size=1)
        assert np.array_equal(
            _fast(program, packed), EVALUATOR.outputs(program, packed)
        )


@settings(max_examples=40, deadline=None)
@given(
    program_seed=st.integers(0, 10**6),
    data_seed=st.integers(0, 10**6),
    n_docs=st.integers(1, 12),
)
def test_vectorised_matches_interpreted_property(program_seed, data_seed, n_docs):
    """For arbitrary programs and documents the two evaluators agree."""
    sequences = _random_sequences(Random(data_seed), n_docs, 7)
    program = Program.random(Random(program_seed), CONFIG, page_size=1)
    packed = EVALUATOR.pack(sequences)
    assert np.array_equal(
        _fast(program, packed), EVALUATOR.outputs(program, packed)
    )


def test_empty_documents_output_initial_register():
    program = Program.random(Random(4), CONFIG, page_size=1)
    packed = EVALUATOR.pack([np.zeros((0, 2))])
    assert _fast(program, packed)[0] == 0.0
    assert EVALUATOR.outputs(program, packed)[0] == 0.0


def test_outputs_preserve_original_order():
    sequences = [
        np.full((5, 2), 0.3),
        np.full((1, 2), 0.3),
        np.full((3, 2), 0.3),
    ]
    program = Program.random(Random(5), CONFIG, page_size=1)
    packed = EVALUATOR.pack(sequences)
    expected = [program.run_sequence(s)[0] for s in sequences]
    np.testing.assert_array_equal(_fast(program, packed), expected)
    np.testing.assert_array_equal(EVALUATOR.outputs(program, packed), expected)


def test_trace_last_value_equals_final_output():
    rng = Random(6)
    sequence = _random_sequences(rng, 1, 10)[0]
    if len(sequence) == 0:
        sequence = np.array([[0.5, 0.5]])
    program = Program.random(Random(7), CONFIG, page_size=1)
    trace = program.trace_sequence(sequence)
    final = EVALUATOR.outputs(program, EVALUATOR.pack([sequence]))[0]
    assert trace[-1] == final


def test_no_output_register_sharing_between_documents():
    """A document's prediction must not leak into another's."""
    program = Program.random(Random(8), CONFIG, page_size=1)
    seq_a = np.full((4, 2), 0.7)
    seq_b = np.full((2, 2), 0.1)
    together = _fast(program, EVALUATOR.pack([seq_a, seq_b]))
    alone_a = _fast(program, EVALUATOR.pack([seq_a]))[0]
    alone_b = _fast(program, EVALUATOR.pack([seq_b]))[0]
    np.testing.assert_array_equal(together, [alone_a, alone_b])


def test_final_words_read_the_last_word_only():
    sequences = [np.array([[0.1, 0.2], [0.3, 0.4]]), np.zeros((0, 2))]
    cut = final_words(sequences)
    np.testing.assert_array_equal(cut[0], [[0.3, 0.4]])
    assert cut[1].shape == (0, 2)


# ----------------------------------------------------------------------
# subset / unpack (numpy fast paths)
# ----------------------------------------------------------------------
def test_subset_preserves_contents_and_invariants():
    rng = Random(11)
    sequences = _random_sequences(rng, 12, 9)
    packed = EVALUATOR.pack(sequences)
    subset = packed.subset([0, 3, 7, 9, 11])
    # Sorted-by-length invariant survives the row selection.
    assert all(
        subset.lengths[i] >= subset.lengths[i + 1]
        for i in range(len(subset) - 1)
    )
    for row, original in enumerate(subset.order):
        np.testing.assert_array_equal(
            subset.inputs[row, : subset.lengths[row]],
            sequences[int(original)],
        )
    # active_counts recomputed for the subset's own lengths.
    for t in range(subset.inputs.shape[1]):
        assert subset.active_counts[t] == np.sum(subset.lengths > t)


def test_subset_deduplicates_indices():
    rng = Random(12)
    packed = EVALUATOR.pack(_random_sequences(rng, 6, 5))
    subset = packed.subset([2, 2, 4, 4])
    assert sorted(int(i) for i in subset.order) == [2, 4]


def test_subset_empty():
    rng = Random(13)
    packed = EVALUATOR.pack(_random_sequences(rng, 5, 5))
    subset = packed.subset([])
    assert len(subset) == 0


def test_subset_matches_fresh_pack_of_same_documents():
    """The numpy row-selection subset equals re-packing from scratch
    (modulo padding width), with ``order`` still in corpus indices."""
    rng = Random(14)
    sequences = _random_sequences(rng, 10, 8)
    packed = EVALUATOR.pack(sequences)
    wanted = [1, 4, 8, 9]
    subset = packed.subset(wanted)
    fresh = EVALUATOR.pack([sequences[i] for i in wanted])
    np.testing.assert_array_equal(subset.lengths, fresh.lengths)
    np.testing.assert_array_equal(subset.active_counts, fresh.active_counts)
    # Same documents row for row (fresh.order indexes into `wanted`).
    for row in range(len(fresh)):
        assert int(subset.order[row]) == wanted[int(fresh.order[row])]
        np.testing.assert_array_equal(
            subset.inputs[row, : subset.lengths[row]],
            fresh.inputs[row, : fresh.lengths[row]],
        )


def test_unpack_round_trips():
    sequences = [
        np.array([[1.0, 2.0], [3.0, 4.0]]),
        np.zeros((0, 2)),
        np.array([[5.0, 6.0]]),
    ]
    packed = EVALUATOR.pack(sequences)
    unpacked = packed.unpack()
    assert len(unpacked) == len(sequences)
    for original, restored in zip(sequences, unpacked):
        np.testing.assert_array_equal(original, restored)


def test_unpack_random_round_trips():
    rng = Random(16)
    sequences = _random_sequences(rng, 14, 7)
    unpacked = EVALUATOR.pack(sequences).unpack()
    for original, restored in zip(sequences, unpacked):
        np.testing.assert_array_equal(original, restored)
