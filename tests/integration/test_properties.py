"""Cross-module property-based tests (hypothesis).

These pin down invariants that unit tests only sample:

* feature filtering is a subsequence projection;
* variation operators always produce valid, executable programs;
* packing/evaluation is permutation-equivariant;
* the Eq. 6 threshold always separates the class medians.
"""

from random import Random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classify.threshold import median_threshold
from repro.features.base import FeatureSet
from repro.gp.config import GpConfig
from repro.gp.engine import FusedEngine
from repro.gp.operators import breed
from repro.gp.program import Program
from repro.gp.recurrent import RecurrentEvaluator
from repro.serve.metrics import MetricsRegistry

CONFIG = GpConfig().small(tournaments=10)
EVALUATOR = RecurrentEvaluator(CONFIG)
ENGINE = FusedEngine(CONFIG, metrics=MetricsRegistry())

_tokens = st.lists(
    st.sampled_from(["profit", "wheat", "oil", "bank", "ship", "trade", "corn"]),
    max_size=30,
)
_vocab = st.frozensets(
    st.sampled_from(["profit", "wheat", "oil", "bank", "ship", "trade", "corn"]),
    min_size=1,
)


@settings(max_examples=60, deadline=None)
@given(tokens=_tokens, vocabulary=_vocab)
def test_filter_is_subsequence_projection(tokens, vocabulary):
    """Filtering keeps exactly the in-vocabulary tokens, in order."""
    feature_set = FeatureSet(method="df", per_category={"earn": vocabulary})
    kept = feature_set.filter_tokens(tokens, "earn")
    assert kept == [t for t in tokens if t in vocabulary]
    indexed = feature_set.filter_tokens_with_positions(tokens, "earn")
    assert [w for _, w in indexed] == kept
    for index, word in indexed:
        assert tokens[index] == word


@settings(max_examples=60, deadline=None)
@given(
    seed_a=st.integers(0, 10**6),
    seed_b=st.integers(0, 10**6),
    page_size=st.sampled_from([1, 2, 4, 8]),
)
def test_breeding_closure(seed_a, seed_b, page_size):
    """Children of any two valid parents are valid, executable programs."""
    rng = Random(seed_a ^ seed_b)
    parent_a = Program.random(Random(seed_a), CONFIG, page_size)
    parent_b = Program.random(Random(seed_b), CONFIG, page_size)
    child_a, child_b = breed(rng, parent_a, parent_b, page_size, CONFIG)
    for child in (child_a, child_b):
        assert 1 <= len(child) <= CONFIG.node_limit
        registers = child.step(np.zeros(CONFIG.n_registers), [0.5, 0.5])
        assert np.all(np.isfinite(registers))


@settings(max_examples=40, deadline=None)
@given(
    program_seed=st.integers(0, 10**6),
    data_seed=st.integers(0, 10**6),
    permutation_seed=st.integers(0, 10**6),
)
def test_outputs_permutation_equivariant(program_seed, data_seed, permutation_seed):
    """Shuffling documents shuffles outputs correspondingly."""
    rng = np.random.default_rng(data_seed)
    sequences = [
        rng.random((int(length), 2)) for length in rng.integers(0, 8, size=8)
    ]
    program = Program.random(Random(program_seed), CONFIG, page_size=1)
    base = ENGINE.outputs([program], ENGINE.pack(sequences))[0]

    order = np.random.default_rng(permutation_seed).permutation(len(sequences))
    shuffled = [sequences[i] for i in order]
    shuffled_outputs = ENGINE.outputs([program], ENGINE.pack(shuffled))[0]
    np.testing.assert_array_equal(shuffled_outputs, base[order])


@settings(max_examples=60, deadline=None)
@given(
    in_values=st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=30),
    out_values=st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=30),
)
def test_threshold_between_class_medians(in_values, out_values):
    outputs = np.array(in_values + out_values)
    labels = np.array([1.0] * len(in_values) + [-1.0] * len(out_values))
    threshold = median_threshold(outputs, labels)
    low = min(np.median(in_values), np.median(out_values))
    high = max(np.median(in_values), np.median(out_values))
    assert low - 1e-12 <= threshold <= high + 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_effective_execution_output_identical(seed):
    """Full and intron-free execution agree on the output register."""
    rng = np.random.default_rng(seed)
    sequences = [rng.random((int(l), 2)) for l in rng.integers(1, 6, size=5)]
    program = Program.random(Random(seed), CONFIG, page_size=1)
    packed = ENGINE.pack(sequences)
    fast = ENGINE.outputs([program], packed)[0]
    reference = EVALUATOR.outputs(program, packed)
    np.testing.assert_array_equal(fast, reference)
