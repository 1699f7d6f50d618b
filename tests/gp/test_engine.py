"""Tests for the fused evaluation engine, the one production evaluator.

The central property: :class:`FusedEngine` is **bit-identical** to the
per-document reference (:class:`RecurrentEvaluator`, i.e.
:meth:`Program.run_sequence`) -- they run the same IEEE op sequence per
element -- at every batch size from one program up.  The differential
tests sweep random programs over ragged document batches, including the
nasty corners: empty sequences, all-intron programs, division-protection
edges and multi-block sweeps.
"""

import sys
import threading
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gp import engine as engine_module
from repro.gp.config import GpConfig
from repro.gp.engine import (
    NOOP_INSTRUCTION,
    FusedEngine,
    PackedPrograms,
    SemanticCache,
)
from repro.gp.instructions import (
    MODE_CONSTANT,
    MODE_EXTERNAL,
    MODE_INTERNAL,
    OP_ADD,
    OP_DIV,
    OP_MUL,
    encode_instruction,
)
from repro.gp.program import Program
from repro.gp.recurrent import RecurrentEvaluator
from repro.serve.metrics import MetricsRegistry

CONFIG = GpConfig().small(tournaments=10)
EVALUATOR = RecurrentEvaluator(CONFIG)


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


def _skewed_sequences(rng, n_docs, max_len, skew):
    """Documents of ``0..max_len`` words, short ones more likely the
    larger ``skew`` (``skew = 1`` draws lengths uniformly)."""
    lengths = [
        min(int((max_len + 1) * rng.random() ** skew), max_len)
        for _ in range(n_docs)
    ]
    return [
        np.array([[rng.random(), rng.random()] for _ in range(length)]).reshape(-1, 2)
        for length in lengths
    ]


def _division_only(program):
    """``program`` with every instruction's opcode made a division."""
    fields = zip(*program.decoded_fields())
    return Program(
        [encode_instruction(int(m), OP_DIV, int(d), int(s)) for m, _, d, s in fields],
        CONFIG,
    )


def _random_population(n_programs, seed=0):
    return [
        Program.random(Random(seed + i), CONFIG, page_size=1)
        for i in range(n_programs)
    ]


def _engine(metrics=None):
    return FusedEngine(CONFIG, metrics=metrics or MetricsRegistry())


# ----------------------------------------------------------------------
# PackedPrograms
# ----------------------------------------------------------------------
def test_packed_programs_sorted_by_effective_length():
    programs = _random_population(12)
    packed = PackedPrograms.from_programs(programs, CONFIG)
    lengths = packed.lengths
    assert all(lengths[i] >= lengths[i + 1] for i in range(len(lengths) - 1))
    # order maps sorted rows back to the original population.
    for row, original in enumerate(packed.order):
        expected = len(programs[int(original)].effective_fields()[0])
        assert lengths[row] == expected


def test_packed_programs_active_counts():
    programs = _random_population(9, seed=5)
    packed = PackedPrograms.from_programs(programs, CONFIG)
    for slot in range(packed.max_len):
        assert packed.active_counts[slot] == np.sum(packed.lengths > slot)


def test_packed_programs_padding_is_noop():
    programs = _random_population(6, seed=9)
    packed = PackedPrograms.from_programs(programs, CONFIG)
    for row in range(packed.n_programs):
        n = int(packed.lengths[row])
        assert (packed.modes[row, n:] == MODE_CONSTANT).all()
        assert (packed.opcodes[row, n:] == OP_MUL).all()
        assert (packed.dsts[row, n:] == 0).all()
        assert (packed.srcs[row, n:] == 1).all()


def test_noop_instruction_is_transparent():
    """The padding instruction must leave every register bit-identical."""
    program = Program([NOOP_INSTRUCTION], CONFIG)
    registers = np.array([3.14, -2.0, 1e10, -0.0, 0.5, 7.0, -1e10, 9.9])
    after = program.step(registers, [0.5, 0.5])
    np.testing.assert_array_equal(after, registers)


# ----------------------------------------------------------------------
# differential: fused vs the reference (bit-identical)
# ----------------------------------------------------------------------
def test_fused_bit_identical_to_reference_fixed():
    rng = Random(3)
    sequences = _random_sequences(rng, 30, 12)
    programs = _random_population(25, seed=100)
    engine = _engine()
    packed = engine.pack(sequences)
    fused = engine.outputs(programs, packed)
    assert fused.shape == (len(programs), len(sequences))
    for i, program in enumerate(programs):
        expected = EVALUATOR.outputs(program, packed)
        assert np.array_equal(fused[i], expected), f"program {i} diverged"


@settings(max_examples=30, deadline=None)
@example(pop_seed=12, data_seed=5, n_programs=4, n_docs=64, skew=3.0)
@given(
    pop_seed=st.integers(0, 10**6),
    data_seed=st.integers(0, 10**6),
    n_programs=st.integers(1, 10),
    n_docs=st.integers(1, 64),
    skew=st.floats(1.0, 4.0),
)
def test_fused_matches_both_evaluators_property(
    pop_seed, data_seed, n_programs, n_docs, skew
):
    """Arbitrary batches, a division-only program included, x up to 64
    ragged documents of up to 40 words, mostly short ones, so the active
    prefix halves -- and the bank narrows -- more than once in one
    block: each row equals the reference and the program's own
    one-program sweep, and each per-word trace the reference trace, bit
    for bit."""
    sequences = _skewed_sequences(Random(data_seed), n_docs, 40, skew)
    programs = _random_population(n_programs, seed=pop_seed)
    programs.append(_division_only(programs[-1]))
    engine = _engine()
    packed = engine.pack(sequences)
    fused = engine.outputs(programs, packed)
    traces = engine.word_outputs(programs, packed)
    for i, program in enumerate(programs):
        assert np.array_equal(fused[i], EVALUATOR.outputs(program, packed))
        assert np.array_equal(fused[i], engine.outputs([program], packed)[0])
        for sequence, trace in zip(sequences, traces[i]):
            assert np.array_equal(trace, program.trace_sequence(sequence))


def test_multi_block_sweeps_match_one_block(monkeypatch):
    """Lowering the bank budget forces the document axis into several
    blocks; outputs stay bit-identical to one sweep and the reference."""
    sequences = _random_sequences(Random(12), 150, 6)
    programs = _random_population(6, seed=300)
    whole = _engine()
    packed = whole.pack(sequences)
    expected = whole.outputs(programs, packed)
    monkeypatch.setattr(engine_module, "_BLOCK_BYTES", 1)
    registry = MetricsRegistry()
    blocked = _engine(registry).outputs(programs, packed)
    assert registry.snapshot()["engine_block_sweeps_total"] == 3  # 64+64+22
    assert np.array_equal(blocked, expected)
    for i, program in enumerate(programs):
        assert np.array_equal(blocked[i], EVALUATOR.outputs(program, packed))
    # The per-word mode crosses the same blocks: every row (a duplicate
    # included, served by dedup) is the reference trace of its program
    # over each document, in the caller's order, ending on its output.
    traced = programs + programs[:1]
    traces = _engine().word_outputs(traced, packed)
    assert len(traces) == len(traced)
    for program, row, finals in zip(traced, traces, list(expected) + [expected[0]]):
        assert len(row) == len(sequences)
        for sequence, trace, final in zip(sequences, row, finals):
            assert np.array_equal(trace, program.trace_sequence(sequence))
            if len(sequence):
                assert trace[-1] == final


def test_fused_handles_empty_sequences():
    programs = _random_population(4)
    engine = _engine()
    packed = engine.pack([np.zeros((0, 2)), np.zeros((0, 2))])
    fused = engine.outputs(programs, packed)
    np.testing.assert_array_equal(fused, np.zeros((4, 2)))


def test_fused_handles_mixed_empty_and_real():
    programs = _random_population(5, seed=31)
    sequences = [np.zeros((0, 2)), np.full((3, 2), 0.4), np.zeros((0, 2))]
    engine = _engine()
    packed = engine.pack(sequences)
    fused = engine.outputs(programs, packed)
    for i, program in enumerate(programs):
        assert np.array_equal(fused[i], EVALUATOR.outputs(program, packed))


def test_fused_all_intron_programs():
    """Programs with no effective instructions output all zeros."""
    # R1 = R1 + R1 never reaches the output register R0.
    intron = encode_instruction(MODE_INTERNAL, OP_ADD, 1, 1)
    programs = [Program([intron], CONFIG), Program([intron, intron], CONFIG)]
    assert all(len(p.effective_fields()[0]) == 0 for p in programs)
    engine = _engine()
    packed = engine.pack(_random_sequences(Random(4), 6, 5))
    fused = engine.outputs(programs, packed)
    np.testing.assert_array_equal(fused, np.zeros((2, 6)))


def test_fused_mixed_intron_and_effective():
    intron = encode_instruction(MODE_INTERNAL, OP_ADD, 1, 1)
    effective = encode_instruction(MODE_EXTERNAL, OP_ADD, 0, 0)
    programs = [
        Program([intron], CONFIG),
        Program([effective], CONFIG),
        Program([intron, effective, intron], CONFIG),
    ]
    engine = _engine()
    sequences = _random_sequences(Random(8), 7, 6)
    packed = engine.pack(sequences)
    fused = engine.outputs(programs, packed)
    for i, program in enumerate(programs):
        assert np.array_equal(fused[i], EVALUATOR.outputs(program, packed))
    # Intron-only differences produce identical rows.
    assert np.array_equal(fused[1], fused[2])


def test_fused_division_protection_edges():
    """~0 denominators must return the numerator, exactly, in every lane."""
    # R0 = R0 + I0 ; R0 = R0 / I1  -- denominator comes straight from the
    # input stream, which we lace with zeros and sub-epsilon values.
    accumulate = encode_instruction(MODE_EXTERNAL, OP_ADD, 0, 0)
    divide = encode_instruction(MODE_EXTERNAL, OP_DIV, 0, 1)
    program = Program([accumulate, divide], CONFIG)
    other = Program.random(Random(77), CONFIG, page_size=1)
    sequences = [
        np.array([[0.7, 0.0], [0.3, 1e-12], [0.9, 2.0]]),
        np.array([[0.5, -1e-10]]),
        np.array([[1.0, 0.0], [1.0, 0.0]]),
    ]
    engine = _engine()
    packed = engine.pack(sequences)
    fused = engine.outputs([program, other], packed)
    for i, p in enumerate([program, other]):
        assert np.array_equal(fused[i], EVALUATOR.outputs(p, packed))


def test_fused_constant_division_protection():
    """A constant ~0 denominator is protected too (src encodes the value)."""
    accumulate = encode_instruction(MODE_EXTERNAL, OP_ADD, 0, 0)
    divide_by_zero = encode_instruction(MODE_CONSTANT, OP_DIV, 0, 0)
    program = Program([accumulate, divide_by_zero], CONFIG)
    sequences = [np.array([[0.4, 0.2], [0.6, 0.1]])]
    engine = _engine()
    packed = engine.pack(sequences)
    fused = engine.outputs([program, program], packed)
    expected = EVALUATOR.outputs(program, packed)
    assert np.array_equal(fused[0], expected)
    assert np.array_equal(fused[1], expected)


def test_empty_program_list():
    engine = _engine()
    packed = engine.pack(_random_sequences(Random(7), 4, 5))
    assert engine.outputs([], packed).shape == (0, 4)


def test_engine_is_safe_to_share_between_threads():
    """Threads scoring through one engine (a served classifier's engine
    is reached from the batcher's drain thread and the rollout mirror
    thread) evict each other's plans; every answer must stay exact."""
    engine = _engine()
    packed = engine.pack(_random_sequences(Random(21), 6, 5))
    # More distinct batches than the plan memo holds, so it evicts.
    batches = [
        _random_population(1 + i % 3, seed=400 + 10 * i) for i in range(12)
    ]
    expected = [engine.outputs(batch, packed) for batch in batches]
    failures = []

    def score(offset):
        try:
            for step in range(30):
                index = (offset + step) % len(batches)
                got = engine.outputs(batches[index], packed)
                if not np.array_equal(got, expected[index]):
                    failures.append(index)
        except Exception as error:  # noqa: BLE001 - reported below
            failures.append(error)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=score, args=(k,)) for k in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def test_engine_counters_tick():
    registry = MetricsRegistry()
    engine = FusedEngine(CONFIG, metrics=registry)
    programs = _random_population(5)
    # Dedup would skip rows; these five are semantically distinct.
    assert len({p.semantic_fingerprint() for p in programs}) == 5
    sequences = [np.full((3, 2), 0.5), np.full((1, 2), 0.5)]
    packed = engine.pack(sequences)
    engine.outputs(programs, packed)
    snap = registry.snapshot()
    assert snap["engine_batches_total"] == 1
    assert snap["engine_programs_evaluated_total"] == 5
    assert snap["engine_documents_evaluated_total"] == 10
    total_effective = sum(len(p.effective_fields()[0]) for p in programs)
    assert snap["engine_instructions_executed_total"] == total_effective * 4
    # Per-word traces are the same sweep and count the same work.
    engine.word_outputs(programs, packed)
    snap = registry.snapshot()
    assert snap["engine_batches_total"] == 2
    assert snap["engine_programs_evaluated_total"] == 10
    assert snap["engine_documents_evaluated_total"] == 20
    assert snap["engine_instructions_executed_total"] == total_effective * 8


# ----------------------------------------------------------------------
# SemanticCache
# ----------------------------------------------------------------------
def test_semantic_cache_hit_and_miss():
    cache = SemanticCache(capacity=4, metrics=MetricsRegistry())
    assert cache.get(b"fp", 0) is None
    cache.put(b"fp", 0, 1.5, np.array([0.1]))
    fitness, squashed = cache.get(b"fp", 0)
    assert fitness == 1.5
    np.testing.assert_array_equal(squashed, [0.1])
    assert cache.hits == 1 and cache.misses == 1
    assert cache.hit_rate == 0.5


def test_semantic_cache_version_keying():
    cache = SemanticCache(capacity=4, metrics=MetricsRegistry())
    cache.put(b"fp", 0, 1.0, np.array([0.0]))
    assert cache.get(b"fp", 1) is None  # different subset version


def test_semantic_cache_lru_eviction():
    cache = SemanticCache(capacity=2, metrics=MetricsRegistry())
    cache.put(b"a", 0, 1.0, np.array([0.0]))
    cache.put(b"b", 0, 2.0, np.array([0.0]))
    cache.get(b"a", 0)  # refresh a
    cache.put(b"c", 0, 3.0, np.array([0.0]))  # evicts b
    assert cache.get(b"a", 0) is not None
    assert cache.get(b"b", 0) is None
    assert cache.get(b"c", 0) is not None
    assert len(cache) == 2


def test_semantic_cache_zero_capacity():
    cache = SemanticCache(capacity=0, metrics=MetricsRegistry())
    cache.put(b"fp", 0, 1.0, np.array([0.0]))
    assert len(cache) == 0
    assert cache.get(b"fp", 0) is None


def test_semantic_cache_rejects_negative_capacity():
    with pytest.raises(ValueError):
        SemanticCache(capacity=-1, metrics=MetricsRegistry())


def test_intron_variants_share_fingerprint():
    intron = encode_instruction(MODE_INTERNAL, OP_ADD, 1, 1)
    effective = encode_instruction(MODE_EXTERNAL, OP_ADD, 0, 0)
    plain = Program([effective], CONFIG)
    padded = Program([intron, effective, intron], CONFIG)
    different = Program([effective, effective], CONFIG)
    assert plain.semantic_fingerprint() == padded.semantic_fingerprint()
    assert plain.semantic_fingerprint() != different.semantic_fingerprint()
