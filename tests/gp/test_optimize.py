"""Differential tests for the IR optimizer and the engine's dedup.

The contract under test: every transform in :mod:`repro.gp.optimize`
(constant-operand folding, semantic-intron elimination, the DCE
cascade) is **bit-exact** -- replaying an optimized stream under
:meth:`Program.step` reproduces the source program's trace to the last
bit -- and the engine's population-level fingerprint dedup scatters
rows that equal each program's own sweep.
"""

from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.ir import ProgramIR
from repro.analysis.verify import VerificationError, verify_optimized
from repro.gp.config import GpConfig
from repro.gp.engine import FusedEngine
from repro.gp.instructions import (
    MODE_CONSTANT,
    MODE_EXTERNAL,
    MODE_INTERNAL,
    OP_ADD,
    OP_DIV,
    OP_MUL,
    OP_SUB,
    encode_instruction,
)
from repro.gp.optimize import (
    OptimizedProgram,
    ProgramOptimizer,
    optimize_code,
    optimize_program,
)
from repro.gp.program import Program
from repro.serve.metrics import MetricsRegistry

CONFIG = GpConfig().small(tournaments=10)


def _program(rows, config=CONFIG):
    return Program([encode_instruction(*row) for row in rows], config)


def _random_sequences(rng, n_docs, max_len):
    sequences = []
    for _ in range(n_docs):
        length = rng.randrange(0, max_len + 1)
        sequences.append(
            np.array(
                [[rng.uniform(-2, 2), rng.uniform(-2, 2)] for _ in range(length)]
            ).reshape(-1, 2)
        )
    return sequences


def _random_population(n_programs, seed=0, config=CONFIG):
    return [
        Program.random(Random(seed + i), config, page_size=1)
        for i in range(n_programs)
    ]


def _replay(optimized: OptimizedProgram, sequence, config=CONFIG):
    if not optimized.code:
        return np.zeros(len(sequence))
    return Program(optimized.code, config).trace_sequence(sequence)


# ----------------------------------------------------------------------
# optimize_program: replay bit-identity
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(
    code_seed=st.integers(0, 10**6),
    data_seed=st.integers(0, 10**6),
)
def test_optimized_replay_is_bit_identical(code_seed, data_seed):
    """The optimized stream, interpreted under Program.step semantics,
    reproduces the source program's per-word trace exactly."""
    program = Program.random(Random(code_seed), CONFIG, CONFIG.max_page_size)
    optimized = optimize_program(program)
    assert optimized.stats.n_optimized <= optimized.stats.n_effective
    for sequence in _random_sequences(Random(data_seed), 4, 9):
        expected = program.trace_sequence(sequence)
        assert np.array_equal(expected, _replay(optimized, sequence))


# ----------------------------------------------------------------------
# individual transforms
# ----------------------------------------------------------------------
def test_transparent_identities_are_eliminated():
    # R1 = R1 + I0 (real work), then three exact identities on R1, then
    # the output move.  Identities: *1, /1, -0 are all bit-exact no-ops.
    program = _program([
        (MODE_EXTERNAL, OP_ADD, 1, 0),
        (MODE_CONSTANT, OP_MUL, 1, 1),
        (MODE_CONSTANT, OP_DIV, 1, 1),
        (MODE_CONSTANT, OP_SUB, 1, 0),
        (MODE_INTERNAL, OP_ADD, 0, 1),
    ])
    optimized = optimize_program(program)
    assert optimized.stats.n_optimized == 2
    assert optimized.stats.eliminated == 3
    verify_optimized(program, optimized)


def test_protected_division_by_zero_constant_is_eliminated():
    program = _program([
        (MODE_EXTERNAL, OP_SUB, 0, 1),
        (MODE_CONSTANT, OP_DIV, 0, 0),  # x / ~0 -> protected: returns x
    ])
    optimized = optimize_program(program)
    assert optimized.stats.n_optimized == 1
    verify_optimized(program, optimized)


def test_add_zero_is_kept_for_signed_zero():
    """x + 0.0 is NOT an identity: (-0.0) + 0.0 == +0.0 flips the zero
    sign.  The optimizer must keep it unless dst is a known constant."""
    program = _program([
        (MODE_EXTERNAL, OP_MUL, 0, 0),   # R0 = 0.0 * input -> -0.0 possible
        (MODE_CONSTANT, OP_ADD, 0, 0),   # R0 = R0 + 0.0 (sign-normalising!)
    ])
    optimized = optimize_program(program)
    assert optimized.stats.n_optimized == 2
    minus_zero = np.array([[-1.0, 0.0]])
    expected = program.trace_sequence(minus_zero)
    assert np.array_equal(expected, _replay(optimized, minus_zero))


def test_constant_register_operand_folds_to_immediate():
    # R1 never reads data: it holds exactly 5.0 at every point after the
    # first instruction of every pass... except it accumulates. Use MUL:
    # R1 = R1 * 3 keeps R1 == 0.0 forever, so the R0 += R1 operand folds
    # to the constant 0 -- and then the whole chain dies.
    program = _program([
        (MODE_CONSTANT, OP_MUL, 1, 3),   # R1 = R1 * 3 == 0.0 always
        (MODE_EXTERNAL, OP_ADD, 0, 0),   # real work
        (MODE_INTERNAL, OP_SUB, 0, 1),   # R0 -= R1 == R0 - 0.0 -> intron
    ])
    optimized = optimize_program(program)
    assert optimized.stats.n_optimized == 1
    verify_optimized(program, optimized)


def test_folded_stream_has_no_structural_introns():
    for seed in range(25):
        program = Program.random(Random(seed), CONFIG, CONFIG.max_page_size)
        optimized = optimize_program(program)
        ir = ProgramIR(optimized.code, CONFIG)
        assert ir.effective_indices() == list(range(len(optimized.code)))


def test_optimize_code_counts_raw_length():
    program = _program([
        (MODE_EXTERNAL, OP_ADD, 1, 0),   # intron: R1 never reaches R0
        (MODE_EXTERNAL, OP_ADD, 0, 1),
    ])
    optimized = optimize_code(program.code, CONFIG)
    assert optimized.stats.n_instructions == 2
    assert optimized.stats.n_effective == 1
    assert optimized.stats.n_optimized == 1


# ----------------------------------------------------------------------
# dedup scatter
# ----------------------------------------------------------------------
def test_dedup_scatter_rows_match_per_program_outputs():
    rng = Random(3)
    base = _random_population(6, seed=21)
    # interleave semantic duplicates (same code and intron-mutated code)
    programs = []
    for program in base:
        programs.append(program)
        programs.append(Program(program.code, CONFIG))
    rng.shuffle(programs)
    sequences = _random_sequences(rng, 12, 6)
    registry = MetricsRegistry()
    engine = FusedEngine(CONFIG, metrics=registry)
    packed = engine.pack(sequences)
    outputs = engine.outputs(programs, packed)
    assert registry.snapshot()["engine_dedup_hits_total"] >= len(base)
    for row, program in enumerate(programs):
        assert np.array_equal(outputs[row], engine.outputs([program], packed)[0])


def test_dedup_counts_instructions_for_unique_programs_only():
    program = _random_population(1, seed=9)[0]
    duplicates = [program] * 5
    registry = MetricsRegistry()
    engine = FusedEngine(CONFIG, metrics=registry)
    packed = engine.pack([np.full((3, 2), 0.25)])
    engine.outputs(duplicates, packed)
    snap = registry.snapshot()
    assert snap["engine_programs_evaluated_total"] == 5
    assert snap["engine_dedup_hits_total"] == 4
    effective = len(program.effective_fields()[0])
    assert snap["engine_instructions_executed_total"] == effective * 3


# ----------------------------------------------------------------------
# ProgramOptimizer cache
# ----------------------------------------------------------------------
def test_optimizer_cache_is_keyed_on_semantics():
    registry = MetricsRegistry()
    optimizer = ProgramOptimizer(CONFIG, metrics=registry)
    program = _program([
        (MODE_EXTERNAL, OP_ADD, 0, 0),
        (MODE_CONSTANT, OP_MUL, 0, 1),   # identity -> folded away
    ])
    twin = Program(program.code, CONFIG)
    first = optimizer.optimize(program)
    assert optimizer.optimize(twin) is first
    assert registry.snapshot()["engine_folded_instructions_total"] == 1


def test_optimizer_cache_evicts_lru():
    optimizer = ProgramOptimizer(CONFIG, capacity=2, metrics=MetricsRegistry())
    programs = _random_population(3, seed=40)
    first = optimizer.optimize(programs[0])
    optimizer.optimize(programs[1])
    optimizer.optimize(programs[2])  # evicts programs[0]
    assert optimizer.optimize(programs[0]) is not first


# ----------------------------------------------------------------------
# verify_optimized oracle
# ----------------------------------------------------------------------
def test_verify_optimized_rejects_wrong_stream():
    program = _program([
        (MODE_EXTERNAL, OP_ADD, 0, 0),
        (MODE_EXTERNAL, OP_SUB, 0, 1),
    ])
    optimized = optimize_program(program)
    tampered = OptimizedProgram(
        optimized.fields,
        tuple(optimized.code[:-1]),  # drop a live instruction
        optimized.stats,
    )
    with pytest.raises(VerificationError):
        verify_optimized(program, tampered)
