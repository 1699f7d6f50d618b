"""Tests for the verify oracles: programs, packings, and the env gate."""

import dataclasses
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.verify import (
    VerificationError,
    analyze_program,
    verify_packing,
    verify_program,
)
from repro.encoding.representation import EncodedDataset, EncodedDocument
from repro.gp.config import GpConfig
from repro.gp.engine import FusedEngine, PackedPrograms
from repro.gp.program import Program
from repro.gp.trainer import RlgpTrainer

CONFIG = GpConfig()


def _random_programs(seed, count, config=CONFIG):
    rng = Random(seed)
    return [
        Program.random(rng, config, config.max_page_size)
        for _ in range(count)
    ]


# ----------------------------------------------------------------------
# verify_program
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=2, max_value=8),
)
def test_verify_program_passes_on_random_programs(seed, n_registers):
    config = dataclasses.replace(GpConfig(), n_registers=n_registers)
    rng = Random(seed)
    program = Program.random(rng, config, config.max_page_size)
    report = verify_program(program)
    assert report.n_instructions == len(program)
    assert 0 <= report.n_effective <= report.n_instructions
    assert report.live_entry  # output register is always live at entry


def test_verify_program_catches_stale_effective_cache():
    """A corrupted cached effective stream must be caught -- that is the
    exact silent-corruption scenario the oracle exists for."""
    program = _random_programs(5, 1)[0]
    modes, opcodes, dsts, srcs = program.effective_fields()
    if modes.size == 0:
        pytest.skip("degenerate: no effective instructions to corrupt")
    program._effective = (modes, (opcodes + 1) % 4, dsts, srcs)
    program._fingerprint = None
    with pytest.raises(VerificationError, match="effective opcodes"):
        verify_program(program)


def test_analyze_program_reports_footprint():
    report = analyze_program(_random_programs(7, 1)[0])
    assert report.n_instructions > 0
    assert isinstance(report.hazards, tuple)


# ----------------------------------------------------------------------
# verify_packing
# ----------------------------------------------------------------------
def test_verify_packing_passes_on_random_populations():
    for seed in range(25):
        programs = _random_programs(seed, 2 + seed % 7)
        packed = PackedPrograms.from_programs(programs, CONFIG)
        verify_packing(packed, programs, CONFIG)


@pytest.mark.parametrize("corruption", [
    "swap_order", "truncate_length", "poison_slot", "poison_padding",
    "poison_active_counts",
])
def test_verify_packing_catches_corruption(corruption):
    programs = _random_programs(99, 6)
    packed = PackedPrograms.from_programs(programs, CONFIG)
    if corruption == "swap_order":
        if packed.order[0] == packed.order[1]:
            pytest.skip("degenerate order")
        packed.order[[0, 1]] = packed.order[[1, 0]]
    elif corruption == "truncate_length":
        if packed.lengths[0] == 0:
            pytest.skip("degenerate: empty effective stream")
        packed.lengths[0] -= 1
    elif corruption == "poison_slot":
        if packed.lengths[0] == 0:
            pytest.skip("degenerate: empty effective stream")
        packed.dsts[0, 0] = (packed.dsts[0, 0] + 1) % CONFIG.n_registers
    elif corruption == "poison_padding":
        row = int(np.argmin(packed.lengths))
        if packed.lengths[row] >= packed.modes.shape[1]:
            pytest.skip("degenerate: no padding slots")
        packed.opcodes[row, -1] = 3  # padding must be the *, not / no-op
    elif corruption == "poison_active_counts":
        if packed.active_counts.size == 0:
            pytest.skip("degenerate: zero-width packing")
        packed.active_counts[0] += 1
    with pytest.raises(VerificationError):
        verify_packing(packed, programs, CONFIG)


# ----------------------------------------------------------------------
# the trainer-run sweep: every packing a real run builds must verify
# ----------------------------------------------------------------------
def _toy_dataset(n_per_class=12, seed=0):
    rng = np.random.default_rng(seed)
    documents = []
    for index in range(n_per_class):
        length = int(rng.integers(3, 8))
        seq = np.column_stack(
            [rng.uniform(0.6, 1.0, length), rng.uniform(0.6, 1.0, length)]
        )
        documents.append(_encoded(index, seq, 1))
    for index in range(n_per_class):
        length = int(rng.integers(1, 4))
        seq = np.column_stack(
            [rng.uniform(0.0, 0.2, length), rng.uniform(0.0, 0.2, length)]
        )
        documents.append(_encoded(1000 + index, seq, -1))
    return EncodedDataset(category="toy", documents=tuple(documents))


def _encoded(doc_id, seq, label):
    return EncodedDocument(
        doc_id=doc_id,
        category="toy",
        sequence=seq,
        words=tuple("w" for _ in range(len(seq))),
        units=tuple(0 for _ in range(len(seq))),
        label=label,
    )


def test_every_packing_in_a_trainer_run_verifies(monkeypatch):
    from repro.gp import engine as engine_module

    captured = []
    original = engine_module.PackedPrograms.from_programs.__func__

    def capturing(cls, programs, config):
        packed = original(cls, programs, config)
        captured.append((packed, list(programs), config))
        return packed

    monkeypatch.setattr(
        engine_module.PackedPrograms, "from_programs", classmethod(capturing)
    )
    config = GpConfig().small(tournaments=60, seed=3)
    RlgpTrainer(config).train(_toy_dataset(), seed=3)
    assert captured, "the fused engine built no packings?"
    for packed, programs, config in captured:
        verify_packing(packed, programs, config)


def test_env_gate_verifies_inside_the_engine(monkeypatch):
    import repro.analysis.verify as verify_module

    calls = []
    real = verify_module.verify_packing
    monkeypatch.setattr(
        verify_module, "verify_packing",
        lambda *args, **kwargs: (calls.append(args), real(*args, **kwargs))[1],
    )
    monkeypatch.setenv("REPRO_VERIFY_PACKING", "1")
    engine = FusedEngine(CONFIG)
    programs = _random_programs(17, 4)
    sequences = [np.random.default_rng(s).uniform(0, 1, (3, 2))
                 for s in range(5)]
    engine.outputs(programs, engine.pack(sequences))
    assert calls, "REPRO_VERIFY_PACKING=1 did not reach the verifier"


def test_env_gate_off_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_VERIFY_PACKING", raising=False)
    assert not FusedEngine(CONFIG)._verify_packing
    monkeypatch.setenv("REPRO_VERIFY_PACKING", "0")
    assert not FusedEngine(CONFIG)._verify_packing
