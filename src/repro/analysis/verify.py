"""Oracles proving the GP engine agrees with the IR dataflow analysis.

Two independent implementations of the same spec -- the engine's cached
decode/intron extraction (:mod:`repro.gp.program`) and the IR's
from-first-principles dataflow (:mod:`repro.analysis.ir`) -- are only
worth having if something checks them against each other.  These oracles
do that:

* :func:`verify_program` proves one program's decoded fields, effective
  set, effective stream and semantic fingerprint all match the IR.
* :func:`verify_packing` proves a :class:`~repro.gp.engine.PackedPrograms`
  batch is exactly the IR's effective streams: a permutation ordering,
  non-increasing lengths, per-slot fields, no-op padding, and the
  ``active_counts`` schedule the fused kernel trusts blindly.
* :func:`verify_optimized` proves one program's pack-time optimization
  (:mod:`repro.gp.optimize`) is semantics-preserving: the re-encoded
  stream decodes back to the packed fields, carries no structural
  introns, and -- replayed under :meth:`Program.step` interpreter
  semantics on deterministic probe documents -- reproduces the source
  program's per-word output trace bit-for-bit.

All raise :class:`VerificationError` listing every discrepancy rather
than stopping at the first, so a failure report localises the bug.
Setting ``REPRO_VERIFY_PACKING=1`` makes the fused engine call
:func:`verify_packing` on every batch it packs (used by the CI smoke
train run).
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.ir import Hazard, ProgramIR, decode_ir
from repro.gp.config import GpConfig

_FIELD_NAMES = ("modes", "opcodes", "dsts", "srcs")

#: Fixed seed for the replay-probe documents -- verification must be
#: deterministic so a CI failure reproduces locally.
_PROBE_SEED = 0xC0FFEE

#: Values that exercise the protective semantics: zero signs, exact
#: identities, the protected-division threshold, and the register clamp.
_PROBE_VALUES = (
    0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 1e-10, -1e-10, 1e12, -1e12, 3.25,
)


class VerificationError(AssertionError):
    """The engine and the IR disagree -- one of them has a bug."""


@dataclass(frozen=True)
class ProgramReport:
    """What :func:`verify_program` proved about one program.

    Attributes:
        n_instructions / n_effective: program size before and after
            intron elimination.
        intron_fraction: share of structurally dead code.
        live_entry: registers whose carried value from the previous word
            can influence the output (the rule's recurrent state).
        registers_written / inputs_read: effective-code footprint.
        hazards: numeric-safety patterns (see :class:`Hazard`).
    """

    n_instructions: int
    n_effective: int
    intron_fraction: float
    live_entry: Tuple[int, ...]
    registers_written: Tuple[int, ...]
    inputs_read: Tuple[int, ...]
    hazards: Tuple[Hazard, ...]


def analyze_program(program) -> ProgramReport:
    """The IR-derived report for a program, without cross-checking."""
    ir = ProgramIR.from_program(program)
    liveness = ir.liveness()
    keep = [ir.instructions[i] for i in liveness.effective]
    n = len(ir)
    return ProgramReport(
        n_instructions=n,
        n_effective=len(liveness.effective),
        intron_fraction=1.0 - len(liveness.effective) / n if n else 0.0,
        live_entry=tuple(sorted(liveness.entry)),
        registers_written=tuple(sorted({i.dst for i in keep})),
        inputs_read=tuple(sorted(
            {i.src for i in keep if i.mode == 1}  # MODE_EXTERNAL
        )),
        hazards=ir.hazards(),
    )


def verify_program(program) -> ProgramReport:
    """Prove ``program``'s cached analyses agree with the IR.

    Checks, in order: field decode, effective-index set, effective field
    arrays, and the semantic fingerprint.  Returns the IR's
    :class:`ProgramReport` on success.

    Raises:
        VerificationError: listing every discrepancy found.
    """
    ir = ProgramIR.from_program(program)
    errors: List[str] = []

    ir_decoded = (
        np.array([i.mode for i in ir.instructions], dtype=np.int64),
        np.array([i.opcode for i in ir.instructions], dtype=np.int64),
        np.array([i.dst for i in ir.instructions], dtype=np.int64),
        np.array([i.src for i in ir.instructions], dtype=np.int64),
    )
    for name, engine_arr, ir_arr in zip(
        _FIELD_NAMES, program.decoded_fields(), ir_decoded
    ):
        if not np.array_equal(engine_arr, ir_arr):
            errors.append(
                f"decoded {name} disagree: engine {engine_arr.tolist()} "
                f"vs IR {ir_arr.tolist()}"
            )

    engine_effective = list(program.effective_instructions())
    ir_effective = ir.effective_indices()
    if engine_effective != ir_effective:
        errors.append(
            f"effective sets disagree: engine {engine_effective} "
            f"vs IR {ir_effective}"
        )

    for name, engine_arr, ir_arr in zip(
        _FIELD_NAMES, program.effective_fields(), ir.effective_fields()
    ):
        if not np.array_equal(engine_arr, ir_arr):
            errors.append(
                f"effective {name} disagree: engine {engine_arr.tolist()} "
                f"vs IR {ir_arr.tolist()}"
            )

    if program.semantic_fingerprint() != ir.semantic_fingerprint():
        errors.append(
            "semantic fingerprints disagree: engine "
            f"{program.semantic_fingerprint().hex()} vs IR "
            f"{ir.semantic_fingerprint().hex()}"
        )

    if errors:
        raise VerificationError(
            "program fails IR verification:\n  " + "\n  ".join(errors)
        )
    return analyze_program(program)


def _probe_sequences(config: GpConfig):
    """Deterministic probe documents for the replay oracle.

    A handful of short sequences mixing adversarial values (zero signs,
    identities, the protected-division threshold, clamp-scale
    magnitudes) with seeded pseudo-random magnitudes across many orders
    of magnitude.
    """
    rng = Random(_PROBE_SEED)
    sequences = []
    for length in (1, 2, 5, 9):
        rows = []
        for _ in range(length):
            rows.append([
                rng.choice(_PROBE_VALUES)
                if rng.random() < 0.5
                else rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-6, 6)
                for _ in range(config.n_inputs)
            ])
        sequences.append(np.array(rows))
    return sequences


def verify_optimized(program, optimized=None):
    """Prove a pack-time optimization of ``program`` is exact.

    Checks, in order: the re-encoded code decodes (via the IR's
    independent decoder) back to the packed field arrays; the optimized
    stream carries no structural introns (the optimizer runs DCE to
    fixpoint); and the optimized stream, *interpreted* under
    :meth:`Program.step` reference semantics, reproduces the source
    program's output-register trace bit-for-bit after every word of
    every probe document.  An empty optimized stream must mean the
    program's trace is identically ``0.0``.

    Args:
        program: the source :class:`~repro.gp.program.Program`.
        optimized: the :class:`~repro.gp.optimize.OptimizedProgram`
            under test (freshly computed when omitted).

    Returns:
        The verified :class:`~repro.gp.optimize.OptimizedProgram`.

    Raises:
        VerificationError: listing every discrepancy found.
    """
    from repro.gp.optimize import optimize_program
    from repro.gp.program import Program

    if optimized is None:
        optimized = optimize_program(program)
    config = program.config
    errors: List[str] = []

    decoded = decode_ir(optimized.code, config)
    re_decoded = (
        np.array([i.mode for i in decoded], dtype=np.int64),
        np.array([i.opcode for i in decoded], dtype=np.int64),
        np.array([i.dst for i in decoded], dtype=np.int64),
        np.array([i.src for i in decoded], dtype=np.int64),
    )
    for name, field, expected in zip(_FIELD_NAMES, optimized.fields, re_decoded):
        if not np.array_equal(field, expected):
            errors.append(
                f"optimized {name} {field.tolist()} do not survive the "
                f"encode/decode round trip: IR reads {expected.tolist()}"
            )

    stream_ir = ProgramIR(optimized.code, config)
    if stream_ir.effective_indices() != list(range(len(optimized.code))):
        errors.append(
            "optimized stream still carries structural introns at "
            f"indices {stream_ir.intron_indices()}"
        )

    replay = (
        Program(optimized.code, config) if optimized.code else None
    )
    for probe_index, sequence in enumerate(_probe_sequences(config)):
        expected = program.trace_sequence(sequence)
        got = (
            replay.trace_sequence(sequence)
            if replay is not None
            else np.zeros(len(sequence))
        )
        if not np.array_equal(expected, got):
            errors.append(
                f"probe {probe_index}: optimized trace {got.tolist()} != "
                f"source trace {expected.tolist()}"
            )

    if errors:
        raise VerificationError(
            "optimization fails verification:\n  " + "\n  ".join(errors)
        )
    return optimized


def verify_packing(packed, programs: Sequence, config: GpConfig) -> None:
    """Prove a :class:`PackedPrograms` batch matches the IR exactly.

    Args:
        packed: the batch under test (``modes/opcodes/dsts/srcs`` of
            shape ``(n_programs, max_len)``, plus ``lengths``, ``order``
            and ``active_counts``).
        programs: the population it was built from, in original order.
        config: the engine configuration (defines the padding no-op).

    Raises:
        VerificationError: listing every discrepancy found.
    """
    from repro.gp.engine import NOOP_INSTRUCTION

    errors: List[str] = []
    n = len(programs)
    order = np.asarray(packed.order)
    lengths = np.asarray(packed.lengths)

    if sorted(order.tolist()) != list(range(n)):
        errors.append(
            f"order {order.tolist()} is not a permutation of 0..{n - 1}"
        )
        raise VerificationError(
            "packing fails IR verification:\n  " + "\n  ".join(errors)
        )

    expected_rows = [
        ProgramIR.from_program(p).effective_fields() for p in programs
    ]
    ir_lengths = [len(fields[0]) for fields in expected_rows]
    (noop,) = decode_ir([NOOP_INSTRUCTION], config)

    expected_lengths = [ir_lengths[order[row]] for row in range(n)]
    if lengths.tolist() != expected_lengths:
        errors.append(
            f"lengths {lengths.tolist()} != IR effective lengths "
            f"{expected_lengths} (in packed order)"
        )
    if any(lengths[i] < lengths[i + 1] for i in range(n - 1)):
        errors.append(f"lengths {lengths.tolist()} are not non-increasing")

    max_len = int(lengths[0]) if n else 0
    packed_fields = (packed.modes, packed.opcodes, packed.dsts, packed.srcs)
    for name, field in zip(_FIELD_NAMES, packed_fields):
        if field.shape != (n, max_len):
            errors.append(
                f"{name} has shape {field.shape}, expected {(n, max_len)}"
            )

    noop_fields = (noop.mode, noop.opcode, noop.dst, noop.src)
    for row in range(n):
        ir_fields = expected_rows[order[row]]
        length = int(lengths[row])
        for name, field, expected, pad in zip(
            _FIELD_NAMES, packed_fields, ir_fields, noop_fields
        ):
            if field.shape != (n, max_len):
                continue  # already reported above
            if not np.array_equal(field[row, :length], expected):
                errors.append(
                    f"row {row} (program {order[row]}) {name}: packed "
                    f"{field[row, :length].tolist()} != IR {expected.tolist()}"
                )
            if not np.all(field[row, length:] == pad):
                errors.append(
                    f"row {row} (program {order[row]}) {name}: padding "
                    f"{field[row, length:].tolist()} != no-op field {pad}"
                )

    expected_active = [int(np.sum(lengths > slot)) for slot in range(max_len)]
    if list(np.asarray(packed.active_counts).tolist()) != expected_active:
        errors.append(
            f"active_counts {np.asarray(packed.active_counts).tolist()} "
            f"!= programs-past-slot counts {expected_active}"
        )

    if errors:
        shown = errors[:12]
        if len(errors) > len(shown):
            shown.append(f"... and {len(errors) - len(shown)} more")
        raise VerificationError(
            "packing fails IR verification:\n  " + "\n  ".join(shown)
        )
