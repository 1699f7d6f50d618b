"""Linear programs: storage, decoding caches, and reference execution."""

from __future__ import annotations

import hashlib
from random import Random
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.gp.config import GpConfig
from repro.gp.instructions import (
    MODE_CONSTANT,
    MODE_EXTERNAL,
    MODE_INTERNAL,
    OP_ADD,
    OP_DIV,
    OP_MUL,
    OP_SUB,
    decode_instruction,
    disassemble,
    random_instruction,
)

#: Register magnitude clamp -- keeps runaway multiply chains finite without
#: changing the comparative ordering fitness relies on.
REGISTER_LIMIT = 1e10
#: Protected-division threshold.
DIV_EPSILON = 1e-9


def protected_divide(numerator: float, denominator: float) -> float:
    """LGP protected division: return the numerator when dividing by ~0."""
    if abs(denominator) < DIV_EPSILON:
        return numerator
    return numerator / denominator


def fingerprint_fields(
    fields: Sequence[np.ndarray],
) -> bytes:
    """BLAKE2b-16 digest of decoded ``(modes, opcodes, dsts, srcs)`` arrays.

    The one definition of "semantic fingerprint" shared by
    :meth:`Program.semantic_fingerprint`, the IR verifier
    (:meth:`repro.analysis.ir.ProgramIR.semantic_fingerprint`) and the
    pack-time optimizer, so the byte format can never drift apart.
    """
    digest = hashlib.blake2b(digest_size=16)
    for array in fields:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.digest()


class Program:
    """An immutable linear program.

    Args:
        code: encoded instruction integers.
        config: engine configuration (field widths, register counts).

    The decoded field arrays are cached so the fused engine
    (:class:`~repro.gp.engine.FusedEngine`), which evaluates every program
    in production, packs without re-decoding.  :meth:`step` and the
    sequence runners built on it are the reference interpreter the engine
    is tested against.
    """

    __slots__ = (
        "code", "config", "_decoded", "_decoded_rows", "_effective",
        "_fingerprint",
    )

    def __init__(self, code: Sequence[int], config: GpConfig) -> None:
        if not code:
            raise ValueError("a program needs at least one instruction")
        if len(code) > config.node_limit:
            raise ValueError(
                f"program of {len(code)} instructions exceeds node limit "
                f"{config.node_limit}"
            )
        self.code: Tuple[int, ...] = tuple(int(c) for c in code)
        self.config = config
        self._decoded: Optional[Tuple[np.ndarray, ...]] = None
        self._decoded_rows: Optional[List[Tuple[int, int, int, int]]] = None
        self._effective: Optional[Tuple[np.ndarray, ...]] = None
        self._fingerprint: Optional[bytes] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def random(cls, rng: Random, config: GpConfig, page_size: int) -> "Program":
        """A random individual: uniform page count, random instructions.

        Page count is uniform over ``[1, node_limit // page_size]`` so the
        initial population spans the entire range of program lengths.
        """
        max_pages = max(config.node_limit // page_size, 1)
        n_pages = rng.randint(1, max_pages)
        code = [random_instruction(rng, config) for _ in range(n_pages * page_size)]
        return cls(code, config)

    def replace_code(self, code: Sequence[int]) -> "Program":
        """A new program with different code under the same config."""
        return Program(code, self.config)

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------
    def decoded_fields(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(modes, opcodes, dsts, srcs)`` integer arrays, cached."""
        if self._decoded is None:
            decoded = [decode_instruction(v, self.config) for v in self.code]
            self._decoded = (
                np.array([i.mode for i in decoded], dtype=np.int64),
                np.array([i.opcode for i in decoded], dtype=np.int64),
                np.array([i.dst for i in decoded], dtype=np.int64),
                np.array([i.src for i in decoded], dtype=np.int64),
            )
        return self._decoded

    def effective_fields(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Decoded fields of the *effective* instructions only, cached.

        Structural introns cannot influence the output register (the
        analysis in :meth:`effective_instructions` accounts for
        recurrence), so evaluators may execute just these instructions and
        produce bit-identical predictions -- typically a 2-3x speed-up on
        random LGP code.
        """
        if self._effective is None:
            keep = self.effective_instructions()
            modes, opcodes, dsts, srcs = self.decoded_fields()
            self._effective = (
                modes[keep], opcodes[keep], dsts[keep], srcs[keep]
            )
        return self._effective

    def _instruction_rows(self) -> List[Tuple[int, int, int, int]]:
        """Decoded ``(mode, opcode, dst, src)`` tuples, cached.

        The interpreter's per-word loop iterates plain ints; converting
        the cached field arrays once is far cheaper than decoding (or
        even indexing numpy scalars) on every word.
        """
        if self._decoded_rows is None:
            modes, opcodes, dsts, srcs = self.decoded_fields()
            self._decoded_rows = list(
                zip(modes.tolist(), opcodes.tolist(), dsts.tolist(), srcs.tolist())
            )
        return self._decoded_rows

    def semantic_fingerprint(self) -> bytes:
        """Digest of the decoded *effective* instruction stream, cached.

        Two programs whose raw code differs only in structural introns
        (or in bits that decode to the same fields) share a fingerprint
        and therefore -- by the effective-instruction property -- produce
        identical outputs on every input.  The semantic fitness cache
        keys on this.
        """
        if self._fingerprint is None:
            self._fingerprint = fingerprint_fields(self.effective_fields())
        return self._fingerprint

    def disassemble(self) -> List[str]:
        """Paper-style listing, e.g. ``['R1=R1-I1', 'R0=R0*I1', ...]``."""
        return disassemble(self.code, self.config)

    # ------------------------------------------------------------------
    # reference (interpreted) execution
    # ------------------------------------------------------------------
    def step(self, registers: np.ndarray, inputs: Sequence[float]) -> np.ndarray:
        """One pass of the whole program for a single input vector.

        The reference semantics, one instruction at a time: production
        evaluation goes through :class:`~repro.gp.engine.FusedEngine`,
        which tests hold bit-identical to this.

        Args:
            registers: current register file (modified copy is returned).
            inputs: the current word's feature values.

        Returns:
            The updated register file.
        """
        registers = np.array(registers, dtype=float)
        # Transient overflow is expected on hostile inputs -- the clamp on
        # the next line restores finite values, so silence the warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            for mode, opcode, dst, src in self._instruction_rows():
                if mode == MODE_INTERNAL:
                    source = registers[src]
                elif mode == MODE_EXTERNAL:
                    source = float(inputs[src])
                else:
                    source = float(src)
                current = registers[dst]
                if opcode == OP_ADD:
                    result = current + source
                elif opcode == OP_SUB:
                    result = current - source
                elif opcode == OP_MUL:
                    result = current * source
                else:
                    result = protected_divide(current, source)
                registers[dst] = float(
                    np.clip(result, -REGISTER_LIMIT, REGISTER_LIMIT)
                )
        return registers

    def run_sequence(self, sequence: np.ndarray) -> np.ndarray:
        """Run recurrently over a word sequence; registers persist.

        Args:
            sequence: ``(T, n_inputs)`` encoded document.

        Returns:
            The final register file (zeros for an empty sequence).
        """
        registers = np.zeros(self.config.n_registers)
        for row in np.atleast_2d(np.asarray(sequence, dtype=float)).reshape(
            -1, self.config.n_inputs
        ):
            registers = self.step(registers, row)
        return registers

    def trace_sequence(self, sequence: np.ndarray) -> np.ndarray:
        """Output-register value after each word (the word-tracking signal).

        Reference only: tracking reads traces through
        :meth:`~repro.classify.binary.RlgpBinaryClassifier.word_values`
        (the fused engine's per-word sweep), which tests hold
        bit-identical to this for recurrent rules.
        """
        registers = np.zeros(self.config.n_registers)
        trace = []
        for row in np.atleast_2d(np.asarray(sequence, dtype=float)).reshape(
            -1, self.config.n_inputs
        ):
            registers = self.step(registers, row)
            trace.append(registers[self.config.output_register])
        return np.array(trace)

    # ------------------------------------------------------------------
    # structural analysis
    # ------------------------------------------------------------------
    def effective_instructions(self) -> List[int]:
        """Indices of instructions that can influence the output register.

        Delegates to the IR's recurrent backward-liveness fixpoint
        (:func:`repro.analysis.ir.effective_indices`): a *recurrent*
        program's register state at the start of a pass comes from the
        end of the previous pass, so liveness iterates to convergence
        instead of assuming registers are dead at exit.  The engine, the
        introspection layer and the ``verify_program`` oracle all consume
        this one analysis.
        """
        # Imported lazily: analysis.ir depends on gp.config/instructions,
        # importing it at module level would be circular.
        from repro.analysis.ir import effective_indices

        return effective_indices(self.code, self.config)

    # ------------------------------------------------------------------
    # dunder plumbing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.code)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Program) and self.code == other.code

    def __hash__(self) -> int:
        return hash(self.code)

    def __repr__(self) -> str:
        return f"Program({len(self.code)} instructions)"
