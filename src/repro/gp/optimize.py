"""IR-driven program optimization (fold / eliminate) and level scheduling.

The evaluation engine (:mod:`repro.gp.engine`) executes each program's
*structural* effective stream -- instructions whose write can reach the
output register -- list-scheduled into dependency levels by
:func:`schedule_levels`.  This module also removes the next layer of
waste the IR's dataflow analyses can prove away while keeping evaluation
**exact**; ``analyze --model`` reports it per champion:

* **Constant operand folding.**  A sparse constant analysis over the
  recurrent reaching-definition fixpoint finds registers that provably
  hold one IEEE-754 value at an instruction's entry on *every* pass of
  *every* document (registers start at zero, so internal-only dataflow
  pockets stay constant).  Internal-mode operands reading such a
  register are rewritten to constant-mode immediates when the value is
  exactly representable -- the classic copy/constant propagation, except
  that in this 2-address ISA (every instruction reads its own
  destination) pure register moves do not exist, so propagation
  degenerates to operand-immediate rewriting.  The rewritten operand is
  bit-identical to the register read it replaces.
* **Semantic-intron elimination.**  Instructions proven to leave their
  destination register bit-identical are dropped: ``x*1``, ``x/1``,
  ``x-0`` (the ``+0`` case is *kept* unless the destination is itself a
  known constant -- ``-0.0 + 0.0`` flips the zero sign), protected
  division by a ~0 operand (returns the numerator exactly), and any
  instruction whose constant out-value equals its constant in-value
  bit-for-bit.
* **Dead-code cascade.**  Folding removes register *reads*, so the
  chains that produced those registers become structurally dead; the
  liveness fixpoint re-runs on the rewritten stream and the passes
  iterate to a fixpoint.  The result is an intron-free stream, usually
  shorter than the structural effective stream.

Every transform preserves the output-register value after **every**
word of **every** document bit-for-bit (the recurrent liveness back
edge keeps the output register observable at each pass boundary) --
:func:`repro.analysis.verify.verify_optimized` replays optimized
streams against :meth:`Program.step` semantics to prove it.

The optimized stream is re-encoded into genuine 16-bit instruction
words (folded immediates fit the 8-bit source field by construction),
so every downstream analysis -- :class:`~repro.analysis.ir.ProgramIR`,
hazards, disassembly, the replay oracle -- applies to it unchanged.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.gp.config import GpConfig
from repro.gp.instructions import (
    MODE_CONSTANT,
    MODE_INTERNAL,
    OP_ADD,
    OP_DIV,
    OP_MUL,
    OP_SUB,
    encode_instruction,
)
from repro.gp.program import (
    DIV_EPSILON,
    REGISTER_LIMIT,
    fingerprint_fields,
    protected_divide,
)

#: Lattice top for the constant analysis: "not a constant".
_NAC = object()

#: Safety cap on fold/eliminate/DCE iterations.  Every changing pass
#: strictly shrinks ``len(stream) + count(internal operands)``, so the
#: loop terminates on its own; the cap only guards against bugs.
_MAX_PASSES = 64


def _bits(value: float) -> bytes:
    """The IEEE-754 bit pattern -- distinguishes ``-0.0`` from ``0.0``."""
    return struct.pack("<d", value)


_ONE = _bits(1.0)
_PLUS_ZERO = _bits(0.0)


def _clamp(value: float) -> float:
    """The register clamp, exactly as :meth:`Program.step` applies it."""
    return float(np.clip(value, -REGISTER_LIMIT, REGISTER_LIMIT))


def _result_of(current: float, source: float, opcode: int) -> float:
    """One instruction's result under exact step semantics."""
    if opcode == OP_ADD:
        result = current + source
    elif opcode == OP_SUB:
        result = current - source
    elif opcode == OP_MUL:
        result = current * source
    else:
        result = protected_divide(current, source)
    return _clamp(result)


@dataclass(frozen=True)
class OptimizationStats:
    """What the optimizer did to one program.

    Attributes:
        n_instructions: raw code length.
        n_effective: structural effective length (what the engine
            executes).
        n_optimized: final optimized stream length.
        folded_operands: internal-mode operands rewritten to immediates.
        eliminated: instructions removed beyond the structural introns
            (semantic introns + fold-induced dead code).
        passes: optimization passes run to reach the fixpoint.
    """

    n_instructions: int
    n_effective: int
    n_optimized: int
    folded_operands: int
    eliminated: int
    passes: int


class OptimizedProgram:
    """One program's optimized effective stream.

    Attributes:
        fields: ``(modes, opcodes, dsts, srcs)`` int64 arrays.
        code: the stream re-encoded as 16-bit instruction words (empty
            tuple when everything folded away); a *valid* program for
            every IR analysis and for the replay oracle.
        stats: see :class:`OptimizationStats`.
    """

    __slots__ = ("fields", "code", "stats", "_fingerprint")

    def __init__(
        self,
        fields: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        code: Tuple[int, ...],
        stats: OptimizationStats,
    ) -> None:
        self.fields = fields
        self.code = code
        self.stats = stats
        self._fingerprint: Optional[bytes] = None

    def __len__(self) -> int:
        return len(self.code)

    def semantic_fingerprint(self) -> bytes:
        """Digest of the *optimized* stream (not the source stream)."""
        if self._fingerprint is None:
            self._fingerprint = fingerprint_fields(self.fields)
        return self._fingerprint


def _constant_entry(
    rows: List[Tuple[int, int, int, int]], n_registers: int
) -> List[object]:
    """Per-register constants holding at the start of *every* pass.

    Registers start the first pass at ``+0.0``; later passes start at
    the previous pass's exit state, so the entry state is the meet of
    the initial zeros with its own exit image -- iterated to fixpoint.
    The lattice (constant -> NAC) has height one per register, so this
    converges in at most ``n_registers + 1`` sweeps.
    """
    entry: List[object] = [0.0] * n_registers
    for _ in range(n_registers + 1):
        state = list(entry)
        for mode, opcode, dst, src in rows:
            state[dst] = _step_state(state, mode, opcode, dst, src)
        merged = [_meet(e, s) for e, s in zip(entry, state)]
        if all(_same(m, e) for m, e in zip(merged, entry)):
            return entry
        entry = merged
    return [_NAC] * n_registers  # unreachable; fail conservative


def _step_state(
    state: List[object], mode: int, opcode: int, dst: int, src: int
) -> object:
    source = _source_value(state, mode, src)
    current = state[dst]
    if current is _NAC or source is _NAC:
        return _NAC
    return _result_of(current, source, opcode)


def _source_value(state: Sequence[object], mode: int, src: int) -> object:
    if mode == MODE_CONSTANT:
        return float(src)
    if mode == MODE_INTERNAL:
        return state[src]
    return _NAC  # external inputs are never compile-time constants


def _meet(a: object, b: object) -> object:
    if a is _NAC or b is _NAC:
        return _NAC
    return a if _bits(a) == _bits(b) else _NAC


def _same(a: object, b: object) -> bool:
    if a is _NAC or b is _NAC:
        return a is b
    return _bits(a) == _bits(b)


def _in_states(
    rows: List[Tuple[int, int, int, int]],
    entry: List[object],
) -> List[Tuple[object, ...]]:
    """The stable per-instruction entry states (after :func:`_constant_entry`)."""
    states = []
    state = list(entry)
    for mode, opcode, dst, src in rows:
        states.append(tuple(state))
        state[dst] = _step_state(state, mode, opcode, dst, src)
    return states


def _is_transparent(
    mode: int, opcode: int, dst: int, src: int, state: Tuple[object, ...]
) -> bool:
    """Does this instruction provably leave ``R[dst]`` bit-identical?"""
    source = _source_value(state, mode, src)
    if source is not _NAC:
        source_bits = _bits(source)
        if opcode in (OP_MUL, OP_DIV) and source_bits == _ONE:
            return True  # x*1 and x/1 are exact identities
        if opcode == OP_SUB and source_bits == _PLUS_ZERO:
            return True  # x-(+0.0) is exact (x+0.0 is NOT: -0.0 flips)
        if opcode == OP_DIV and abs(source) < DIV_EPSILON:
            return True  # protected division returns the numerator
    current = state[dst]
    if current is not _NAC and source is not _NAC:
        # Both operands known: the out-value is a compile-time constant;
        # if it equals the in-value bit-for-bit the write is a no-op.
        return _bits(_result_of(current, source, opcode)) == _bits(current)
    return False


def _fold_immediate(value: object, config: GpConfig) -> Optional[int]:
    """The constant-mode immediate exactly representing ``value``, if any.

    Constant-mode operands evaluate as ``float(src)`` with ``src`` an
    integer in ``[0, constant_range)`` that must also fit the 8-bit
    source field.  ``-0.0`` is rejected (its bit pattern differs from
    the immediate's ``+0.0``).
    """
    if value is _NAC:
        return None
    immediate = int(value)
    if not 0 <= immediate < min(config.constant_range, 256):
        return None
    return immediate if _bits(float(immediate)) == _bits(value) else None


def _effective_rows(
    rows: List[Tuple[int, int, int, int]], config: GpConfig
) -> List[Tuple[int, int, int, int]]:
    """Rows surviving the recurrent liveness fixpoint (structural DCE)."""
    if not rows:
        return rows
    # Imported lazily: analysis.ir imports gp modules at module load.
    from repro.analysis.ir import ProgramIR

    code = [encode_instruction(*row) for row in rows]
    keep = ProgramIR(code, config).effective_indices()
    return [rows[i] for i in keep]


def optimize_fields(
    fields: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    config: GpConfig,
    n_instructions: Optional[int] = None,
) -> OptimizedProgram:
    """Optimize a decoded (structurally effective) instruction stream.

    Args:
        fields: ``(modes, opcodes, dsts, srcs)`` arrays, e.g. from
            :meth:`Program.effective_fields`.
        config: field widths and register counts.
        n_instructions: raw program length for the stats (defaults to
            the stream length).
    """
    modes, opcodes, dsts, srcs = fields
    rows = list(zip(
        modes.tolist(), opcodes.tolist(), dsts.tolist(), srcs.tolist()
    ))
    n_effective = len(rows)
    folded = 0
    passes = 0
    changed = True
    while changed and passes < _MAX_PASSES:
        passes += 1
        changed = False
        entry = _constant_entry(rows, config.n_registers)
        states = _in_states(rows, entry)
        rewritten: List[Tuple[int, int, int, int]] = []
        for row, state in zip(rows, states):
            mode, opcode, dst, src = row
            if _is_transparent(mode, opcode, dst, src, state):
                changed = True
                continue
            if mode == MODE_INTERNAL:
                immediate = _fold_immediate(state[src], config)
                if immediate is not None:
                    row = (MODE_CONSTANT, opcode, dst, immediate)
                    folded += 1
                    changed = True
            rewritten.append(row)
        rows = _effective_rows(rewritten, config)
        if len(rows) != len(rewritten):
            changed = True
    out_fields = tuple(
        np.array([row[part] for row in rows], dtype=np.int64)
        for part in range(4)
    )
    code = tuple(encode_instruction(*row) for row in rows)
    stats = OptimizationStats(
        n_instructions=(
            n_effective if n_instructions is None else n_instructions
        ),
        n_effective=n_effective,
        n_optimized=len(rows),
        folded_operands=folded,
        eliminated=n_effective - len(rows),
        passes=passes,
    )
    return OptimizedProgram(out_fields, code, stats)


def optimize_code(code: Sequence[int], config: GpConfig) -> OptimizedProgram:
    """Optimize a raw code stream (structural introns dropped first)."""
    from repro.analysis.ir import ProgramIR

    ir = ProgramIR(code, config)
    return optimize_fields(
        ir.effective_fields(), config, n_instructions=len(ir)
    )


def optimize_program(program) -> OptimizedProgram:
    """Optimize a :class:`~repro.gp.program.Program` (duck-typed)."""
    return optimize_fields(
        program.effective_fields(),
        program.config,
        n_instructions=len(program),
    )


class ProgramOptimizer:
    """Memoising front end over :func:`optimize_program`.

    Keyed on :meth:`Program.semantic_fingerprint` -- two programs whose
    raw code differs only in structural introns share an effective
    stream, hence an optimization.  Steady-state populations recycle
    semantics heavily, so packing a generation is mostly cache hits.

    Args:
        config: the engine configuration.
        capacity: retained entries (LRU eviction; 0 disables caching).
        metrics: registry for the ``engine_folded_instructions_total``
            counter (instructions folded to immediates or eliminated as
            semantic introns); the shared engine registry by default.
    """

    def __init__(self, config: GpConfig, capacity: int = 8192, metrics=None) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.config = config
        self.capacity = capacity
        self._entries: "OrderedDict[bytes, OptimizedProgram]" = OrderedDict()
        if metrics is None:
            from repro.gp.engine import shared_metrics

            metrics = shared_metrics()
        self._folded = metrics.counter(
            "engine_folded_instructions_total",
            "instructions folded or eliminated by the pack-time optimizer",
        )

    def optimize(self, program) -> OptimizedProgram:
        """The (cached) optimized stream of ``program``."""
        key = program.semantic_fingerprint()
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            return cached
        optimized = optimize_program(program)
        self._folded.inc(
            optimized.stats.folded_operands + optimized.stats.eliminated
        )
        if self.capacity:
            self._entries[key] = optimized
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return optimized


def schedule_levels(
    fields: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    n_registers: int,
) -> List[int]:
    """Greedy list-schedule of an instruction stream into dependency levels.

    Returns one level per instruction such that instructions sharing a
    level are mutually independent and may execute *simultaneously* with
    reads-before-writes semantics, bit-identically to sequential
    execution:

    * **RAW / WAW:** an instruction reading a register (its destination
      always counts as a read in this 2-address ISA) is placed strictly
      after the level of the last write to it -- so it observes that
      write, and two writers of the same register never share a level.
    * **WAR:** a writer is placed no earlier than the last *read* level
      of its destination.  Sharing that level is safe: within a level
      all operands are gathered before any result is scattered, so the
      earlier reader still sees the pre-level value, exactly as it
      would sequentially.

    The fused engine executes one *level* per slot instead of one
    instruction, collapsing the sweep's slot count from the longest
    stream length to the longest dependency chain (~3x shorter for
    evolved populations) -- same instructions, same arithmetic, far
    fewer kernel dispatches.
    """
    modes, _, dsts, srcs = fields
    last_write = [-1] * n_registers
    last_read = [-1] * n_registers
    levels: List[int] = []
    append = levels.append
    internal = MODE_INTERNAL
    for mode, dst, src in zip(
        np.asarray(modes).tolist(),
        np.asarray(dsts).tolist(),
        np.asarray(srcs).tolist(),
    ):
        level = last_write[dst] + 1
        if last_read[dst] > level:
            level = last_read[dst]
        if mode == internal:
            src_level = last_write[src] + 1
            if src_level > level:
                level = src_level
            if last_read[src] < level:
                last_read[src] = level
        if last_read[dst] < level:
            last_read[dst] = level
        last_write[dst] = level
        append(level)
    return levels
