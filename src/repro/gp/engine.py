"""Fused RLGP evaluation: the one production evaluator.

Every program batch -- one served champion, a tournament's stale
members, a whole population at model selection -- is scored by the same
kernel:

* :class:`PackedPrograms` packs every program's *effective* instruction
  stream (structural introns dropped, after Brameier & Banzhaf) into
  per-slot field arrays ``mode/opcode/dst/src`` of shape
  ``(n_programs, max_effective_len)``, padding short programs with a
  bit-transparent no-op (``R0 = R0 * 1``);
* :class:`FusedEngine` list-schedules the streams into dependency
  levels, holds one register bank for the whole batch and sweeps the
  time axis once, applying one level of **every** program in a handful
  of gathered ufuncs.  Semantically identical programs in a batch are
  swept once.  Per element the operation sequence is exactly
  :meth:`Program.step`'s, so outputs are bit-identical to the reference
  :class:`~repro.gp.recurrent.RecurrentEvaluator` (differential-tested).
  A word step runs a *tape*: the flat list of ``(callable, args)``
  numpy calls of every level -- one gather, one ufunc per opcode group,
  the division guard, one clamp -- bound once over fixed views of the
  bank, so a step pays for its ufuncs and for no slicing.  The bank's
  columns narrow along a halving ladder as documents end: once the
  active prefix is at most half the bound width, the live prefix moves
  to a narrower contiguous bank and the tape is rebound, so documents
  that already ended cost at most as much as the live ones;
* :class:`SemanticCache` memoises ``(effective-code fingerprint,
  DSS-subset version) -> (fitness, squashed outputs)`` so offspring whose
  crossover/mutation landed entirely in introns are never re-evaluated.

The sweep reads the output register at each document's end
(:meth:`FusedEngine.outputs`) or, for the word-tracking signal of paper
Sec. 8.2, after every word (:meth:`FusedEngine.word_outputs`): one extra
snapshot inside the same loop, so per-word traces are as exact as final
outputs.  :meth:`Program.step` and its callers are the reference only.

Engine activity is observable: counters for programs/documents/
instructions evaluated and semantic-cache hits land on a shared
:class:`~repro.serve.metrics.MetricsRegistry` (rendered by the serving
layer's ``/metrics`` endpoint) or on any registry passed in -- the
training runtime threads its :class:`~repro.runtime.context.RunContext`
registry through here.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

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
    encode_instruction,
)
from repro.gp.program import DIV_EPSILON, Program, REGISTER_LIMIT
from repro.gp.recurrent import PackedSequences

try:  # single-pass clamp without np.clip's per-call wrapper overhead
    from numpy._core.umath import clip as _clip_ufunc
except ImportError:  # pragma: no cover - older numpy layouts
    try:
        from numpy.core.umath import clip as _clip_ufunc
    except ImportError:
        _clip_ufunc = None

#: The padding no-op: ``R0 = R0 * 1`` leaves every register bit-identical
#: (multiplying by 1.0 is exact in IEEE-754, and the clamp is idempotent
#: on already-clamped values).
_NOOP_MODE = MODE_CONSTANT
_NOOP_OPCODE = OP_MUL
_NOOP_DST = 0
_NOOP_SRC = 1

#: The encoded form, for callers that want to pad raw code streams.
NOOP_INSTRUCTION = encode_instruction(_NOOP_MODE, _NOOP_OPCODE, _NOOP_DST, _NOOP_SRC)

_shared_registry = None


def shared_metrics():
    """The process-wide engine metrics registry (created on first use).

    The serving layer merges this registry into its ``/metrics``
    exposition, so engine activity during inference is observable without
    any explicit wiring.  The standard series are pre-registered so they
    render as zeros before the first evaluation.
    """
    global _shared_registry
    if _shared_registry is None:
        from repro.serve.metrics import MetricsRegistry

        _shared_registry = MetricsRegistry()
        _register_engine_metrics(_shared_registry)
    return _shared_registry


def _register_engine_metrics(registry) -> Dict[str, object]:
    return {
        "programs": registry.counter(
            "engine_programs_evaluated_total", "programs scored by the engine"
        ),
        "documents": registry.counter(
            "engine_documents_evaluated_total", "program x document evaluations"
        ),
        "instructions": registry.counter(
            "engine_instructions_executed_total",
            "effective instructions executed on active documents "
            "(program x word x instruction)",
        ),
        "batches": registry.counter(
            "engine_batches_total", "fused evaluation calls"
        ),
        "cache_hits": registry.counter(
            "engine_cache_hits_total", "semantic fitness cache hits"
        ),
        "cache_misses": registry.counter(
            "engine_cache_misses_total", "semantic fitness cache misses"
        ),
        "cache_hit_rate": registry.gauge(
            "engine_cache_hit_rate", "hits / lookups over the cache lifetime"
        ),
        "dedup_hits": registry.counter(
            "engine_dedup_hits_total",
            "batch rows served by population-level fingerprint dedup",
        ),
        "block_sweeps": registry.counter(
            "engine_block_sweeps_total",
            "document-block register-bank sweeps",
        ),
    }


class PackedPrograms:
    """A population's effective instruction streams as per-slot arrays.

    Programs are sorted by *decreasing* effective length (the same trick
    :class:`~repro.gp.recurrent.PackedSequences` plays on documents), so
    instruction slot ``i`` is live for a contiguous **prefix** of the
    rows.  The sweep plan takes only the effective instructions, never a
    padded no-op; padding slots still hold the bit-transparent
    ``R0 = R0 * 1`` as a safety net.

    Attributes:
        modes / opcodes / dsts / srcs: ``(n_programs, max_len)`` int64
            arrays, row-sorted by decreasing effective length.
        lengths: effective instruction counts, sorted to match.
        order: original index of each sorted row.
        active_counts: ``active_counts[i]`` = programs whose effective
            code reaches slot ``i`` (a prefix of the sorted rows).
        levels: ``(n_programs, max_len)`` dependency level of every
            instruction (:func:`repro.gp.optimize.schedule_levels`),
            row-aligned with ``modes``.
    """

    __slots__ = ("modes", "opcodes", "dsts", "srcs", "lengths", "order",
                 "active_counts", "levels")

    def __init__(self, modes, opcodes, dsts, srcs, lengths, order,
                 active_counts, levels) -> None:
        self.modes = modes
        self.opcodes = opcodes
        self.dsts = dsts
        self.srcs = srcs
        self.lengths = lengths
        self.order = order
        self.active_counts = active_counts
        self.levels = levels

    @classmethod
    def from_programs(
        cls, programs: Sequence[Program], config: GpConfig
    ) -> "PackedPrograms":
        """Pack the (cached) effective fields of ``programs``."""
        from repro.gp.optimize import schedule_levels

        fields = [program.effective_fields() for program in programs]
        level_rows = [schedule_levels(f, config.n_registers) for f in fields]
        raw_lengths = np.array([len(f[0]) for f in fields], dtype=np.int64)
        order = np.argsort(-raw_lengths, kind="stable")
        lengths = raw_lengths[order]
        n_programs = len(programs)
        max_len = int(lengths[0]) if n_programs else 0
        modes = np.full((n_programs, max_len), _NOOP_MODE, dtype=np.int64)
        opcodes = np.full((n_programs, max_len), _NOOP_OPCODE, dtype=np.int64)
        dsts = np.full((n_programs, max_len), _NOOP_DST, dtype=np.int64)
        srcs = np.full((n_programs, max_len), _NOOP_SRC, dtype=np.int64)
        levels = np.zeros((n_programs, max_len), dtype=np.int64)
        for row, original in enumerate(order):
            mode, opcode, dst, src = fields[original]
            n = len(mode)
            modes[row, :n] = mode
            opcodes[row, :n] = opcode
            dsts[row, :n] = dst
            srcs[row, :n] = src
            levels[row, :n] = level_rows[original]
        slots = np.arange(max_len)
        active_counts = np.searchsorted(-lengths, -(slots + 1), side="right")
        return cls(
            modes, opcodes, dsts, srcs, lengths, order, active_counts, levels
        )

    @property
    def n_programs(self) -> int:
        return len(self.lengths)

    @property
    def max_len(self) -> int:
        return self.modes.shape[1]


class _Slot:
    """Precomputed execution plan for one scheduled *level*.

    A level holds mutually independent instructions -- one or more per
    program (see :func:`repro.gp.optimize.schedule_levels`).  Entries
    arrive sorted by opcode, so the opcode groups are contiguous row
    ranges ``(opcode, lo, hi)`` (in-place ufuncs on views, no masked
    copies).

    Every operand lives in one *extended* register bank laid out as
    ``[zero row | instruction defs | input rows | constant rows]``
    (see :meth:`FusedEngine._schedule`), so the single
    fancy-indexed gather of ``flat_pair`` fetches each instruction's
    running destination value *and* its source: no per-mode fill-in
    passes.  Each instruction owns the def row numbered by its slot
    position, so this slot *writes* the contiguous bank rows
    ``[def_lo, def_hi)`` -- the group ufuncs emit straight into the
    bank and there is no scatter pass at all.
    """

    __slots__ = ("flat_pair", "size", "def_lo", "def_hi", "groups")

    def __init__(self, opcodes, prev_rows, src_rows, def_lo) -> None:
        self.flat_pair = np.concatenate((prev_rows, src_rows))
        self.size = len(opcodes)
        self.def_lo = int(def_lo)
        self.def_hi = self.def_lo + self.size
        # Contiguous opcode runs in the presorted order.
        boundaries = np.flatnonzero(np.diff(opcodes)) + 1
        starts = np.concatenate(([0], boundaries)).tolist()
        stops = np.concatenate((boundaries, [len(opcodes)])).tolist()
        self.groups = [
            (int(opcodes[lo]), lo, hi) for lo, hi in zip(starts, stops)
        ]


class _SweepPlan:
    """A full sweep's execution plan: slots plus bank geometry.

    Attributes:
        slots: one :class:`_Slot` per dependency level.
        const_vals: distinct constant immediates, prefilled as bank rows.
        out_rows: per sorted program row, the bank row holding the
            output register's value after each word (its final def row,
            or the always-zero initial row for empty streams).
        n_rows: total extended-bank rows.
        pair_rows: rows of the widest level's gather (twice its size).
        div_rows: rows of the widest division group (0 without one).
    """

    __slots__ = ("slots", "const_vals", "out_rows", "n_rows", "pair_rows",
                 "div_rows")

    def __init__(self, slots, const_vals, out_rows, n_rows) -> None:
        self.slots = slots
        self.const_vals = const_vals
        self.out_rows = out_rows
        self.n_rows = n_rows
        self.pair_rows = max(2 * slot.size for slot in slots)
        self.div_rows = max(
            (hi - lo for slot in slots for opcode, lo, hi in slot.groups
             if opcode == OP_DIV),
            default=0,
        )


#: The ufunc of each opcode but division, which is bound with its guard.
_UFUNCS = {OP_ADD: np.add, OP_SUB: np.subtract, OP_MUL: np.multiply}


def _bind_tape(plan: _SweepPlan, bank: np.ndarray, pairs: np.ndarray,
               magnitudes: np.ndarray, tiny: np.ndarray) -> list:
    """One word step of ``plan`` over ``bank`` as ``(callable, args)`` pairs.

    Per level: one gather of every operand into ``pairs``; one ufunc per
    opcode group, emitting straight into the group's def rows; and one
    clamp of those rows.  A division group first sets its ~0
    denominators to 1 (``x / 1.0 == x`` bit-exactly, so the protected
    lanes keep the numerator, as :meth:`Program.step` does), through
    ``magnitudes`` and the mask ``tiny``.  The three flat buffers are
    shared by every level -- a level's gather and guard are spent before
    the next level's gather -- and are re-viewed contiguously at the
    bank's width, so every call runs on contiguous rows.
    """
    width = bank.shape[1]
    pairs = pairs[: plan.pair_rows * width].reshape(plan.pair_rows, width)
    magnitudes = magnitudes[: plan.div_rows * width].reshape(plan.div_rows, width)
    tiny = tiny[: plan.div_rows * width].reshape(plan.div_rows, width)
    tape = []
    for slot in plan.slots:
        size = slot.size
        # Gather with mode "clip" (indices are always in range) writes
        # into ``pairs`` directly; the default "raise" buffers ``out``.
        # Because the gather copies, every operand is pinned before the
        # level writes anything -- required by the wrap-around reads of
        # same-level final defs.
        tape.append((bank.take, (slot.flat_pair, 0, pairs[: 2 * size], "clip")))
        for opcode, lo, hi in slot.groups:
            current = pairs[lo:hi]
            source = pairs[size + lo : size + hi]
            defs = bank[slot.def_lo + lo : slot.def_lo + hi]
            if opcode != OP_DIV:
                tape.append((_UFUNCS[opcode], (current, source, defs)))
            else:
                magnitude = magnitudes[: hi - lo]
                mask = tiny[: hi - lo]
                tape += [
                    (np.absolute, (source, magnitude)),
                    (np.less, (magnitude, DIV_EPSILON, mask)),
                    (np.putmask, (source, mask, 1.0)),
                    (np.divide, (current, source, defs)),
                ]
        defs = bank[slot.def_lo : slot.def_hi]
        if _clip_ufunc is not None:
            # The raw clip ufunc: one pass, without np.clip's wrapper.
            tape.append(
                (_clip_ufunc, (defs, -REGISTER_LIMIT, REGISTER_LIMIT, defs))
            )
        else:  # pragma: no cover - older numpy layouts
            tape += [
                (np.maximum, (defs, -REGISTER_LIMIT, defs)),
                (np.minimum, (defs, REGISTER_LIMIT, defs)),
            ]
    return tape


#: Entries the trainer's semantic cache retains.
SEMANTIC_CACHE_CAPACITY = 8192


class SemanticCache:
    """LRU cache of subset fitness keyed by program *semantics*.

    Key: ``(Program.semantic_fingerprint(), subset_version)``.  Two
    programs whose raw code differs only in structural introns share a
    fingerprint, so offspring of intron-hit crossover/mutation score as
    cache hits instead of re-running the engine.  Values are
    ``(fitness, squashed outputs)`` exactly as the trainer computed them,
    so a hit is bit-identical to a re-evaluation.

    Args:
        capacity: retained entries (least recently used evicted first).
        metrics: registry for hit/miss counters; the shared engine
            registry by default.
    """

    def __init__(
        self, capacity: int = SEMANTIC_CACHE_CAPACITY, metrics=None
    ) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[bytes, int], Tuple[float, np.ndarray]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        registry = metrics if metrics is not None else shared_metrics()
        self._metrics = _register_engine_metrics(registry)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def get(
        self, fingerprint: bytes, version: int
    ) -> Optional[Tuple[float, np.ndarray]]:
        """The cached ``(fitness, squashed)`` or ``None`` on a miss."""
        entry = self._entries.get((fingerprint, version))
        if entry is None:
            self.misses += 1
            self._metrics["cache_misses"].inc()
        else:
            self._entries.move_to_end((fingerprint, version))
            self.hits += 1
            self._metrics["cache_hits"].inc()
        self._metrics["cache_hit_rate"].set(self.hit_rate)
        return entry

    def put(
        self,
        fingerprint: bytes,
        version: int,
        fitness: float,
        squashed: np.ndarray,
    ) -> None:
        if self.capacity == 0:
            return
        key = (fingerprint, version)
        self._entries[key] = (fitness, squashed)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)


#: Auto-blocking targets register banks of roughly this many bytes so the
#: working set stays cache-resident on large document batches.
_BLOCK_BYTES = 4 << 20

#: Retained (packing, sweep plan) pairs per engine (see
#: :meth:`FusedEngine._packed_plan`); entries are a few hundred KB.
_PLAN_CACHE_SIZE = 8


class FusedEngine:
    """Scores program batches of any size in one numpy pass.

    One served champion, a tournament's stale members and a whole
    population all take the same path: dedup by semantic fingerprint,
    pack, level-schedule, sweep.  The document axis is swept in blocks
    once the register bank would exceed ~4 MiB; documents are
    independent, so blocking never changes outputs.

    Safe to share between threads: each sweep allocates its own bank,
    buffers and tape (nothing bound is kept on the engine or the plan),
    and the plan memo is guarded by a lock.

    Args:
        config: the GP configuration shared by every program evaluated.
        metrics: registry for activity counters (shared engine registry
            by default).
    """

    def __init__(self, config: GpConfig, metrics=None) -> None:
        self.config = config
        registry = metrics if metrics is not None else shared_metrics()
        self._metrics = _register_engine_metrics(registry)
        # With REPRO_VERIFY_PACKING=1 every packed batch is checked
        # against the IR dataflow oracle (repro.analysis.verify) before
        # it runs -- used by the CI smoke train; far too slow for real
        # training.
        self._verify_packing = os.environ.get(
            "REPRO_VERIFY_PACKING", ""
        ) not in ("", "0")
        self._plan_lock = threading.Lock()
        self._plan_cache: "OrderedDict[Tuple[bytes, ...], Tuple[PackedPrograms, Optional[_SweepPlan]]]" = (
            OrderedDict()
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def pack(self, sequences: Sequence[np.ndarray]) -> PackedSequences:
        """Pad and sort document sequences (see :class:`PackedSequences`)."""
        return PackedSequences.from_sequences(sequences, self.config.n_inputs)

    def outputs(
        self, programs: Sequence[Program], packed: PackedSequences
    ) -> np.ndarray:
        """``(n_programs, n_docs)`` raw output-register values.

        Rows align with ``programs``; columns are in the documents'
        *original* (pre-packing) order.
        """
        programs = list(programs)
        unique, rows = self._dedup_rows(programs)
        self._count(programs, unique, packed)
        raws = self._outputs_fused(unique, packed)
        if rows is None:
            return raws
        # Scatter the unique sweeps back onto the caller's rows.
        return raws[rows]

    def word_outputs(
        self, programs: Sequence[Program], packed: PackedSequences
    ) -> List[List[np.ndarray]]:
        """Raw output-register value after every word.

        ``result[i][j]`` is program ``i``'s trace over document ``j``
        (both in the caller's order): one value per word of that
        document, empty for an empty document.  The same sweep as
        :meth:`outputs`, snapshotting the output row after each word
        instead of only at each document's end, so a trace's last value
        is that document's :meth:`outputs` entry.
        """
        programs = list(programs)
        unique, rows = self._dedup_rows(programs)
        self._count(programs, unique, packed)
        population, plan = self._packed_plan(unique)
        words = np.zeros(
            (population.n_programs, len(packed), packed.inputs.shape[1])
        )
        with np.errstate(over="ignore", invalid="ignore"):
            self._sweep(population, packed, plan, words)
        # Undo both sorts: program rows and document columns.
        traces = np.zeros_like(words)
        traces[np.ix_(population.order, packed.order)] = words
        if rows is not None:
            traces = traces[rows]
        lengths = np.empty(len(packed), dtype=np.int64)
        lengths[packed.order] = packed.lengths
        return [
            [row[doc, :length] for doc, length in enumerate(lengths.tolist())]
            for row in traces
        ]

    def _dedup_rows(
        self, programs: Sequence[Program]
    ) -> Tuple[List[Program], Optional[np.ndarray]]:
        """Unique-semantics representatives plus the row scatter map.

        Fingerprint-equal programs produce identical outputs on every
        input (the fingerprint digests the effective stream), so one
        sweep per unique fingerprint is exact.  Returns ``(programs,
        None)`` when every row is unique -- the fast path allocates
        nothing.
        """
        index: Dict[bytes, int] = {}
        unique: List[Program] = []
        rows = np.empty(len(programs), dtype=np.intp)
        hits = 0
        for i, program in enumerate(programs):
            slot = index.get(program.semantic_fingerprint())
            if slot is None:
                slot = len(unique)
                index[program.semantic_fingerprint()] = slot
                unique.append(program)
            else:
                hits += 1
            rows[i] = slot
        if not hits:
            return list(programs), None
        self._metrics["dedup_hits"].inc(hits)
        return unique, rows

    # ------------------------------------------------------------------
    # fused kernel
    # ------------------------------------------------------------------
    def _outputs_fused(
        self, programs: Sequence[Program], packed: PackedSequences
    ) -> np.ndarray:
        population, plan = self._packed_plan(programs)
        with np.errstate(over="ignore", invalid="ignore"):
            finals = self._sweep(population, packed, plan)
        # Undo both sorts: program rows and document columns.
        outputs = np.zeros_like(finals)
        outputs[np.ix_(population.order, packed.order)] = finals
        return outputs

    def _packed_plan(
        self, programs: Sequence[Program]
    ) -> Tuple[PackedPrograms, Optional["_SweepPlan"]]:
        """Memoized ``(packing, sweep plan)`` for one program batch.

        The *ordered* semantic fingerprints fully determine the packed
        streams (the pack's length-sort is stable) and therefore the
        plan -- so rescoring an unchanged batch skips re-packing and
        re-scheduling entirely: a served champion is planned once, and
        model-selection passes and post-dedup tournament batches repeat
        across calls.  ``REPRO_VERIFY_PACKING`` verifies on build; a
        cache hit returns an already-verified packing.
        """
        key = tuple(p.semantic_fingerprint() for p in programs)
        with self._plan_lock:
            hit = self._plan_cache.get(key)
            if hit is not None:
                self._plan_cache.move_to_end(key)
                return hit
        population = PackedPrograms.from_programs(programs, self.config)
        if self._verify_packing:
            from repro.analysis.verify import verify_packing

            verify_packing(population, programs, self.config)
        plan = self._schedule(population) if population.max_len else None
        with self._plan_lock:
            self._plan_cache[key] = (population, plan)
            if len(self._plan_cache) > _PLAN_CACHE_SIZE:
                self._plan_cache.popitem(last=False)
        return population, plan

    @staticmethod
    def _block_size(n_rows: int) -> int:
        """Documents per bank sweep (cache-aware blocking).

        Blocks are sized so one extended float64 bank
        (``plan.n_rows x block``) stays around :data:`_BLOCK_BYTES` --
        small batches (the training workload) fit in one block and skip
        the blocking loop entirely.
        """
        per_doc = n_rows * np.dtype(np.float64).itemsize
        return max(64, _BLOCK_BYTES // max(per_doc, 1))

    def _schedule(self, population: PackedPrograms) -> "_SweepPlan":
        """Level-scheduled execution plan for one register-bank sweep.

        Each program's packed stream is list-scheduled into dependency
        levels (:func:`repro.gp.optimize.schedule_levels`); level ``s``
        of every program executes in one slot, so the sweep runs
        ``max(depth)`` slots per word instead of ``max(length)`` --
        identical instructions and arithmetic, ~3x fewer dispatches.

        Operands are rebased onto an *extended*, SSA-style bank layout
        ``[zero row | instruction defs | input rows | constant rows]``.
        Each instruction owns one *def row*, numbered in slot order so
        a slot's writes are the contiguous rows ``[def_lo, def_hi)`` --
        the compute ufuncs write straight into the bank, eliminating
        the scatter pass.  A read of register ``r`` resolves statically
        to the def row of the most recent write before it in program
        order; with no earlier write it wraps to ``r``'s *final* def
        row, which still holds the previous word's value when the
        reader executes (the scheduler's WAR constraint places that
        final write at the reader's level or later, and a slot gathers
        all operands before writing any result) -- exactly the
        recurrent entry semantics.  A register never written anywhere
        in its program is zero at every word, so all such reads share
        the single always-zero row 0 (nothing ever writes it: defs,
        inputs, and constants own every other row).  External reads
        point at the input rows (refreshed per word) and constant
        immediates at one prefilled row per distinct value.  Plans are
        built once and reused by every document block.
        """
        n_registers = self.config.n_registers
        n_programs = population.n_programs
        lengths = population.lengths
        # Row-major flattening of every effective instruction, paired
        # with its program row and scheduled level.
        mask = np.arange(population.max_len)[None, :] < lengths[:, None]
        rows = np.repeat(np.arange(n_programs), lengths)
        modes = population.modes[mask]
        opcodes = population.opcodes[mask]
        dsts = population.dsts[mask]
        srcs = population.srcs[mask]
        levels = population.levels[mask]
        n_entries = len(rows)
        def_base = 1  # row 0 is the shared always-zero row
        # Def rows are numbered by (level, opcode) rank so every slot's
        # defs are contiguous and its opcode groups are runs.
        order = np.lexsort((opcodes, levels))
        def_row = np.empty(n_entries, dtype=np.int64)
        def_row[order] = def_base + np.arange(n_entries)
        # Static read resolution per (program, register), walking each
        # program in original instruction order.
        reg_key = (rows * n_registers + dsts).astype(np.int64)
        final_def = {}
        for i in range(n_entries):
            final_def[reg_key[i]] = def_row[i]
        prev_rows = np.empty(n_entries, dtype=np.int64)
        src_rows = np.empty(n_entries, dtype=np.int64)
        ext_base = def_base + n_entries
        const_base = ext_base + self.config.n_inputs
        const_vals, const_index = np.unique(
            srcs[modes == MODE_CONSTANT], return_inverse=True
        )
        running = {}
        mode_list = modes.tolist()
        src_list = srcs.tolist()
        key_list = reg_key.tolist()
        def_list = def_row.tolist()
        row_list = (rows * n_registers).tolist()
        const_iter = iter(const_index.tolist())
        for i in range(n_entries):
            key = key_list[i]
            # The entry itself writes ``key``, so ``final_def`` always
            # holds it: the destination read never hits the zero row.
            prev_rows[i] = running.get(key, final_def[key])
            mode = mode_list[i]
            if mode == MODE_INTERNAL:
                src_key = row_list[i] + src_list[i]
                src_rows[i] = running.get(
                    src_key, final_def.get(src_key, 0)
                )
            elif mode == MODE_EXTERNAL:
                src_rows[i] = ext_base + src_list[i]
            else:
                src_rows[i] = const_base + next(const_iter)
            running[key] = def_list[i]
        sorted_levels = levels[order]
        bounds = np.searchsorted(
            sorted_levels, np.arange(int(sorted_levels[-1]) + 2)
        )
        slots = [
            _Slot(opcodes[order[lo:hi]], prev_rows[order[lo:hi]],
                  src_rows[order[lo:hi]], def_base + lo)
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        # Output row per program: final def of the output register, or
        # the shared zero row if never written.
        out_reg = self.config.output_register
        out_rows = np.array(
            [
                final_def.get(p * n_registers + out_reg, 0)
                for p in range(n_programs)
            ],
            dtype=np.int64,
        )
        return _SweepPlan(
            slots, const_vals.astype(np.float64), out_rows,
            def_base + n_entries + self.config.n_inputs + len(const_vals),
        )

    def _sweep(
        self,
        population: PackedPrograms,
        packed: PackedSequences,
        plan: Optional["_SweepPlan"],
        words: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Time-axis sweep; finals in the packed (sorted x sorted) order.

        With ``words`` (``(n_programs, n_docs, max_len)``, zeroed, same
        order) the output row is also snapshotted after every word.
        """
        n_programs = population.n_programs
        n_docs = len(packed)
        finals = np.zeros((n_programs, n_docs))
        if n_docs == 0 or population.max_len == 0 or plan is None:
            return finals
        block = self._block_size(plan.n_rows)
        for start in range(0, n_docs, block):
            self._metrics["block_sweeps"].inc()
            self._sweep_block(
                packed, plan, start, min(start + block, n_docs), finals, words
            )
        return finals

    def _sweep_block(
        self,
        packed: PackedSequences,
        plan: "_SweepPlan",
        start: int,
        stop: int,
        finals: np.ndarray,
        words: Optional[np.ndarray],
    ) -> None:
        """Sweep packed documents ``[start, stop)`` into ``finals``
        (and, when given, every word's output into ``words``).

        Documents are sorted by decreasing length, so the block's active
        set at step ``t`` is ``[start, min(stop, active_counts[t]))`` --
        a prefix of the block, exactly like the unblocked sweep.  A word
        step copies the word's inputs into the bank and runs the tape
        (:func:`_bind_tape`) bound over the bank.  The bank narrows along
        a halving ladder: once the active prefix is at most half its
        width, the live prefix is copied into a contiguous bank that
        wide and the tape rebound, so columns of ended documents compute
        at most as many values (nobody reads them) as live ones, and a
        block binds at most ``log2(width) + 1`` times.  Per-document
        state lives in the bank's columns, so neither blocking nor
        narrowing can change any output.
        """
        n_inputs = self.config.n_inputs
        ext_lo = plan.n_rows - len(plan.const_vals) - n_inputs
        counts = np.clip(packed.active_counts - start, 0, stop - start).tolist()
        width = counts[0]
        if not width:
            return
        bank = np.zeros((plan.n_rows, width))
        # Constant rows are valid at any width and survive narrowing.
        bank[ext_lo + n_inputs :] = plan.const_vals[:, None]
        pairs = np.empty(plan.pair_rows * width)
        magnitudes = np.empty(plan.div_rows * width)
        tiny = np.empty(plan.div_rows * width, dtype=bool)
        # ``inputs[t]`` is word ``t`` of every document, one row per input.
        inputs = packed.inputs[start:stop].transpose(1, 2, 0)
        tape = _bind_tape(plan, bank, pairs, magnitudes, tiny)
        for t, n_active in enumerate(counts):
            if not n_active:
                break
            if 2 * n_active <= width:
                width = n_active
                bank = bank[:, :width].copy()
                tape = _bind_tape(plan, bank, pairs, magnitudes, tiny)
            bank[ext_lo : ext_lo + n_inputs] = inputs[t, :, :width]
            for call, args in tape:
                call(*args)
            if words is not None:
                words[:, start : start + n_active, t] = bank[
                    plan.out_rows, :n_active
                ]
            # Documents ending at step t occupy a suffix of the active
            # prefix (lengths sorted descending): snapshot each
            # program's output row for them.
            still_active = counts[t + 1] if t + 1 < len(counts) else 0
            if still_active < n_active:
                finals[:, start + still_active : start + n_active] = bank[
                    plan.out_rows, still_active:n_active
                ]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _count(
        self,
        programs: List[Program],
        unique: List[Program],
        packed: PackedSequences,
    ) -> None:
        """``programs``/``documents`` count requested (logical) work;
        ``instructions`` counts what actually executes after dedup."""
        n_docs = len(packed)
        total_words = int(packed.active_counts.sum()) if n_docs else 0
        executed = sum(len(p.effective_fields()[0]) for p in unique)
        self._metrics["batches"].inc()
        self._metrics["programs"].inc(len(programs))
        self._metrics["documents"].inc(len(programs) * n_docs)
        # Every swept program executes its effective stream once per
        # word of every document still active at that word, so the
        # product counts the instructions executed on active documents
        # (the ladder's columns of ended documents are not counted).
        self._metrics["instructions"].inc(executed * total_words)
