"""Recurrent (RLGP) program evaluation over document sequences.

The recurrent semantics (paper Sec. 7.2): registers start at zero for a
document, the whole program executes once per word, registers are *never*
reset between words, and the prediction is the output register after the
last word.  A document with no encoded words yields the initial register
value (0).

:class:`PackedSequences` is the padded, length-sorted document batch every
evaluator consumes.  :class:`RecurrentEvaluator` is the reference: it runs
:meth:`~repro.gp.program.Program.run_sequence` one document at a time.
The production evaluator is :class:`~repro.gp.engine.FusedEngine`, which
is bit-identical to it (differential-tested in the suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.gp.config import GpConfig
from repro.gp.program import Program


@dataclass(frozen=True)
class PackedSequences:
    """Documents padded into one array, sorted by decreasing length.

    Attributes:
        inputs: ``(n_docs, max_len, n_inputs)`` padded inputs, sorted.
        lengths: per-document lengths, sorted to match ``inputs``.
        order: original index of each sorted row (``inputs[i]`` is the
            document originally at position ``order[i]``).
        active_counts: ``active_counts[t]`` = number of documents with at
            least ``t + 1`` words (a prefix of the sorted batch).
    """

    inputs: np.ndarray
    lengths: np.ndarray
    order: np.ndarray
    active_counts: np.ndarray

    @classmethod
    def from_sequences(
        cls, sequences: Sequence[np.ndarray], n_inputs: int
    ) -> "PackedSequences":
        """Pack a list of ``(T_i, n_inputs)`` arrays."""
        lengths = np.array([len(s) for s in sequences], dtype=np.int64)
        order = np.argsort(-lengths, kind="stable")
        max_len = int(lengths.max()) if len(lengths) and lengths.max() > 0 else 1
        inputs = np.zeros((len(sequences), max_len, n_inputs))
        for row, original in enumerate(order):
            seq = np.asarray(sequences[original], dtype=float).reshape(-1, n_inputs)
            if len(seq):
                inputs[row, : len(seq)] = seq
        sorted_lengths = lengths[order]
        steps = np.arange(max_len)
        active_counts = np.searchsorted(-sorted_lengths, -(steps + 1), side="right")
        return cls(
            inputs=inputs,
            lengths=sorted_lengths,
            order=order,
            active_counts=active_counts,
        )

    def __len__(self) -> int:
        return len(self.lengths)

    def subset(self, indices: Sequence[int]) -> "PackedSequences":
        """Pack a subset (indices refer to the *original* ordering).

        Pure numpy row selection: the rows are already sorted by
        decreasing length, so taking them in ascending row order
        preserves the packing invariant without rebuilding Python lists
        or re-packing from scratch.
        """
        n_docs = len(self.lengths)
        row_of = np.empty(n_docs, dtype=np.int64)
        row_of[self.order] = np.arange(n_docs)
        wanted = np.asarray(list(indices), dtype=np.int64)
        # np.unique deduplicates *and* returns ascending row order.
        rows = np.unique(row_of[wanted]) if len(wanted) else wanted
        lengths = self.lengths[rows]
        max_len = int(lengths.max()) if len(lengths) and lengths.max() > 0 else 1
        inputs = self.inputs[rows][:, :max_len, :]
        steps = np.arange(max_len)
        active_counts = np.searchsorted(-lengths, -(steps + 1), side="right")
        return PackedSequences(
            inputs=inputs,
            lengths=lengths,
            order=self.order[rows],
            active_counts=active_counts,
        )

    def unpack(self) -> List[np.ndarray]:
        """The sequences in *original* order, padding stripped."""
        sequences: List[np.ndarray] = [np.zeros((0, self.inputs.shape[2]))] * len(self)
        for row, original in enumerate(self.order):
            sequences[int(original)] = self.inputs[row, : self.lengths[row]]
        return sequences


class RecurrentEvaluator:
    """The reference evaluator: :meth:`Program.run_sequence` per document.

    Slow and obviously correct.  The fused engine
    (:class:`~repro.gp.engine.FusedEngine`) is the only production
    evaluator; tests score programs through this class to check it.
    """

    def __init__(self, config: GpConfig) -> None:
        self.config = config

    def pack(self, sequences: Sequence[np.ndarray]) -> PackedSequences:
        """Pad and sort sequences for batch evaluation."""
        return PackedSequences.from_sequences(sequences, self.config.n_inputs)

    def outputs(self, program: Program, packed: PackedSequences) -> np.ndarray:
        """Raw output-register value per document, in *original* order."""
        out_reg = self.config.output_register
        return np.array(
            [program.run_sequence(seq)[out_reg] for seq in packed.unpack()],
            dtype=float,
        )


def final_words(sequences: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Each document cut to its last word.

    A non-recurrent program (the ablation whose registers reset before
    every word) reads nothing but the final word, so evaluating these
    one-word documents gives exactly its outputs.  Empty documents stay
    empty and output 0.  The trainer and the classifier both evaluate
    a non-recurrent program through this one helper.
    """
    return [np.asarray(sequence)[-1:] for sequence in sequences]
