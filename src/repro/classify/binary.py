"""A trained binary RLGP classifier for one category."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.classify.threshold import median_threshold
from repro.encoding.representation import EncodedDataset, EncodedDocument
from repro.gp.config import GpConfig
from repro.gp.engine import FusedEngine
from repro.gp.fitness import squash_output
from repro.gp.program import Program
from repro.gp.recurrent import final_words
from repro.gp.trainer import EvolutionResult, RlgpTrainer


@dataclass
class RlgpBinaryClassifier:
    """An evolved rule plus its Eq. 6 decision threshold.

    Attributes:
        category: the target category.
        program: the evolved linear program.
        config: the GP configuration the program runs under.
        threshold: Eq. 6 threshold on the squashed output.
        train_fitness: SSE of ``program`` on its training set.
        recurrent: whether ``program`` was evolved recurrently.  A
            non-recurrent program is read on each document's final word
            only (:func:`~repro.gp.recurrent.final_words`), exactly as
            evolution scored it.

    Each classifier owns one :class:`~repro.gp.engine.FusedEngine`, so
    its program is planned once, not once per call.  The engine is safe
    to share between threads and is rebuilt, not pickled, when the
    classifier crosses a process boundary (it holds locks).
    """

    category: str
    program: Program
    config: GpConfig
    threshold: float
    train_fitness: float = float("nan")
    recurrent: bool = True

    def __post_init__(self) -> None:
        self._engine = FusedEngine(self.config)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_engine"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._engine = FusedEngine(self.config)

    @classmethod
    def fit(
        cls,
        dataset: EncodedDataset,
        trainer: RlgpTrainer,
        n_restarts: int = 1,
        base_seed: Optional[int] = None,
        ctx=None,
    ) -> "RlgpBinaryClassifier":
        """Evolve a rule (best of ``n_restarts`` runs) and fit the threshold.

        Args:
            ctx: optional :class:`~repro.runtime.context.RunContext`
                threaded into the trainer (progress events, seed-tree
                restart seeds) and used to emit ``classifier_fitted``.
        """
        if n_restarts == 1:
            result: EvolutionResult = trainer.train(dataset, seed=base_seed, ctx=ctx)
        else:
            result = trainer.train_with_restarts(
                dataset, n_restarts=n_restarts, base_seed=base_seed, ctx=ctx
            )
        classifier = cls(
            category=dataset.category,
            program=result.program,
            config=trainer.config,
            threshold=0.0,
            train_fitness=result.train_fitness,
            recurrent=trainer.recurrent,
        )
        outputs = classifier.decision_values(dataset.sequences)
        classifier.threshold = median_threshold(outputs, dataset.labels)
        if ctx is not None:
            ctx.emit(
                "classifier_fitted",
                category=dataset.category,
                threshold=float(classifier.threshold),
                train_fitness=float(classifier.train_fitness),
                n_restarts=n_restarts,
            )
        return classifier

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def decision_values(self, sequences: Sequence[np.ndarray]) -> np.ndarray:
        """Squashed (Eq. 4) final outputs for each sequence.

        Inference traffic ticks the shared engine counters (visible on
        the serving layer's ``/metrics``).
        """
        if not self.recurrent:
            sequences = final_words(sequences)
        packed = self._engine.pack(list(sequences))
        return squash_output(self._engine.outputs([self.program], packed)[0])

    def word_values(self, sequences: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Raw output after every word of each sequence (paper Sec. 8.2).

        The rule is read after each word the way :meth:`decision_values`
        reads it after the last one: a recurrent rule's value after word
        ``t`` is its output register after word ``t``; a non-recurrent
        rule reads word ``t`` alone (the final word of the prefix ending
        at ``t``, see :func:`~repro.gp.recurrent.final_words`), so every
        word is scored as a one-word document.
        Squashed, each sequence's last value is its decision value; an
        empty sequence yields an empty array.
        """
        sequences = list(sequences)
        if self.recurrent:
            packed = self._engine.pack(sequences)
            return self._engine.word_outputs([self.program], packed)[0]
        lengths = [len(sequence) for sequence in sequences]
        words = [
            word[None] for sequence in sequences for word in np.asarray(sequence)
        ]
        raw = self._engine.outputs([self.program], self._engine.pack(words))[0]
        ends = np.cumsum(lengths, dtype=np.int64)
        return [raw[end - length : end] for end, length in zip(ends, lengths)]

    def predict(self, dataset: EncodedDataset) -> np.ndarray:
        """+/-1 prediction per document via the Eq. 6 threshold."""
        values = self.decision_values(dataset.sequences)
        return np.where(values > self.threshold, 1, -1)

    def predict_document(self, doc: EncodedDocument) -> int:
        """+/-1 prediction for a single encoded document."""
        value = float(self.decision_values([doc.sequence])[0])
        return 1 if value > self.threshold else -1

    def rule_listing(self) -> List[str]:
        """The evolved rule in the paper's disassembly style."""
        return self.program.disassemble()
