"""Word tracking and context-change analysis (paper Sec. 8.2).

The output register is read after *every* word, not only the last one:
rising values mean the context is moving toward the category (in class),
falling values away from it.  Figures 5 and 6 of the paper plot exactly
these traces.

Traces come from :meth:`RlgpBinaryClassifier.word_values`, which reads a
rule after each word the way its decision value reads it after the last
one, so a trace always ends on the document's decision value.  A
recurrent rule's value after word ``t`` is its output register after
word ``t``; a non-recurrent rule (registers reset before every word)
reads word ``t`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.classify.binary import RlgpBinaryClassifier
from repro.encoding.representation import EncodedDocument
from repro.gp.fitness import squash_output


@dataclass(frozen=True)
class TrackingTrace:
    """The per-word trajectory of one classifier over one document.

    Attributes:
        category: the tracking classifier's category.
        words: encoded words, in document order.
        positions: each word's index in the document's token stream
            (:attr:`EncodedDocument.positions`).
        raw: raw output-register value after each word.
        squashed: Eq. 4 projection of ``raw`` into [-1, 1].
        in_class_flags: per word, whether the squashed value clears the
            classifier's threshold (the paper's "underlined words").
        threshold: the classifier's Eq. 6 threshold.
    """

    category: str
    words: Tuple[str, ...]
    positions: Tuple[int, ...]
    raw: np.ndarray
    squashed: np.ndarray
    in_class_flags: np.ndarray
    threshold: float

    def __len__(self) -> int:
        return len(self.words)

    @property
    def in_class_words(self) -> List[str]:
        """Words at which the classifier reads in-class (Fig. 6 underlines)."""
        return [w for w, flag in zip(self.words, self.in_class_flags) if flag]

    @property
    def context_changes(self) -> List[int]:
        """Word indices where the in/out decision flips (context shifts)."""
        flags = self.in_class_flags
        return [i for i in range(1, len(flags)) if flags[i] != flags[i - 1]]

    @property
    def direction(self) -> np.ndarray:
        """Per-word movement: +1 toward in class, -1 away, 0 flat."""
        if len(self.squashed) < 2:
            return np.zeros(len(self.squashed))
        deltas = np.diff(self.squashed, prepend=self.squashed[0])
        return np.sign(deltas)


def track_document(
    classifier: RlgpBinaryClassifier, encoded: EncodedDocument
) -> TrackingTrace:
    """Trace one classifier over one encoded document (paper Fig. 5)."""
    raw = classifier.word_values([encoded.sequence])[0]
    squashed = squash_output(raw)
    return TrackingTrace(
        category=classifier.category,
        words=encoded.words,
        positions=encoded.positions,
        raw=raw,
        squashed=squashed,
        in_class_flags=squashed > classifier.threshold,
        threshold=classifier.threshold,
    )


def track_multi_label(
    classifiers: Mapping[str, RlgpBinaryClassifier],
    encoded_by_category: Mapping[str, EncodedDocument],
) -> Dict[str, TrackingTrace]:
    """Trace several classifiers in parallel over one document (Fig. 6)."""
    traces = {}
    for category, classifier in classifiers.items():
        encoded = encoded_by_category.get(category)
        if encoded is not None:
            traces[category] = track_document(classifier, encoded)
    return traces
