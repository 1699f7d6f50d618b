"""Topic Detection and Tracking on word-tracking traces (paper Sec. 9).

The paper closes by proposing its word-tracking mechanism for Topic
Detection and Tracking.  This module implements that next step on top of a
fitted :class:`~repro.pipeline.ProSysPipeline`:

* **segmentation** -- paint each original token position with the
  categories whose classifier reads in class there, smooth, and cut the
  document into topic segments (the structure underlying Fig. 6);
* **first-story detection** -- a document claimed by no classifier is
  novel relative to the trained topic inventory.

Per-category traces live on *different* encoded subsequences (each
category's feature selection and BMU filtering keeps different words);
alignment uses :attr:`EncodedDocument.positions`, the surviving words'
indices in the shared token stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.corpus.document import Document
from repro.pipeline import ProSysPipeline


@dataclass(frozen=True)
class TopicSegment:
    """A maximal run of token positions dominated by one topic.

    Attributes:
        start / end: token-position range, inclusive/exclusive over the
            pre-processed token stream.
        topic: dominating category, or None for a stretch no classifier
            claims.
        score: mean in-class vote share of the dominating topic.
    """

    start: int
    end: int
    topic: Optional[str]
    score: float

    def __len__(self) -> int:
        return self.end - self.start


class TopicTracker:
    """Segments documents and flags novel stories using a fitted pipeline.

    Args:
        pipeline: a fitted :class:`ProSysPipeline`.
        smoothing: half-width of the moving-average window applied to each
            category's in-class signal before segmentation.
    """

    def __init__(self, pipeline: ProSysPipeline, smoothing: int = 2) -> None:
        if not pipeline.is_fitted:
            raise ValueError("TopicTracker needs a fitted pipeline")
        if smoothing < 0:
            raise ValueError("smoothing must be non-negative")
        self.pipeline = pipeline
        self.smoothing = smoothing

    # ------------------------------------------------------------------
    # signal construction
    # ------------------------------------------------------------------
    def category_signals(self, doc: Document) -> Tuple[Dict[str, np.ndarray], int]:
        """Per-category in-class signal over the shared token axis.

        Returns:
            ``(signals, n_tokens)`` where each signal is a float array of
            length ``n_tokens``: 1.0 where that category's classifier read
            in class at (or, carried forward, after) an encoded word.
        """
        n_tokens = len(self.pipeline.tokenized.tokens(doc))
        signals: Dict[str, np.ndarray] = {}
        for category, trace in self.pipeline.track_all(doc).items():
            signal = np.zeros(max(n_tokens, 1))
            positions = trace.positions
            # Carry each decision forward until the next encoded word: a
            # dropped token never reaches the rule, so the reading after
            # the last encoded word stands over the whole gap.
            for index in range(len(trace)):
                start = positions[index]
                end = positions[index + 1] if index + 1 < len(trace) else n_tokens
                if trace.in_class_flags[index]:
                    signal[start:end] = 1.0
            signals[category] = self._smooth(signal)
        return signals, n_tokens

    def _smooth(self, signal: np.ndarray) -> np.ndarray:
        if self.smoothing == 0 or len(signal) == 0:
            return signal
        width = 2 * self.smoothing + 1
        kernel = np.ones(width) / width
        return np.convolve(signal, kernel, mode="same")

    # ------------------------------------------------------------------
    # segmentation
    # ------------------------------------------------------------------
    def segment(self, doc: Document, min_score: float = 0.34) -> List[TopicSegment]:
        """Cut a document into topic segments.

        Args:
            doc: the document to segment.
            min_score: smoothed vote share below which no topic is
                assigned (the segment becomes topic ``None``).
        """
        signals, n_tokens = self.category_signals(doc)
        if n_tokens == 0:
            return []
        categories = list(signals)
        stacked = np.stack([signals[c] for c in categories])  # (C, T)

        winners: List[Optional[str]] = []
        scores: List[float] = []
        for position in range(n_tokens):
            best = int(np.argmax(stacked[:, position]))
            score = float(stacked[best, position])
            winners.append(categories[best] if score >= min_score else None)
            scores.append(score)

        segments: List[TopicSegment] = []
        start = 0
        for position in range(1, n_tokens + 1):
            if position == n_tokens or winners[position] != winners[start]:
                segment_scores = scores[start:position]
                segments.append(
                    TopicSegment(
                        start=start,
                        end=position,
                        topic=winners[start],
                        score=float(np.mean(segment_scores)),
                    )
                )
                start = position
        return segments

    def topics_present(self, doc: Document, min_tokens: int = 2) -> List[str]:
        """Topics that dominate at least ``min_tokens`` positions."""
        counts: Dict[str, int] = {}
        for segment in self.segment(doc):
            if segment.topic is not None:
                counts[segment.topic] = counts.get(segment.topic, 0) + len(segment)
        return sorted(
            (t for t, n in counts.items() if n >= min_tokens),
            key=lambda t: -counts[t],
        )

    # ------------------------------------------------------------------
    # first-story detection
    # ------------------------------------------------------------------
    def is_novel(self, doc: Document) -> bool:
        """True when no trained classifier claims the document.

        In TDT terms: the story matches none of the known topics and
        should seed a new cluster.
        """
        return not self.pipeline.predict_topics(doc)

    def detect_first_stories(self, documents) -> List[Document]:
        """The subset of ``documents`` flagged as novel, in stream order."""
        return [doc for doc in documents if self.is_novel(doc)]
