"""Document categorisation on the temporal representation (paper Sec. 7.4, 8).

One binary RLGP classifier per category; a one-vs-rest suite for
multi-label prediction; and the word-tracking analysis of Sec. 8.2, whose
per-word traces come from the classifier's own reading of its rule
(:meth:`RlgpBinaryClassifier.word_values`).
"""

from repro.classify.binary import RlgpBinaryClassifier
from repro.classify.multilabel import OneVsRestRlgp
from repro.classify.threshold import median_threshold
from repro.classify.tracking import TrackingTrace, track_document, track_multi_label

__all__ = [
    "RlgpBinaryClassifier",
    "OneVsRestRlgp",
    "median_threshold",
    "TrackingTrace",
    "track_document",
    "track_multi_label",
]
