"""Reference answers the benchmark checks the program's outputs against.

Every decision value is recomputed with the interpreted reference
``Program.run_sequence`` over a freshly tokenized and encoded document
(``Preprocessor.document_tokens`` -> ``FeatureSet.filter_tokens_with_positions``
-> ``CategoryEncoder.encode``).  ``ProSysPipeline.decision_matrix`` and
``predict_documents`` are deliberately not used: their tokens come from a
cache keyed by ``doc_id``, so a request whose id equals a corpus id would
be scored on the wrong tokens.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from typing import Dict, List, Sequence

import numpy as np

from repro.gp.fitness import squash_output

#: The pipeline forked oracle processes score against (set while forking).
_SHARED = None


def fresh_sequences(pipeline, documents: Sequence,
                    category: str) -> List[np.ndarray]:
    """Each document's encoded sequence for ``category``, from fresh
    tokens (never the ``doc_id``-keyed token cache)."""
    preprocessor = pipeline.tokenized.preprocessor
    encoder = pipeline.encoder.encoder_for(category)
    sequences = []
    for doc in documents:
        indexed = pipeline.feature_set.filter_tokens_with_positions(
            preprocessor.document_tokens(doc), category
        )
        sequences.append(encoder.encode(
            doc.doc_id,
            [word for _, word in indexed],
            positions=[index for index, _ in indexed],
            max_words=pipeline.encoder.max_sequence_length,
        ).sequence)
    return sequences


def reference_values(pipeline, documents: Sequence) -> Dict[str, np.ndarray]:
    """Category -> reference squashed decision value per document."""
    values: Dict[str, np.ndarray] = {}
    for category, classifier in pipeline.suite.classifiers.items():
        output = classifier.config.output_register
        raw = [classifier.program.run_sequence(sequence)[output]
               for sequence in fresh_sequences(pipeline, documents, category)]
        values[category] = squash_output(np.asarray(raw, dtype=float))
    return values


def _shared_values(documents) -> Dict[str, np.ndarray]:
    return reference_values(_SHARED, documents)


def reference_values_parallel(pipeline, documents: Sequence,
                              processes: int = 2) -> Dict[str, np.ndarray]:
    """:func:`reference_values` split over forked processes (the reference
    interpreter is slow; call with no other threads running)."""
    global _SHARED
    chunks = [list(documents[start::processes]) for start in range(processes)]
    _SHARED = pipeline
    try:
        with ProcessPoolExecutor(processes,
                                 mp_context=get_context("fork")) as pool:
            parts = list(pool.map(_shared_values, chunks))
    finally:
        _SHARED = None
    values = {}
    for category in parts[0]:
        column = np.empty(len(documents))
        for start, part in enumerate(parts):
            column[start::processes] = part[category]
        values[category] = column
    return values


def reference_topics(pipeline, values: Dict[str, np.ndarray],
                     index: int) -> List[str]:
    """Topics of document ``index`` under the Eq. 6 thresholds, in the
    suite's category order (the order the service answers in)."""
    return [
        category
        for category, classifier in pipeline.suite.classifiers.items()
        if values[category][index] > classifier.threshold
    ]


def response_matches(pipeline, values: Dict[str, np.ndarray], index: int,
                     result: dict) -> bool:
    """Whether one served result equals the reference, bit for bit."""
    served = result.get("decision_values")
    if not isinstance(served, dict) or set(served) != set(values):
        return False
    for category, reference in values.items():
        if float(served[category]) != float(reference[index]):
            return False
    return result.get("topics") == reference_topics(pipeline, values, index)


def macro_f1(categories: Sequence[str], documents: Sequence,
             predicted: Sequence[Sequence[str]]) -> float:
    """Macro-averaged F1 of ``predicted[i]`` (topics) against the labels
    of ``documents[i]`` (F1 = 0 for a category never present nor
    predicted, as in ``repro.evaluation.metrics.f1_score``)."""
    scores = []
    for category in categories:
        hits = [category in topics for topics in predicted]
        actual = [doc.has_topic(category) for doc in documents]
        true_pos = sum(h and a for h, a in zip(hits, actual))
        denominator = sum(hits) + sum(actual)
        scores.append(2.0 * true_pos / denominator if denominator else 0.0)
    return float(np.mean(scores))


def champion_bytes(pipeline) -> bytes:
    """Canonical bytes of every champion: code, threshold, fitness."""
    parts = []
    for category, classifier in sorted(pipeline.suite.classifiers.items()):
        parts.append(category.encode())
        parts.append(np.asarray(classifier.program.code, dtype=np.int64)
                     .tobytes())
        parts.append(np.float64(classifier.threshold).tobytes())
        parts.append(np.float64(classifier.train_fitness).tobytes())
    return b"\x00".join(parts)
