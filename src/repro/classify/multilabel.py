"""One-vs-rest multi-label classification (paper Sec. 8.1).

Every document runs through all category classifiers in parallel; each
in-class decision contributes that category to the predicted label set, so
multi-labelled documents are identified naturally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro.classify.binary import RlgpBinaryClassifier
from repro.encoding.representation import EncodedDocument


@dataclass
class OneVsRestRlgp:
    """A suite of per-category binary classifiers.

    Attributes:
        classifiers: category -> trained binary classifier.
    """

    classifiers: Dict[str, RlgpBinaryClassifier] = field(default_factory=dict)

    def add(self, classifier: RlgpBinaryClassifier) -> None:
        """Register a category's classifier."""
        self.classifiers[classifier.category] = classifier

    @property
    def categories(self) -> Tuple[str, ...]:
        return tuple(self.classifiers)

    def predict_topics(
        self, encoded_by_category: Mapping[str, EncodedDocument]
    ) -> List[str]:
        """Predicted label set for one document.

        Args:
            encoded_by_category: the document encoded against each
                category's word SOM (each category sees its own
                representation of the same document).
        """
        topics = []
        for category, classifier in self.classifiers.items():
            encoded = encoded_by_category.get(category)
            if encoded is None:
                continue
            if classifier.predict_document(encoded) > 0:
                topics.append(category)
        return topics

    def decision_values(
        self, encoded_by_category: Mapping[str, EncodedDocument]
    ) -> Dict[str, float]:
        """Per-category squashed decision value for one document."""
        values = {}
        for category, classifier in self.classifiers.items():
            encoded = encoded_by_category.get(category)
            if encoded is None:
                continue
            values[category] = float(
                classifier.decision_values([encoded.sequence])[0]
            )
        return values
