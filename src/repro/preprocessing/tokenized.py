"""Cached tokenisation of a whole corpus.

Feature selection, SOM training and classification all need the ordered
token lists of every document; this wrapper computes them once.  Only
the wrapped corpus's own documents are cached: a new document is read
from its own text, whatever its id.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.corpus.document import Document
from repro.corpus.reuters import Corpus
from repro.preprocessing.pipeline import Preprocessor


@dataclass
class TokenizedCorpus:
    """A corpus plus the ordered tokens of each document.

    Attributes:
        corpus: the underlying document collection.
        preprocessor: the pipeline used to produce the tokens.
    """

    corpus: Corpus
    preprocessor: Preprocessor = field(default_factory=Preprocessor)
    _cache: Dict[int, List[str]] = field(default_factory=dict, repr=False)
    _fingerprints: Dict[str, str] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._members: Dict[int, Document] = {
            doc.doc_id: doc for doc in self.corpus.documents
        }

    def tokens(self, doc: Document) -> List[str]:
        """Ordered tokens of ``doc``.

        A document of the wrapped corpus is tokenized once and cached by
        doc_id.  Any other document -- a new one may reuse a corpus
        document's id -- is tokenized from its own text and not cached.
        """
        if self._members.get(doc.doc_id) is not doc:
            return self.preprocessor.document_tokens(doc)
        cached = self._cache.get(doc.doc_id)
        if cached is None:
            cached = self.preprocessor.document_tokens(doc)
            self._cache[doc.doc_id] = cached
        return cached

    @property
    def categories(self) -> Tuple[str, ...]:
        return self.corpus.categories

    @property
    def train_documents(self) -> Tuple[Document, ...]:
        return self.corpus.train_documents

    @property
    def test_documents(self) -> Tuple[Document, ...]:
        return self.corpus.test_documents

    def train_tokens_for(self, category: str) -> List[List[str]]:
        """Token lists of the training documents labelled ``category``."""
        return [self.tokens(d) for d in self.corpus.train_for(category)]

    def fingerprint(self, split: str) -> str:
        """Content digest of one split *as the encoders see it*.

        Covers every document's id, topics and exact post-preprocessing
        token stream, in split order -- so the digest changes whenever
        the documents, their labels, their order, or the preprocessing
        itself changes, and is stable across runs otherwise.  Cached:
        computing it tokenises the split once (work the pipeline needs
        anyway).
        """
        cached = self._fingerprints.get(split)
        if cached is not None:
            return cached
        if split == "train":
            documents = self.train_documents
        elif split == "test":
            documents = self.test_documents
        else:
            raise ValueError(f"unknown split {split!r}")
        digest = hashlib.blake2b(digest_size=16)
        for doc in documents:
            digest.update(str(doc.doc_id).encode("utf-8"))
            digest.update(b"\x00")
            for topic in doc.topics:
                digest.update(topic.encode("utf-8"))
                digest.update(b"\x01")
            for token in self.tokens(doc):
                digest.update(token.encode("utf-8"))
                digest.update(b"\x02")
            digest.update(b"\x03")
        fingerprint = digest.hexdigest()
        self._fingerprints[split] = fingerprint
        return fingerprint
