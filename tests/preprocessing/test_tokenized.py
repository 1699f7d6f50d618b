"""Unit tests for the cached TokenizedCorpus wrapper."""

from dataclasses import replace

from repro.preprocessing.tokenized import TokenizedCorpus


def test_tokens_cached_by_identity(corpus):
    tokenized = TokenizedCorpus(corpus)
    doc = corpus.train_documents[0]
    first = tokenized.tokens(doc)
    assert tokenized.tokens(doc) is first


def test_new_documents_are_tokenized_from_their_own_text(corpus):
    """Only the corpus's own documents are cached: a new document is
    tokenized from its own text even when it reuses a corpus id, and
    it does not grow the cache."""
    tokenized = TokenizedCorpus(corpus)
    doc = corpus.train_documents[0]
    tokenized.tokens(doc)
    impostor = replace(doc, title="", body="wheat grain tonnes harvest")
    assert tokenized.tokens(impostor) == \
        tokenized.preprocessor.document_tokens(impostor)
    newcomer = replace(
        impostor, doc_id=max(d.doc_id for d in corpus.documents) + 1
    )
    tokenized.tokens(newcomer)
    assert set(tokenized._cache) == {doc.doc_id}


def test_tokens_match_preprocessor(corpus):
    tokenized = TokenizedCorpus(corpus)
    doc = corpus.train_documents[0]
    assert tokenized.tokens(doc) == tokenized.preprocessor.document_tokens(doc)


def test_train_tokens_for_category(corpus):
    tokenized = TokenizedCorpus(corpus)
    streams = tokenized.train_tokens_for("earn")
    assert len(streams) == len(corpus.train_for("earn"))
    assert all(isinstance(s, list) for s in streams)


def test_passthrough_properties(corpus):
    tokenized = TokenizedCorpus(corpus)
    assert tokenized.categories == corpus.categories
    assert tokenized.train_documents == corpus.train_documents
    assert tokenized.test_documents == corpus.test_documents
