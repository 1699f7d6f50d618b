"""Shared fixtures: one small corpus and one fitted encoder per session.

Everything expensive is session-scoped so the suite stays fast; tests must
therefore not mutate these fixtures.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.corpus import make_corpus
from repro.data.shards import file_checksum
from repro.encoding import HierarchicalSomEncoder
from repro.features import MutualInformationSelector
from repro.gp.config import GpConfig
from repro.gp.recurrent import PackedSequences, split_rows
from repro.gp.trainer import RlgpTrainer
from repro.preprocessing.tokenized import TokenizedCorpus

#: Categories exercised by the shared encoder (keeps fitting cheap).
FIT_CATEGORIES = ("earn", "grain", "trade")


@pytest.fixture(scope="session")
def corpus():
    """A small but fully populated synthetic corpus."""
    return make_corpus(scale=0.02, seed=7)


@pytest.fixture(scope="session")
def tokenized(corpus):
    return TokenizedCorpus(corpus)


@pytest.fixture(scope="session")
def mi_features(tokenized):
    """Mutual-information feature set (60 per category, scaled-down)."""
    return MutualInformationSelector(60).select(tokenized)


@pytest.fixture(scope="session")
def encoder(tokenized, mi_features):
    """A fitted hierarchical SOM encoder over three categories."""
    return HierarchicalSomEncoder(epochs=8, seed=1).fit(
        tokenized, mi_features, categories=FIT_CATEGORIES
    )


@pytest.fixture(scope="session")
def earn_train(encoder, tokenized, mi_features):
    return encoder.encode_dataset(tokenized, mi_features, "earn", "train")


@pytest.fixture(scope="session")
def earn_test(encoder, tokenized, mi_features):
    return encoder.encode_dataset(tokenized, mi_features, "earn", "test")


@pytest.fixture(scope="session")
def small_config():
    """A tiny GP budget for fast evolution tests."""
    return GpConfig().small(tournaments=120, seed=3)


@pytest.fixture(scope="session")
def earn_result(earn_train, small_config):
    """One completed evolution run on the earn problem."""
    return RlgpTrainer(small_config).train(earn_train, seed=5)


@pytest.fixture(scope="session")
def rewrite_in_format_1():
    """Turns a sealed store dataset into the store's format 1, in which
    every shard held the padded, length-sorted ``PackedSequences`` array
    (lengths sorted, ``order`` mapping rows back, ``max_len`` columns)."""

    def rewrite(directory):
        index_path = directory / "index.json"
        index = json.loads(index_path.read_text())
        for entry in index["shards"]:
            path = directory / entry["name"]
            rows = np.fromfile(path, dtype="<f8").reshape(-1, 2)
            packed = PackedSequences.from_sequences(
                split_rows(rows, entry["lengths"]), 2
            )
            packed.inputs.tofile(path)
            entry.update(
                max_len=int(packed.inputs.shape[1]),
                order=packed.order.tolist(),
                lengths=packed.lengths.tolist(),
                nbytes=int(packed.inputs.nbytes),
                checksum=file_checksum(path),
            )
        index.update(format_version=1, n_inputs=2)
        index_path.write_text(json.dumps(index))

    return rewrite
