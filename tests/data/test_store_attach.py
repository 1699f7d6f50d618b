"""The store read path from a reader's side: a second ``DatasetStore``
on the same root opens what another one sealed, and nothing else."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import DatasetStore
from repro.data.store import dataset_path
from repro.errors import PersistenceError
from repro.serve.metrics import MetricsRegistry


@pytest.fixture()
def store(tmp_path):
    return DatasetStore(tmp_path / "store", metrics=MetricsRegistry())


def _reader(store):
    """A store constructed later on the same root (its tmp sweep included)."""
    return DatasetStore(store.root, metrics=MetricsRegistry())


def _items(n, offset=0):
    rng = np.random.default_rng(11 + offset)
    return [
        (offset + index, 1, rng.random((4 + index, 2)), f"fp-{offset + index}")
        for index in range(n)
    ]


def test_dataset_path_validates_keys(tmp_path):
    assert dataset_path(tmp_path, "abcd1234").parent.name == "ab"
    for bad in ("", "a/b", "a\\b", "a.b"):
        with pytest.raises(ValueError, match="malformed dataset key"):
            dataset_path(tmp_path, bad)


def test_open_sealed_matches_store_open(store):
    key = "beef0sealed"
    items = _items(3)
    store.ingest(key, items)
    via_writer = store.open(key)
    via_reader = _reader(store).open(key)
    assert len(via_reader) == len(via_writer) == 3
    for (_, _, sequence, _), ours, theirs in zip(
        items, via_reader.sequences, via_writer.sequences
    ):
        np.testing.assert_array_equal(ours, theirs)
        np.testing.assert_array_equal(ours, sequence)


def test_open_sealed_refuses_missing_dataset(store):
    store.ingest("beef0sealed", _items(2))
    with pytest.raises(PersistenceError, match="no sealed dataset"):
        _reader(store).open("beef1absent")
