"""DatasetWriter: bounded memory, atomic commit, incremental adoption."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import DatasetStore
from repro.data import writer as writer_module
from repro.data.store import COMPLETE_MARKER, DATASET_INDEX
from repro.errors import PersistenceError

KEY = "c" * 32


def _sequences(n, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((rng.integers(1, 8), 2)) for _ in range(n)]


def test_commit_publishes_sealed_dataset(tmp_path):
    store = DatasetStore(tmp_path / "store")
    with store.writer(KEY) as writer:
        for index, sequence in enumerate(_sequences(5)):
            writer.add(index, 1, sequence)
        final = writer.commit({"category": "earn", "split": "train"})
    assert final == store.path_for(KEY)
    assert (final / DATASET_INDEX).exists()
    assert (final / COMPLETE_MARKER).exists()
    assert store.has(KEY)
    assert store.keys() == [KEY]


def test_uncommitted_writer_leaves_nothing(tmp_path):
    store = DatasetStore(tmp_path / "store")
    with store.writer(KEY) as writer:
        writer.add(0, 1, np.ones((3, 2)))
    assert not store.has(KEY)
    # The aborted temp directory is gone immediately, not just at sweep.
    assert list((tmp_path / "store" / "tmp").iterdir()) == []


def test_exception_in_writer_block_aborts(tmp_path):
    store = DatasetStore(tmp_path / "store")
    with pytest.raises(RuntimeError, match="boom"):
        with store.writer(KEY) as writer:
            writer.add(0, 1, np.ones((3, 2)))
            raise RuntimeError("boom")
    assert not store.has(KEY)


def test_shard_docs_bound_splits_shards(tmp_path, monkeypatch):
    monkeypatch.setattr(writer_module, "SHARD_DOCS", 2)
    store = DatasetStore(tmp_path / "store")
    with store.writer(KEY) as writer:
        for index, sequence in enumerate(_sequences(5)):
            writer.add(index, -1, sequence)
        writer.commit()
    stored = store.open(KEY)
    assert len(stored.shard_metas) == 3
    assert [m.n_docs for m in stored.shard_metas] == [2, 2, 1]
    assert len(stored) == 5


def test_shard_bytes_bound_splits_shards(tmp_path, monkeypatch):
    monkeypatch.setattr(writer_module, "SHARD_BYTES", 200)
    store = DatasetStore(tmp_path / "store")
    with store.writer(KEY) as writer:
        for index in range(4):
            writer.add(index, 1, np.ones((10, 2)))  # 160 payload bytes each
        writer.commit()
    # 200-byte bound: the buffer crosses it on every second document.
    assert len(store.open(KEY).shard_metas) == 2


def test_shard_bytes_bound_counts_row_bytes(tmp_path, monkeypatch):
    # A shard costs its rows and nothing more: one 32-row document and
    # 32 one-row ones fill a 1024-byte shard exactly.
    monkeypatch.setattr(writer_module, "SHARD_BYTES", 1024)
    store = DatasetStore(tmp_path / "store")
    with store.writer(KEY) as writer:
        writer.add(0, 1, np.ones((32, 2)))
        for index in range(1, 64):
            writer.add(index, 1, np.ones((1, 2)))
        writer.commit()
    stored = store.open(KEY)
    assert len(stored) == 64
    assert [meta.n_docs for meta in stored.shard_metas] == [33, 31]
    assert [meta.nbytes for meta in stored.shard_metas] == [1024, 496]


def test_long_document_does_not_inflate_buffered_shorts(tmp_path, monkeypatch):
    # No padding: the short documents beside a long one keep their own
    # size, so the shard is exactly the sum of its rows.
    monkeypatch.setattr(writer_module, "SHARD_BYTES", 2048)
    store = DatasetStore(tmp_path / "store")
    with store.writer(KEY) as writer:
        for index in range(8):
            writer.add(index, 1, np.ones((1, 2)))
        writer.add(99, 1, np.ones((100, 2)))
        writer.commit()
    stored = store.open(KEY)
    assert [meta.n_docs for meta in stored.shard_metas] == [9]
    assert stored.nbytes == 16 * (8 + 100)
    assert (stored.directory / "shard-00000.bin").stat().st_size == stored.nbytes


def test_multi_shard_sequences_keep_document_order(tmp_path, monkeypatch):
    monkeypatch.setattr(writer_module, "SHARD_DOCS", 3)
    sequences = _sequences(7, seed=3)
    store = DatasetStore(tmp_path / "store")
    with store.writer(KEY) as writer:
        for index, sequence in enumerate(sequences):
            writer.add(index, 1, sequence)
        writer.commit()
    stored = store.open(KEY)
    assert stored.doc_ids == tuple(range(7))
    for original, loaded in zip(sequences, stored.sequences):
        assert np.array_equal(original, loaded)


def test_writer_rejects_bad_labels(tmp_path):
    store = DatasetStore(tmp_path / "store")
    with store.writer(KEY) as writer:
        with pytest.raises(ValueError, match="label"):
            writer.add(0, 2, np.ones((1, 2)))
        writer.abort()


def test_writer_is_single_use(tmp_path):
    store = DatasetStore(tmp_path / "store")
    writer = store.writer(KEY)
    writer.add(0, 1, np.ones((1, 2)))
    writer.commit()
    with pytest.raises(PersistenceError, match="committed or aborted"):
        writer.add(1, 1, np.ones((1, 2)))


def test_fingerprint_dedup_within_writer(tmp_path):
    store = DatasetStore(tmp_path / "store")
    with store.writer(KEY) as writer:
        writer.add(0, 1, np.ones((2, 2)), fingerprint="same")
        writer.add(1, 1, np.zeros((3, 2)), fingerprint="same")
        writer.add(2, 1, np.zeros((3, 2)), fingerprint="other")
        writer.commit()
    assert len(store.open(KEY)) == 2


def test_link_shards_from_adopts_without_rewrite(tmp_path, monkeypatch):
    monkeypatch.setattr(writer_module, "SHARD_DOCS", 2)
    store = DatasetStore(tmp_path / "store")
    sequences = _sequences(4, seed=1)
    with store.writer(KEY) as writer:
        for index, sequence in enumerate(sequences):
            writer.add(index, 1, sequence, fingerprint=f"fp{index}")
        writer.commit()
    first = store.open(KEY)
    first_inode = (first.directory / first.shard_metas[0].name).stat().st_ino

    with store.writer(KEY) as writer:
        adopted = writer.link_shards_from(first)
        assert adopted == 4
        writer.add(9, 1, np.ones((2, 2)), fingerprint="fp-new")
        writer.add(9, 1, np.ones((2, 2)), fingerprint="fp1")  # already stored
        writer.commit()
    second = store.open(KEY)
    assert len(second) == 5
    # Hard link: same inode means the payload bytes were never copied.
    second_inode = (second.directory / second.shard_metas[0].name).stat().st_ino
    assert second_inode == first_inode


def test_link_shards_from_must_precede_add(tmp_path):
    store = DatasetStore(tmp_path / "store")
    with store.writer(KEY) as writer:
        writer.add(0, 1, np.ones((1, 2)))
        writer.commit()
    stored = store.open(KEY)
    with store.writer(KEY) as writer:
        writer.add(1, 1, np.ones((1, 2)))
        with pytest.raises(RuntimeError, match="before any add"):
            writer.link_shards_from(stored)
        writer.abort()
