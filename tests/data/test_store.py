"""DatasetStore: addressing, hit/miss, corruption fallback, ingest."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data import DatasetStore, StoredDataset
from repro.data import writer as writer_module
from repro.data.store import COMPLETE_MARKER, DATASET_INDEX
from repro.errors import PersistenceError
from repro.serve.metrics import MetricsRegistry


@pytest.fixture()
def store(tmp_path):
    return DatasetStore(tmp_path / "store", metrics=MetricsRegistry())


def _flip_byte(directory, name="shard-00000.bin", offset=10):
    path = directory / name
    payload = bytearray(path.read_bytes())
    payload[offset] ^= 0xFF
    path.write_bytes(bytes(payload))


def _assert_format_2(directory):
    """The dataset is in the current format: every shard file is its
    documents' float64 rows and nothing else."""
    index = json.loads((directory / DATASET_INDEX).read_text())
    assert index["format_version"] == 2
    for entry in index["shards"]:
        size = (directory / entry["name"]).stat().st_size
        assert size == entry["nbytes"] == 16 * sum(entry["lengths"])


def test_miss_encodes_then_hit_loads(store, tokenized, mi_features, encoder):
    fresh = store.get_or_encode(tokenized, mi_features, encoder, "earn", "train")
    assert store.stats()["misses"] == 1
    assert store.stats()["encoded_documents"] == len(fresh)

    stored = store.get_or_encode(tokenized, mi_features, encoder, "earn", "train")
    assert isinstance(stored, StoredDataset)
    assert store.stats()["hits"] == 1
    assert len(stored) == len(fresh)
    assert stored.category == "earn"
    assert stored.split == "train"
    np.testing.assert_array_equal(stored.labels, fresh.labels)
    for encoded, loaded in zip(fresh.sequences, stored.sequences):
        assert np.array_equal(encoded, loaded)


def test_hit_is_memory_mapped(store, tokenized, mi_features, encoder):
    store.get_or_encode(tokenized, mi_features, encoder, "grain", "train")
    stored = store.get_or_encode(tokenized, mi_features, encoder, "grain", "train")
    assert all(isinstance(sequence.base, np.memmap) for sequence in stored.sequences)
    assert store.stats()["mmap_bytes"] > 0
    assert store.stats()["shards_read"] >= 1


def test_corruption_falls_back_to_reencode(
    store, tokenized, mi_features, encoder
):
    store.get_or_encode(tokenized, mi_features, encoder, "earn", "train")
    key = store.dataset_key(tokenized, mi_features, encoder, "earn", "train")
    _flip_byte(store.path_for(key))

    recovered = store.get_or_encode(tokenized, mi_features, encoder, "earn", "train")
    assert store.stats()["corrupt"] == 1
    assert store.stats()["misses"] == 2  # original + the fallback
    assert len(recovered) > 0
    # The damaged dataset was replaced: the next call is a clean hit.
    assert isinstance(
        store.get_or_encode(tokenized, mi_features, encoder, "earn", "train"),
        StoredDataset,
    )


def test_open_unsealed_key_raises(store):
    with pytest.raises(PersistenceError, match="no sealed dataset"):
        store.open("f" * 32)


def test_malformed_key_rejected(store):
    for key in ("", "../../etc", "a/b", "a.b"):
        with pytest.raises(ValueError, match="malformed"):
            store.path_for(key)


def test_corrupt_index_raises_with_path(store):
    key = "d" * 32
    with store.writer(key) as writer:
        writer.add(0, 1, np.ones((2, 2)))
        writer.commit()
    (store.path_for(key) / "index.json").write_text("{not json")
    with pytest.raises(PersistenceError, match="index.json"):
        store.open(key)


def test_discard_removes_dataset(store):
    key = "e" * 32
    with store.writer(key) as writer:
        writer.add(0, 1, np.ones((2, 2)))
        writer.commit()
    assert store.has(key)
    store.discard(key)
    assert not store.has(key)
    store.discard(key)  # idempotent


def test_orphaned_tmp_swept_on_construction(tmp_path):
    store = DatasetStore(tmp_path / "store", metrics=MetricsRegistry())
    writer = store.writer("9" * 32)  # never committed: simulated crash
    writer.add(0, 1, np.ones((2, 2)))
    orphan = writer.directory
    assert orphan.exists()
    DatasetStore(tmp_path / "store", metrics=MetricsRegistry())
    assert not orphan.exists()


def test_ingest_appends_and_dedupes(store):
    key = "1" * 32
    items = [(0, 1, np.ones((2, 2)), "fp0"), (1, -1, np.zeros((3, 2)), "fp1")]
    first = store.ingest(key, items, extra_meta={"category": "earn"})
    assert len(first) == 2

    second = store.ingest(
        key,
        [(1, -1, np.zeros((3, 2)), "fp1"), (2, 0, np.ones((1, 2)), "fp2")],
        extra_meta={"category": "earn"},
    )
    assert len(second) == 3
    assert second.doc_ids == (0, 1, 2)
    assert second.fingerprints == ("fp0", "fp1", "fp2")

    unchanged = store.ingest(
        key, [(1, -1, np.zeros((3, 2)), "fp1")], extra_meta={"category": "earn"}
    )
    assert unchanged is None  # everything was a duplicate
    assert len(store.open(key)) == 3


def test_concurrent_ingest_same_key_loses_nothing(store):
    # Concurrent writers to one key serialize: each adopts the other's
    # documents instead of overwriting the published dataset.
    import threading

    key = "b" * 32
    n_threads, per_thread = 4, 20

    def ingest(thread_index):
        store.ingest(
            key,
            [
                (thread_index * 100 + i, 0, np.ones((2, 2)), f"fp-{thread_index}-{i}")
                for i in range(per_thread)
            ],
        )

    threads = [
        threading.Thread(target=ingest, args=(t,)) for t in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(store.open(key)) == n_threads * per_thread


def test_ingest_replaces_corrupt_dataset(store):
    key = "2" * 32
    store.ingest(key, [(0, 1, np.ones((2, 2)), "fp0")])
    _flip_byte(store.path_for(key))
    recovered = store.ingest(key, [(1, 1, np.ones((2, 2)), "fp1")])
    # The damaged shards could not be adopted; only the new item survives.
    assert len(recovered) == 1
    assert store.stats()["corrupt"] == 1


def test_counters_count_each_shard_and_dataset(store, monkeypatch):
    monkeypatch.setattr(writer_module, "SHARD_DOCS", 2)
    store.ingest("3" * 32, [(i, 1, np.ones((2, 2)), f"fp{i}") for i in range(5)])
    assert store.stats()["shards_written"] == 3
    assert store.stats()["datasets_written"] == 1


def test_format_1_dataset_is_reencoded_not_read(
    store, tokenized, mi_features, encoder, rewrite_in_format_1
):
    fresh = store.get_or_encode(tokenized, mi_features, encoder, "earn", "train")
    key = store.dataset_key(tokenized, mi_features, encoder, "earn", "train")
    rewrite_in_format_1(store.path_for(key))
    with pytest.raises(PersistenceError, match="unsupported dataset format 1"):
        store.open(key)

    again = store.get_or_encode(tokenized, mi_features, encoder, "earn", "train")
    assert not isinstance(again, StoredDataset)  # encoded afresh
    assert store.stats()["corrupt"] == 1
    assert store.stats()["misses"] == 2
    _assert_format_2(store.path_for(key))
    stored = store.open(key)
    for encoded, loaded in zip(fresh.sequences, stored.sequences):
        assert np.array_equal(encoded, loaded)


def test_ingest_rebuilds_format_1_dataset(store, rewrite_in_format_1):
    key = "7" * 32
    store.ingest(
        key, [(0, 1, np.ones((2, 2)), "fp0"), (1, 1, np.ones((5, 2)), "fp1")]
    )
    rewrite_in_format_1(store.path_for(key))
    rebuilt = store.ingest(key, [(2, -1, np.zeros((3, 2)), "fp2")])
    # The old shards were not adopted; only the new item survives.
    assert rebuilt.doc_ids == (2,)
    assert store.stats()["corrupt"] == 1
    _assert_format_2(store.path_for(key))


def test_stats_line_format(store, tokenized, mi_features, encoder):
    store.get_or_encode(tokenized, mi_features, encoder, "earn", "train")
    store.get_or_encode(tokenized, mi_features, encoder, "earn", "train")
    line = store.stats_line()
    assert "hits=1" in line
    assert "misses=1" in line
    assert "corrupt=0" in line


def test_counters_reach_metrics_registry(tmp_path):
    metrics = MetricsRegistry()
    store = DatasetStore(tmp_path / "store", metrics=metrics)
    store.ingest("4" * 32, [(0, 1, np.ones((2, 2)), "fp0")])
    store.open("4" * 32)
    snapshot = metrics.snapshot()
    assert snapshot["data_store_shards_written_total"] == 1
    assert snapshot["data_store_datasets_written_total"] == 1
    assert snapshot["data_store_shards_read_total"] >= 1


_rows = st.lists(st.tuples(st.floats(width=64), st.floats(width=64)), max_size=12)


@settings(max_examples=50, deadline=None)
@given(
    data=st.lists(st.one_of(st.just([]), _rows), max_size=8),
    shard_docs=st.integers(min_value=1, max_value=4),
    shard_bytes=st.integers(min_value=1, max_value=256),
)
@example(data=[], shard_docs=2, shard_bytes=64)
@example(data=[[], [], []], shard_docs=2, shard_bytes=64)
@example(data=[[(1.0, 2.0)] * 3, [], [(3.0, 4.0)], [], [(5.0, 6.0)] * 9],
         shard_docs=4, shard_bytes=40)
def test_round_trip_bit_identity_property(
    tmp_path_factory, data, shard_docs, shard_bytes
):
    """Ragged, empty and all-empty documents over several shards read
    back bit for bit, in document order, as views of the shard maps; a
    shard file is its rows and nothing else."""
    sequences = [np.array(rows, dtype=float).reshape(-1, 2) for rows in data]
    store = DatasetStore(
        tmp_path_factory.mktemp("prop") / "store", metrics=MetricsRegistry()
    )
    key = "a" * 32
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(writer_module, "SHARD_DOCS", shard_docs)
        patch.setattr(writer_module, "SHARD_BYTES", shard_bytes)
        with store.writer(key) as writer:
            for index, sequence in enumerate(sequences):
                writer.add(index, 1, sequence)
            writer.commit()
    stored = store.open(key)
    assert stored.doc_ids == tuple(range(len(sequences)))
    for original, loaded in zip(sequences, stored.sequences):
        assert loaded.shape == original.shape
        assert loaded.tobytes() == original.tobytes()
    _assert_format_2(stored.directory)
    # Each shard was flushed at the first bound its buffer reached.
    start = 0
    for number, meta in enumerate(stored.shard_metas):
        assert meta.n_docs <= shard_docs
        assert meta.nbytes - 16 * meta.lengths[-1] < shard_bytes
        if number < len(stored.shard_metas) - 1:
            assert meta.n_docs == shard_docs or meta.nbytes >= shard_bytes
        views = stored.sequences[start:start + meta.n_docs]
        if meta.nbytes:
            assert all(isinstance(view.base, np.memmap) for view in views)
        start += meta.n_docs


def test_subset_matches_encoded_dataset_contract(store):
    key = "5" * 32
    sequences = [np.full((i + 1, 2), float(i)) for i in range(4)]
    with store.writer(key) as writer:
        for index, sequence in enumerate(sequences):
            writer.add(index, 1 if index % 2 else -1, sequence)
        writer.commit()
    stored = store.open(key)
    subset = stored.subset([2, 0])
    assert len(subset) == 2
    assert subset.doc_ids == (2, 0)
    np.testing.assert_array_equal(subset.labels, [-1.0, -1.0])
    assert np.array_equal(subset.sequences[0], sequences[2])


def test_complete_marker_is_required(store):
    key = "6" * 32
    with store.writer(key) as writer:
        writer.add(0, 1, np.ones((2, 2)))
        writer.commit()
    (store.path_for(key) / COMPLETE_MARKER).unlink()
    assert not store.has(key)
    with pytest.raises(PersistenceError):
        store.open(key)
