"""Shard round-trips, zero-copy loading, and corruption detection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.shards import (
    SHARD_DTYPE,
    ShardMeta,
    file_checksum,
    open_shard,
    write_shard,
)
from repro.errors import PersistenceError
from repro.gp.recurrent import join_rows
from repro.serve.workers import _pack_job


def _sequences(seed=0, lengths=(5, 3, 9, 0, 4)):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((n, 2)) for n in lengths]


def _write(tmp_path, sequences, **kwargs):
    n = len(sequences)
    return write_shard(
        tmp_path,
        "shard-00000.bin",
        sequences,
        doc_ids=list(range(n)),
        labels=[1 if i % 2 else -1 for i in range(n)],
        **kwargs,
    )


def test_round_trip_is_bit_identical(tmp_path):
    sequences = _sequences()
    meta = _write(tmp_path, sequences)
    loaded = open_shard(tmp_path, meta)
    assert meta.lengths == (5, 3, 9, 0, 4)
    assert len(loaded) == len(sequences)
    for original, view in zip(sequences, loaded):
        assert view.shape == original.shape
        assert view.tobytes() == original.tobytes()


def test_shard_payload_is_the_worker_job_block(tmp_path):
    """One codec: a shard holds the rows a worker job carries, byte for
    byte, and nothing else (16 bytes a row, no padding)."""
    sequences = _sequences()
    meta = _write(tmp_path, sequences)
    payload = (tmp_path / meta.name).read_bytes()
    lengths, block = join_rows(sequences)
    _, job_lengths, job_block = _pack_job({"earn": sequences})
    assert payload == block.tobytes() == job_block.tobytes()
    assert list(meta.lengths) == lengths == job_lengths
    assert len(payload) == meta.nbytes == 16 * sum(lengths)


def test_open_shard_is_memory_mapped(tmp_path):
    meta = _write(tmp_path, _sequences())
    views = open_shard(tmp_path, meta)
    # Per-document views are windows onto the map, not copies.
    assert all(isinstance(view.base, np.memmap) for view in views)
    assert all(isinstance(view, np.memmap) for view in views if len(view))


def test_all_empty_sequences_round_trip(tmp_path):
    sequences = [np.zeros((0, 2)), np.zeros((0, 2))]
    meta = _write(tmp_path, sequences)
    assert (tmp_path / meta.name).stat().st_size == 0
    assert [view.shape for view in open_shard(tmp_path, meta)] == [(0, 2), (0, 2)]


def test_truncation_raises_persistence_error(tmp_path):
    meta = _write(tmp_path, _sequences())
    path = tmp_path / meta.name
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(PersistenceError, match=str(path)):
        open_shard(tmp_path, meta)


def test_flipped_byte_raises_persistence_error(tmp_path):
    meta = _write(tmp_path, _sequences())
    path = tmp_path / meta.name
    payload = bytearray(path.read_bytes())
    payload[17] ^= 0xFF
    path.write_bytes(bytes(payload))
    with pytest.raises(PersistenceError, match="checksum"):
        open_shard(tmp_path, meta)
    # Skipping verification maps the damaged payload without complaint
    # (the caller opted out of the integrity check).
    assert open_shard(tmp_path, meta, verify=False) is not None


def test_missing_payload_raises_persistence_error(tmp_path):
    meta = _write(tmp_path, _sequences())
    (tmp_path / meta.name).unlink()
    with pytest.raises(PersistenceError, match="missing"):
        open_shard(tmp_path, meta)


def test_checksum_format(tmp_path):
    meta = _write(tmp_path, _sequences())
    assert meta.checksum.startswith("sha256:")
    assert meta.checksum == file_checksum(tmp_path / meta.name)
    assert meta.nbytes == (tmp_path / meta.name).stat().st_size
    assert SHARD_DTYPE.itemsize == 8


def test_meta_payload_round_trip(tmp_path):
    meta = _write(tmp_path, _sequences(), fingerprints=["a", "b", "c", "d", "e"])
    restored = ShardMeta.from_payload(meta.payload(), "index.json")
    assert restored == meta


@pytest.mark.parametrize("drop", ["name", "checksum", "lengths", "labels"])
def test_meta_missing_key_is_named(tmp_path, drop):
    payload = _write(tmp_path, _sequences()).payload()
    del payload[drop]
    with pytest.raises(PersistenceError, match=drop):
        ShardMeta.from_payload(payload, "index.json")


def test_meta_misaligned_lengths_rejected(tmp_path):
    payload = _write(tmp_path, _sequences()).payload()
    payload["lengths"] = payload["lengths"][:-1]
    with pytest.raises(PersistenceError, match="lengths"):
        ShardMeta.from_payload(payload, "index.json")


def test_meta_negative_row_count_rejected(tmp_path):
    payload = _write(tmp_path, _sequences()).payload()
    payload["lengths"] = [-1, 6, 9, 0, 4]
    with pytest.raises(PersistenceError, match="negative row count"):
        ShardMeta.from_payload(payload, "index.json")


def test_meta_non_object_rejected():
    with pytest.raises(PersistenceError, match="object"):
        ShardMeta.from_payload(["not", "a", "dict"], "index.json")
