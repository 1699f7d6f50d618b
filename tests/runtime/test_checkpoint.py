"""Stage checkpointing: sealing, resume, corruption."""

import json

import pytest

from repro.errors import PersistenceError
from repro.runtime.checkpoint import COMPLETE_MARKER, CheckpointStore, _sanitize


def _write_payload(value):
    def writer(directory):
        (directory / "payload.json").write_text(json.dumps(value))
    return writer


def _read_payload(directory):
    return json.loads((directory / "payload.json").read_text())


def test_save_then_load_roundtrip(tmp_path):
    store = CheckpointStore(tmp_path / "run")
    store.save("char_som", _write_payload({"rows": 7}))
    assert store.has("char_som")
    assert store.load("char_som", _read_payload) == {"rows": 7}


def test_unsealed_stage_is_not_complete(tmp_path):
    store = CheckpointStore(tmp_path)

    def crashing_writer(directory):
        (directory / "payload.json").write_text("partial")
        raise RuntimeError("killed mid-write")

    with pytest.raises(RuntimeError, match="mid-write"):
        store.save("word_som/earn", crashing_writer)
    assert not store.has("word_som/earn")
    with pytest.raises(PersistenceError, match="not complete"):
        store.load("word_som/earn", _read_payload)


def test_resave_discards_previous_attempt(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save("stage", _write_payload(1))
    store.save("stage", _write_payload(2))
    assert store.load("stage", _read_payload) == 2


def test_corrupt_sealed_stage_raises_persistence_error(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save("rlgp/earn", _write_payload({"ok": True}))
    (store.stage_dir("rlgp/earn") / "payload.json").write_text("{not json")
    with pytest.raises(PersistenceError, match=r"'rlgp/earn'.*corrupt"):
        store.load("rlgp/earn", _read_payload)


def test_completed_lists_only_sealed_stages(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save("char_som", _write_payload(1))
    store.save("word_som/earn", _write_payload(2))
    store.stage_dir("half").mkdir()  # unsealed leftovers are ignored
    assert store.completed() == ["char_som", "word_som__earn"]


def test_marker_written_last(tmp_path):
    store = CheckpointStore(tmp_path)
    order = []

    def writer(directory):
        order.append((directory / COMPLETE_MARKER).exists())

    store.save("stage", writer)
    assert order == [False]
    assert store.has("stage")


def test_same_run_dir_resumes(tmp_path):
    CheckpointStore(tmp_path / "run").save("stage", _write_payload(7))
    resumed = CheckpointStore(tmp_path / "run")
    assert resumed.load("stage", _read_payload) == 7


def test_sanitize_stage_names():
    assert _sanitize("word_som/earn") == "word_som__earn"
    assert _sanitize("we ird:name") == "we_ird_name"
    with pytest.raises(ValueError):
        _sanitize("")
