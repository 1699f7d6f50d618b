"""Stage checkpointing: sealing, resume, corruption."""

import json
import os
import shutil

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


class _Killed(BaseException):
    """The saving process died here."""


def _write_stage_files(value):
    def writer(directory):
        for name in ("stage.json", "stage_arrays.npz"):
            (directory / name).write_text(json.dumps(value))
    return writer


def _read_stage_files(directory):
    record, arrays = (
        json.loads((directory / name).read_text())
        for name in ("stage.json", "stage_arrays.npz")
    )
    if record != arrays:
        raise ValueError(f"torn stage: {record!r} beside {arrays!r}")
    return record


def test_resave_killed_mid_replace_never_leaves_a_gutted_stage(
    tmp_path, monkeypatch
):
    """Kill a re-save over a sealed stage right after each file removal
    and each rename it makes: the stage is then unsealed (recomputed on
    resume) or loads as the old or the new payload -- never sealed but
    corrupt."""
    operations = ("unlink", "rmdir", "rename", "replace")
    originals = {name: getattr(os, name) for name in operations}
    killed_after = []
    step = 0
    while True:
        step += 1
        run, snapshot = tmp_path / f"run-{step}", tmp_path / f"killed-{step}"
        store = CheckpointStore(run)
        store.save("word_som/earn", _write_stage_files("old"))
        calls = []

        def dying(name):
            def operation(*args, **kwargs):
                result = originals[name](*args, **kwargs)
                calls.append(name)
                if len(calls) == step:
                    shutil.copytree(run, snapshot)  # the disk as the kill left it
                    raise _Killed(name)
                return result
            return operation

        with monkeypatch.context() as patch:
            for name in operations:
                patch.setattr(os, name, dying(name))
            try:
                store.save("word_som/earn", _write_stage_files("new"))
            except _Killed:
                killed_after.append(calls[-1])
            else:
                break
        resumed = CheckpointStore(snapshot)
        if resumed.has("word_som/earn"):
            try:
                payload = resumed.load("word_som/earn", _read_stage_files)
            except PersistenceError as error:
                pytest.fail(f"killed after {calls[-1]} #{step}: {error}")
            assert payload in ("old", "new")
    # Every file of the old stage was removed and both renames made.
    assert killed_after.count("unlink") >= 3
    assert killed_after.count("rename") >= 2
    assert store.load("word_som/earn", _read_stage_files) == "new"
    assert store.completed() == ["word_som__earn"]
    assert os.listdir(run / "stages") == ["word_som__earn"]


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
