"""Round-trip tests for pipeline save/load."""

import gc
import json
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro import GpConfig, ProSysConfig, ProSysPipeline
from repro import persistence
from repro.persistence import (
    PersistenceError,
    load_pipeline,
    save_pipeline,
    validate_manifest,
)
from repro.runtime import CheckpointStore, RunContext


@pytest.fixture(scope="module")
def fitted(corpus):
    config = ProSysConfig(
        feature_method="mi",
        n_features=60,
        som_epochs=6,
        gp=GpConfig().small(tournaments=100),
        seed=13,
    )
    return ProSysPipeline(config).fit(corpus, categories=["earn", "grain"])


@pytest.fixture(scope="module")
def round_tripped(fitted, corpus, tmp_path_factory):
    directory = tmp_path_factory.mktemp("model")
    save_pipeline(fitted, directory)
    return load_pipeline(directory, corpus)


def test_unfitted_pipeline_rejected(tmp_path):
    with pytest.raises(PersistenceError, match="unfitted"):
        save_pipeline(ProSysPipeline(), tmp_path)


def test_missing_directory_rejected(corpus, tmp_path):
    with pytest.raises(PersistenceError, match="no saved pipeline"):
        load_pipeline(tmp_path, corpus)


def test_config_restored(fitted, round_tripped):
    assert round_tripped.config == fitted.config


def test_feature_set_restored(fitted, round_tripped):
    assert round_tripped.feature_set.method == fitted.feature_set.method
    for category in fitted.suite.categories:
        assert round_tripped.feature_set.vocabulary(
            category
        ) == fitted.feature_set.vocabulary(category)


def test_som_weights_restored(fitted, round_tripped):
    np.testing.assert_array_equal(
        round_tripped.encoder.character_encoder.som.weights,
        fitted.encoder.character_encoder.som.weights,
    )
    for category in fitted.suite.categories:
        np.testing.assert_array_equal(
            round_tripped.encoder.encoder_for(category).som.weights,
            fitted.encoder.encoder_for(category).som.weights,
        )


def test_selected_units_and_memberships_restored(fitted, round_tripped):
    for category in fitted.suite.categories:
        original = fitted.encoder.encoder_for(category)
        restored = round_tripped.encoder.encoder_for(category)
        assert restored.selected_units == original.selected_units
        assert set(restored.memberships) == set(original.memberships)
        for unit, membership in original.memberships.items():
            loaded = restored.memberships[unit]
            assert loaded.sigma == pytest.approx(membership.sigma)
            np.testing.assert_array_equal(loaded.mean, membership.mean)


def test_programs_and_thresholds_restored(fitted, round_tripped):
    for category, classifier in fitted.suite.classifiers.items():
        loaded = round_tripped.suite.classifiers[category]
        assert loaded.program.code == classifier.program.code
        assert loaded.threshold == pytest.approx(classifier.threshold)


def test_predictions_identical_after_round_trip(fitted, round_tripped):
    original = fitted.evaluate("test")
    restored = round_tripped.evaluate("test")
    for category in fitted.suite.categories:
        assert restored.f1(category) == pytest.approx(original.f1(category))
    assert restored.micro_f1 == pytest.approx(original.micro_f1)


def test_tracking_identical_after_round_trip(fitted, round_tripped, corpus):
    doc = corpus.test_for("earn")[0]
    original = fitted.track(doc, "earn")
    restored = round_tripped.track(doc, "earn")
    np.testing.assert_allclose(restored.raw, original.raw)
    assert restored.words == original.words


@pytest.mark.parametrize(
    "flags",
    [{"recurrent": False}, {"member_word_filter": False}],
    ids=["recurrent", "member_word_filter"],
)
def test_run_wide_flags_survive_reload_and_resume(corpus, tmp_path, flags):
    """A reloaded or resumed model reads documents as the fitted one.

    Run-wide flags live in the manifest's ``config`` and in the run's
    config, not in the part records: a non-recurrent rule still reads
    documents by their final word, and a model fitted without the
    Sec. 6.2 member-word test still encodes without it."""
    config = ProSysConfig(
        feature_method="mi",
        n_features=60,
        som_epochs=4,
        gp=GpConfig().small(tournaments=40),
        seed=13,
        **flags,
    )
    categories = ["earn", "grain"]

    def fit():
        ctx = RunContext(seed=13, checkpoints=CheckpointStore(tmp_path / "run"))
        return ProSysPipeline(config).fit(corpus, categories=categories, ctx=ctx)

    fitted = fit()
    save_pipeline(fitted, tmp_path / "model")
    docs = corpus.test_documents
    expected = fitted.decision_matrix(docs)
    for pipeline in (load_pipeline(tmp_path / "model", corpus), fit()):
        for category in categories:
            assert pipeline.suite.classifiers[category].recurrent == config.recurrent
            assert (
                pipeline.encoder.encoder_for(category).member_word_filter
                == config.member_word_filter
            )
            np.testing.assert_array_equal(
                pipeline.decision_matrix(docs)[category], expected[category]
            )


def test_wrong_format_version_rejected(fitted, corpus, tmp_path):
    import json

    save_pipeline(fitted, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["format_version"] = 999
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(PersistenceError, match="format"):
        load_pipeline(tmp_path, corpus)


# ----------------------------------------------------------------------
# corrupt array payloads surface as PersistenceError naming the file
# ----------------------------------------------------------------------
def _arrays_path(directory):
    """The arrays file the manifest in ``directory`` names."""
    return directory / json.loads((directory / "manifest.json").read_text())["arrays"]


@pytest.fixture()
def saved_dir(fitted, tmp_path):
    save_pipeline(fitted, tmp_path)
    return tmp_path


def test_truncated_arrays_named_in_error(saved_dir, corpus):
    path = _arrays_path(saved_dir)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    with pytest.raises(PersistenceError, match=re.escape(path.name)):
        load_pipeline(saved_dir, corpus)


def test_garbage_arrays_named_in_error(saved_dir, corpus):
    _arrays_path(saved_dir).write_bytes(b"this is not a zip archive")
    with pytest.raises(PersistenceError, match="truncated or corrupt"):
        load_pipeline(saved_dir, corpus)


@pytest.mark.parametrize(
    "payload", [b"PK\x03\x04 truncated", b"this is not a zip archive"],
    ids=["truncated", "not-a-zip"],
)
def test_damaged_arrays_leave_no_file_open(tmp_path, payload):
    path = tmp_path / "arrays-00.npz"
    path.write_bytes(payload)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            persistence._load_arrays(path)
        except PersistenceError as error:
            assert "truncated or corrupt" in str(error)
        else:
            pytest.fail("a damaged payload loaded")
        gc.collect()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaks, [str(w.message) for w in leaks]


def test_flipped_byte_in_arrays_raises_persistence_error(saved_dir, corpus):
    path = _arrays_path(saved_dir)
    payload = bytearray(path.read_bytes())
    payload[len(payload) // 2] ^= 0xFF
    path.write_bytes(bytes(payload))
    with pytest.raises(PersistenceError):
        load_pipeline(saved_dir, corpus)


def test_corrupt_stage_checkpoint_raises_persistence_error(tmp_path):
    from repro.persistence import _read_stage, _write_stage

    _write_stage(
        tmp_path, "character_encoder", {"rows": 1},
        {"weights": np.ones((2, 2))},
    )
    arrays_path = tmp_path / "stage_arrays.npz"
    arrays_path.write_bytes(arrays_path.read_bytes()[:-20])
    with pytest.raises(PersistenceError, match="stage_arrays.npz"):
        _read_stage(tmp_path, "character_encoder")


# ----------------------------------------------------------------------
# model format 2: replacing the manifest is the one commit point
# ----------------------------------------------------------------------
class _Killed(BaseException):
    """The saving process died here."""


def _perturbed(directory, corpus, shift=0.25):
    """The model in ``directory`` with every word SOM's units reversed
    and every threshold moved by ``shift``: every array key matches."""
    pipeline = load_pipeline(directory, corpus)
    for encoder in pipeline.encoder.category_encoders.values():
        encoder.som.weights = encoder.som.weights[::-1].copy()
    for classifier in pipeline.suite.classifiers.values():
        classifier.threshold += shift
    return pipeline


def _assert_same_model(loaded, expected, documents):
    values = loaded.decision_matrix(documents)
    wanted = expected.decision_matrix(documents)
    assert set(values) == set(wanted)
    for category in wanted:
        np.testing.assert_array_equal(values[category], wanted[category])
        assert (
            loaded.suite.classifiers[category].threshold
            == expected.suite.classifiers[category].threshold
        )


@pytest.fixture()
def two_models(fitted, corpus, tmp_path):
    """``(directory, A, B)``: A saved in ``directory``, B a model whose
    decision values and thresholds differ from A's."""
    directory = save_pipeline(fitted, tmp_path / "model")
    other = _perturbed(directory, corpus)
    documents = corpus.test_documents[:40]
    a_values = fitted.decision_matrix(documents)
    b_values = other.decision_matrix(documents)
    assert all(not np.array_equal(a_values[c], b_values[c]) for c in a_values)
    return directory, fitted, other


def test_save_during_load_returns_the_loaded_manifests_model(
    two_models, corpus, monkeypatch
):
    """B saved over A between a load's manifest read and its arrays read:
    the load returns A whole, and the next load B whole."""
    directory, model_a, model_b = two_models
    load_arrays = persistence._load_arrays
    saves = []

    def save_b_first(path):
        if not saves:
            saves.append(save_pipeline(model_b, directory))
        return load_arrays(path)

    monkeypatch.setattr(persistence, "_load_arrays", save_b_first)
    loaded = load_pipeline(directory, corpus)
    monkeypatch.undo()
    assert saves == [directory]
    documents = corpus.test_documents[:40]
    _assert_same_model(loaded, model_a, documents)
    _assert_same_model(load_pipeline(directory, corpus), model_b, documents)


def test_save_killed_before_its_manifest_leaves_the_old_model(
    two_models, corpus, monkeypatch
):
    """A save of B killed after its arrays file is written and before
    ``manifest.json`` is replaced: the directory still loads A whole."""
    directory, model_a, model_b = two_models
    replace = os.replace

    def killed_at_the_manifest(source, target):
        if Path(target).name == "manifest.json":
            raise _Killed(target)
        return replace(source, target)

    monkeypatch.setattr(os, "replace", killed_at_the_manifest)
    with pytest.raises(_Killed):
        save_pipeline(model_b, directory)
    monkeypatch.undo()
    _assert_same_model(
        load_pipeline(directory, corpus), model_a, corpus.test_documents[:40]
    )


def test_each_save_keeps_its_arrays_and_at_most_the_replaced_ones(
    two_models, corpus, tmp_path
):
    directory, model_a, model_b = two_models
    model_c = _perturbed(directory, corpus, shift=0.5)
    for encoder in model_c.encoder.category_encoders.values():
        encoder.som.weights = encoder.som.weights * 0.5
    target = tmp_path / "served"
    named = []
    for model in (model_a, model_b, model_c):
        save_pipeline(model, target)
        named.append(_arrays_path(target).name)
        assert sorted(os.listdir(target)) == sorted(
            {"manifest.json", *named[-2:]}
        )
    assert len(set(named)) == 3
    _assert_same_model(
        load_pipeline(target, corpus), model_c, corpus.test_documents[:40]
    )


def test_format_1_directory_is_refused(saved_dir, corpus):
    manifest = json.loads((saved_dir / "manifest.json").read_text())
    os.replace(saved_dir / manifest.pop("arrays"), saved_dir / "arrays.npz")
    manifest["format_version"] = 1
    (saved_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
    with pytest.raises(
        PersistenceError, match=r"unsupported model format 1 \(expected 2\)"
    ):
        load_pipeline(saved_dir, corpus)


@pytest.mark.parametrize("name", [
    "arrays.npz", "../arrays-00.npz", "sub/arrays-00.npz", "/arrays-00.npz",
    "arrays-00.npz/..", "..", "arrays-.npz", "arrays-0g.npz",
    "arrays-00.npy", "", None, 7,
])
def test_manifest_arrays_must_be_a_bare_arrays_name(saved_dir, name):
    manifest = json.loads((saved_dir / "manifest.json").read_text())
    assert re.fullmatch(r"arrays-[0-9a-f]+\.npz", manifest["arrays"])
    validate_manifest(manifest)
    manifest["arrays"] = name
    with pytest.raises(PersistenceError, match="'arrays' must name"):
        validate_manifest(manifest)


def test_renamed_model_directory_still_loads(fitted, corpus, tmp_path):
    staging = save_pipeline(fitted, tmp_path / "staging")
    os.replace(staging, tmp_path / "served")
    _assert_same_model(
        load_pipeline(tmp_path / "served", corpus), fitted,
        corpus.test_documents[:40],
    )
