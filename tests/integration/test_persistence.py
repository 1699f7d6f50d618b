"""Round-trip tests for pipeline save/load."""

import numpy as np
import pytest

from repro import GpConfig, ProSysConfig, ProSysPipeline
from repro.persistence import PersistenceError, load_pipeline, save_pipeline
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
@pytest.fixture()
def saved_dir(fitted, tmp_path):
    save_pipeline(fitted, tmp_path)
    return tmp_path


def test_truncated_arrays_named_in_error(saved_dir, corpus):
    path = saved_dir / "arrays.npz"
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    with pytest.raises(PersistenceError, match="arrays.npz"):
        load_pipeline(saved_dir, corpus)


def test_garbage_arrays_named_in_error(saved_dir, corpus):
    (saved_dir / "arrays.npz").write_bytes(b"this is not a zip archive")
    with pytest.raises(PersistenceError, match="truncated or corrupt"):
        load_pipeline(saved_dir, corpus)


def test_flipped_byte_in_arrays_raises_persistence_error(saved_dir, corpus):
    path = saved_dir / "arrays.npz"
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
