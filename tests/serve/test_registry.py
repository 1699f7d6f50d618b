"""Model registry: load, validate, multiple names, hot reload."""

import json
import os

import numpy as np
import pytest

from repro.persistence import PersistenceError, load_pipeline, save_pipeline
from repro.serve.registry import ModelRegistry


@pytest.fixture()
def registry(serve_corpus):
    return ModelRegistry(serve_corpus)


def test_register_and_get(registry, model_dir, fitted_pipeline):
    entry = registry.register("prod", model_dir)
    assert entry.version == 1
    assert registry.get("prod") is entry
    assert entry.categories == list(fitted_pipeline.suite.categories)


def test_first_registered_model_is_the_default(registry, model_dir):
    registry.register("prod", model_dir)
    assert registry.default_name == "prod"
    assert registry.get() is registry.get("prod")


def test_multiple_named_models(registry, model_dir):
    registry.register("a", model_dir)
    registry.register("b", model_dir)
    assert registry.names == ["a", "b"]
    assert registry.get("b").name == "b"
    descriptions = {entry["name"] for entry in registry.describe()}
    assert descriptions == {"a", "b"}


def test_duplicate_name_rejected(registry, model_dir):
    registry.register("prod", model_dir)
    with pytest.raises(ValueError, match="already registered"):
        registry.register("prod", model_dir)


def test_unknown_model_raises_keyerror(registry, model_dir):
    registry.register("prod", model_dir)
    with pytest.raises(KeyError, match="unknown model"):
        registry.get("staging")


def test_empty_registry_raises(registry):
    with pytest.raises(KeyError, match="no models"):
        registry.get()


def test_missing_directory_rejected(registry, tmp_path):
    with pytest.raises(PersistenceError, match="no saved pipeline"):
        registry.register("prod", tmp_path)


def test_corrupt_manifest_rejected_with_clear_message(registry, tmp_path):
    (tmp_path / "manifest.json").write_text("{not json")
    with pytest.raises(PersistenceError, match="not valid JSON"):
        registry.register("prod", tmp_path)


def test_foreign_manifest_rejected_with_missing_keys(registry, tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({"hello": "world"}))
    with pytest.raises(PersistenceError, match="missing keys"):
        registry.register("prod", tmp_path)


def test_in_memory_registration(registry, fitted_pipeline):
    entry = registry.add_pipeline("mem", fitted_pipeline)
    assert registry.get("mem").pipeline is fitted_pipeline
    assert entry.directory is None
    with pytest.raises(PersistenceError, match="no directory"):
        registry.reload("mem")


def test_unregister_moves_the_default(registry, model_dir, fitted_pipeline):
    registry.register("a", model_dir)
    registry.add_pipeline("b", fitted_pipeline)
    registry.unregister("a")
    assert registry.default_name == "b"


def test_maybe_reload_noop_when_unchanged(registry, model_dir):
    registry.register("prod", model_dir)
    assert registry.maybe_reload("prod") is False
    assert registry.get("prod").version == 1


def test_maybe_reload_detects_manifest_change(registry, model_dir, fitted_pipeline):
    registry.register("prod", model_dir)
    old_pipeline = registry.get("prod").pipeline
    # A redeploy: same content, newer manifest mtime.
    save_pipeline(fitted_pipeline, model_dir)
    stat = (model_dir / "manifest.json").stat()
    os.utime(model_dir / "manifest.json", (stat.st_atime, stat.st_mtime + 5))
    assert registry.maybe_reload("prod") is True
    entry = registry.get("prod")
    assert entry.version == 2
    assert entry.pipeline is not old_pipeline


def test_reload_during_a_save_never_serves_a_torn_model(
    registry, serve_corpus, fitted_pipeline, tmp_path, monkeypatch
):
    """A reload polled while a new model is being saved over the served
    one keeps the old model; the next poll serves the new one whole."""
    served = tmp_path / "served"
    save_pipeline(fitted_pipeline, served)
    registry.register("prod", served)
    # The new model differs in both files: every word SOM's units
    # reversed (the arrays file) and every threshold moved (manifest.json).
    replacement = load_pipeline(served, serve_corpus)
    for encoder in replacement.encoder.category_encoders.values():
        encoder.som.weights = encoder.som.weights[::-1].copy()
    for classifier in replacement.suite.classifiers.values():
        classifier.threshold += 0.25
    reference = tmp_path / "reference"
    save_pipeline(replacement, reference)
    documents = serve_corpus.test_documents
    expected = load_pipeline(reference, serve_corpus).decision_matrix(documents)
    old = registry.get("prod").pipeline.decision_matrix(documents)
    assert any(not np.array_equal(old[c], expected[c]) for c in expected)

    previous = json.loads((served / "manifest.json").read_text())["arrays"]
    polls = []
    savez_compressed = np.savez_compressed

    def polling_savez_compressed(*args, **kwargs):
        polls.append(registry.maybe_reload("prod"))
        return savez_compressed(*args, **kwargs)

    monkeypatch.setattr(np, "savez_compressed", polling_savez_compressed)
    save_pipeline(replacement, served)
    monkeypatch.undo()
    assert polls == [False]
    assert registry.get("prod").version == 1

    manifest = served / "manifest.json"
    stat = manifest.stat()
    os.utime(manifest, (stat.st_atime, stat.st_mtime + 5))
    assert registry.maybe_reload("prod") is True
    values = registry.get("prod").pipeline.decision_matrix(documents)
    for category in expected:
        assert np.array_equal(values[category], expected[category])
    current = json.loads(manifest.read_text())["arrays"]
    assert current != previous
    assert sorted(os.listdir(served)) == sorted(
        [previous, current, "manifest.json"]
    )


def test_forced_reload_bumps_version(registry, model_dir):
    registry.register("prod", model_dir)
    entry = registry.reload("prod")
    assert entry.version == 2
    assert registry.get("prod") is entry


def test_corrupt_redeploy_keeps_old_model_live(registry, model_dir):
    registry.register("prod", model_dir)
    manifest_path = model_dir / "manifest.json"
    original = manifest_path.read_text()
    try:
        manifest_path.write_text("{broken")
        stat = manifest_path.stat()
        os.utime(manifest_path, (stat.st_atime, stat.st_mtime + 5))
        with pytest.raises(PersistenceError):
            registry.maybe_reload("prod")
        # The previous model keeps serving.
        assert registry.get("prod").version == 1
        assert registry.get("prod").pipeline.is_fitted
    finally:
        manifest_path.write_text(original)


def test_unfitted_pipeline_rejected_in_memory(registry):
    from repro import ProSysPipeline

    with pytest.raises(ValueError, match="unfitted"):
        registry.add_pipeline("mem", ProSysPipeline())
