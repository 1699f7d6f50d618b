"""Store-backed training: bit-identical models, zero re-encoding on reuse."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import GpConfig, ProSysConfig, ProSysPipeline, make_corpus
from repro.data import DatasetStore
from repro.persistence import save_pipeline
from repro.serve.metrics import MetricsRegistry

CATEGORY = "earn"


@pytest.fixture(scope="module")
def small_corpus():
    return make_corpus(scale=0.01, seed=11)


@pytest.fixture(scope="module")
def config():
    return ProSysConfig(
        feature_method="mi",
        n_features=50,
        som_epochs=4,
        gp=GpConfig().small(tournaments=60),
        seed=17,
    )


def _model_payload(pipeline, directory):
    save_pipeline(pipeline, directory)
    manifest = (directory / "manifest.json").read_bytes()
    with np.load(directory / json.loads(manifest)["arrays"]) as archive:
        arrays = {name: archive[name].copy() for name in archive.files}
    return manifest, arrays


@pytest.fixture(scope="module")
def baseline(small_corpus, config, tmp_path_factory):
    pipeline = ProSysPipeline(config).fit(small_corpus, categories=(CATEGORY,))
    payload = _model_payload(pipeline, tmp_path_factory.mktemp("baseline"))
    return pipeline, payload


@pytest.fixture(scope="module")
def store_root(tmp_path_factory):
    return tmp_path_factory.mktemp("pipeline-store") / "store"


def test_cold_store_training_is_bit_identical(
    small_corpus, config, store_root, baseline, tmp_path_factory
):
    store = DatasetStore(store_root, metrics=MetricsRegistry())
    pipeline = ProSysPipeline(config, data_store=store).fit(
        small_corpus, categories=(CATEGORY,)
    )
    assert store.stats()["misses"] >= 1  # cold: everything encoded + persisted
    manifest, arrays = _model_payload(pipeline, tmp_path_factory.mktemp("cold"))
    base_manifest, base_arrays = baseline[1]
    assert manifest == base_manifest
    assert set(arrays) == set(base_arrays)
    for name in arrays:
        assert np.array_equal(arrays[name], base_arrays[name]), name


def test_warm_store_training_encodes_nothing(
    small_corpus, config, store_root, baseline, tmp_path_factory
):
    # Runs after the cold test sealed the train dataset into store_root.
    store = DatasetStore(store_root, metrics=MetricsRegistry())
    pipeline = ProSysPipeline(config, data_store=store).fit(
        small_corpus, categories=(CATEGORY,)
    )
    stats = store.stats()
    assert stats["hits"] == 1
    assert stats["misses"] == 0
    assert stats["encoded_documents"] == 0  # the encode-reuse guarantee
    manifest, arrays = _model_payload(pipeline, tmp_path_factory.mktemp("warm"))
    base_manifest, base_arrays = baseline[1]
    assert manifest == base_manifest
    for name in arrays:
        assert np.array_equal(arrays[name], base_arrays[name]), name


def test_store_backed_evaluate_matches_plain(
    small_corpus, config, store_root, baseline
):
    plain = baseline[0]
    store = DatasetStore(store_root, metrics=MetricsRegistry())
    backed = ProSysPipeline(config, data_store=store).fit(
        small_corpus, categories=(CATEGORY,)
    )
    plain_scores = plain.evaluate("test")
    backed_scores = backed.evaluate("test")  # miss: encodes + persists "test"
    assert backed_scores.per_category == plain_scores.per_category

    rescored = backed.evaluate("test")  # hit: scores off the memmap
    assert store.stats()["hits"] >= 2
    assert rescored.per_category == plain_scores.per_category


def test_hit_and_miss_events_reach_the_run_context(
    small_corpus, config, tmp_path
):
    from repro.runtime import RunContext
    from repro.runtime.events import EventBus

    seen = []
    store = DatasetStore(tmp_path / "store", metrics=MetricsRegistry())
    ctx = RunContext(seed=config.seed, events=EventBus([seen.append]))
    ProSysPipeline(config, data_store=store).fit(
        small_corpus, categories=(CATEGORY,), ctx=ctx
    )
    kinds = [event.kind for event in seen]
    assert "dataset_store_miss" in kinds
    assert "dataset_store_written" in kinds
    index_payload = json.loads(
        (store.path_for(store.keys()[0]) / "index.json").read_text()
    )
    assert index_payload["category"] == CATEGORY
    assert index_payload["split"] == "train"
