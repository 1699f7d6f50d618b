"""Bit-identity guardrail for the contingency-substrate refactor.

The refactor rewrote every selector's scoring path; these tests pin the
observable contract: selections are *identical* to the pre-refactor
scalar implementations (preserved verbatim in ``repro.features.legacy``),
per-category dataset-store fingerprints do not move, and a pipeline
fitted through the vectorized path saves byte-identical champions to one
fitted on the legacy selection.
"""

import json

import numpy as np
import pytest

from repro import GpConfig, ProSysConfig, ProSysPipeline
from repro.data.fingerprint import features_fingerprint
from repro.features import ALL_SELECTORS, MutualInformationSelector
from repro.features.legacy import legacy_select
from repro.persistence import save_pipeline

CATEGORIES = ["earn", "grain"]


@pytest.mark.parametrize("method", ["df", "ig", "mi", "chi2", "nouns"])
def test_selector_matches_legacy_and_addresses_stable(tokenized, method):
    new = ALL_SELECTORS[method](40).select(tokenized)
    legacy = legacy_select(method, tokenized, 40)
    assert new == legacy
    # features_fingerprint is the only selection-dependent input to
    # DatasetStore addresses -- equal fingerprints mean every stored
    # dataset re-opens at its pre-refactor key.
    for category in tokenized.categories:
        assert features_fingerprint(new, category) == features_fingerprint(
            legacy, category
        )


def _fit(corpus):
    config = ProSysConfig(
        feature_method="mi",
        n_features=30,
        som_epochs=4,
        gp=GpConfig().small(tournaments=60),
        seed=3,
    )
    return ProSysPipeline(config).fit(corpus, categories=CATEGORIES)


def test_pipeline_champions_byte_identical(corpus, tmp_path, monkeypatch):
    """A/B refit: the vectorized MI path and the legacy scalar path must
    train the same champions and serialise the same artifacts."""
    vectorized = _fit(corpus)

    def select_via_legacy(self, tokenized, n_jobs=0):
        return legacy_select("mi", tokenized, self.n_features)

    monkeypatch.setattr(MutualInformationSelector, "select", select_via_legacy)
    legacy = _fit(corpus)

    assert vectorized.feature_set == legacy.feature_set

    a_dir = save_pipeline(vectorized, tmp_path / "a")
    b_dir = save_pipeline(legacy, tmp_path / "b")
    a_manifest = (a_dir / "manifest.json").read_bytes()
    b_manifest = (b_dir / "manifest.json").read_bytes()
    # Champions, thresholds, encoders, feature sets: all inside the
    # manifest; byte equality is the whole claim.
    assert a_manifest == b_manifest

    with np.load(a_dir / json.loads(a_manifest)["arrays"]) as a_arrays, np.load(
        b_dir / json.loads(b_manifest)["arrays"]
    ) as b_arrays:
        assert set(a_arrays.files) == set(b_arrays.files)
        for name in a_arrays.files:
            assert np.array_equal(a_arrays[name], b_arrays[name]), name

    manifest = json.loads(a_manifest)
    assert set(manifest["classifiers"]) == set(CATEGORIES)
