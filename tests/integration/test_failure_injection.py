"""Failure-injection tests: corrupted inputs must fail loudly, not wrongly."""

import json

import numpy as np
import pytest

from repro.corpus.sgml import SgmlError, parse_sgml
from repro.gp.config import GpConfig
from repro.gp.engine import FusedEngine
from repro.gp.program import Program, REGISTER_LIMIT
from repro.persistence import PersistenceError, load_pipeline
from repro.serve.metrics import MetricsRegistry

CONFIG = GpConfig().small(tournaments=10)


# ----------------------------------------------------------------------
# corrupted SGML
# ----------------------------------------------------------------------
def test_truncated_reuters_element_skipped():
    """An unterminated REUTERS element cannot match; no silent garbage."""
    text = '<REUTERS TOPICS="YES" NEWID="1"><TOPICS><D>earn</D></TOPICS>'
    assert parse_sgml(text) == []


def test_interleaved_garbage_between_documents():
    text = (
        '<REUTERS TOPICS="YES" LEWISSPLIT="TRAIN" NEWID="1">'
        "<TOPICS><D>earn</D></TOPICS><TEXT><BODY>ok</BODY></TEXT></REUTERS>"
        "\x00\xff#$%^&* random bytes %%%\n"
        '<REUTERS TOPICS="YES" LEWISSPLIT="TEST" NEWID="2">'
        "<TOPICS><D>acq</D></TOPICS><TEXT><BODY>fine</BODY></TEXT></REUTERS>"
    )
    docs = parse_sgml(text)
    assert [d.doc_id for d in docs] == [1, 2]


def test_non_numeric_newid_raises():
    with pytest.raises(ValueError):
        parse_sgml('<REUTERS TOPICS="YES" NEWID="abc">x</REUTERS>')


# ----------------------------------------------------------------------
# hostile sequences through the evaluator
# ----------------------------------------------------------------------
def _random_program(seed=0):
    from random import Random

    return Program.random(Random(seed), CONFIG, page_size=1)


def test_extreme_input_values_stay_finite():
    engine = FusedEngine(CONFIG, metrics=MetricsRegistry())
    hostile = [
        np.array([[1e308, -1e308], [1e-320, 0.0], [np.finfo(float).max, 1.0]])
    ]
    programs = [_random_program(seed) for seed in range(5)]
    outputs = engine.outputs(programs, engine.pack(hostile))
    assert np.all(np.isfinite(outputs))
    assert np.all(np.abs(outputs) <= REGISTER_LIMIT)


def test_interpreted_path_also_clamps():
    program = _random_program(3)
    registers = program.run_sequence(np.full((10, 2), 1e300))
    assert np.all(np.isfinite(registers))


def test_nan_inputs_do_not_crash():
    """NaN inputs cannot occur from the encoder, but a hostile caller's
    NaNs must not hang or raise inside the evaluator."""
    engine = FusedEngine(CONFIG, metrics=MetricsRegistry())
    sequences = [np.array([[np.nan, 0.5], [0.5, np.nan]])]
    outputs = engine.outputs([_random_program(1)], engine.pack(sequences))
    assert outputs.shape == (1, 1)


# ----------------------------------------------------------------------
# corrupted model directories
# ----------------------------------------------------------------------
def test_missing_arrays_file(tmp_path, corpus):
    (tmp_path / "manifest.json").write_text("{}")
    with pytest.raises(PersistenceError):
        load_pipeline(tmp_path, corpus)


def test_malformed_manifest_json(tmp_path, corpus):
    (tmp_path / "manifest.json").write_text("{not json")
    (tmp_path / "arrays-00.npz").write_bytes(b"junk")
    with pytest.raises((PersistenceError, json.JSONDecodeError, ValueError)):
        load_pipeline(tmp_path, corpus)
