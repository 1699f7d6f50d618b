"""End-to-end tests of the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("data")
    code = main(["generate", "--out", str(directory), "--scale", "0.01",
                 "--seed", "3"])
    assert code == 0
    return directory


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory, data_dir):
    directory = tmp_path_factory.mktemp("model")
    code = main([
        "train",
        "--data", str(data_dir),
        "--out", str(directory),
        "--features", "mi",
        "--n-features", "60",
        "--tournaments", "80",
        "--som-epochs", "5",
        "--categories", "earn", "grain",
    ])
    assert code == 0
    return directory


def test_generate_writes_sgm(data_dir):
    assert list(data_dir.glob("*.sgm"))


def test_train_writes_model(model_dir):
    assert (model_dir / "manifest.json").exists()
    manifest = json.loads((model_dir / "manifest.json").read_text())
    assert (model_dir / manifest["arrays"]).exists()


def test_evaluate_prints_table(model_dir, data_dir, capsys):
    code = main(["evaluate", "--model", str(model_dir), "--data", str(data_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "Micro Ave." in out
    assert "earn" in out


def test_track_prints_trace(model_dir, data_dir, capsys):
    from repro import load_corpus

    corpus = load_corpus(data_dir)
    doc = corpus.test_for("earn")[0]
    code = main([
        "track", "--model", str(model_dir), "--data", str(data_dir),
        "--doc-id", str(doc.doc_id), "--category", "earn",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "encoded words" in out


def test_track_unknown_doc_fails(model_dir, data_dir, capsys):
    code = main([
        "track", "--model", str(model_dir), "--data", str(data_dir),
        "--doc-id", "999999", "--category", "earn",
    ])
    assert code == 1
    assert "no document" in capsys.readouterr().err


def test_track_unknown_category_fails(model_dir, data_dir, capsys):
    from repro import load_corpus

    corpus = load_corpus(data_dir)
    doc = corpus.test_documents[0]
    code = main([
        "track", "--model", str(model_dir), "--data", str(data_dir),
        "--doc-id", str(doc.doc_id), "--category", "ship",
    ])
    assert code == 1
    assert "no classifier" in capsys.readouterr().err


def test_info_describes_model(model_dir, capsys):
    code = main(["info", "--model", str(model_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "feature selection : mi" in out
    assert "earn" in out


def test_info_missing_model(tmp_path, data_dir, capsys):
    # No manifest, one that is not JSON, and one without its config: for
    # every command that reads a model, each is an error message and
    # exit 1, not a traceback.
    model = tmp_path / "model"
    model.mkdir()
    data = ["--data", str(data_dir)]
    commands = {
        "info": [],
        "evaluate": data,
        "track": data + ["--doc-id", "1", "--category", "earn"],
        "encode": data + ["--store", str(tmp_path / "store")],
        "analyze": [],
        "serve": data + ["--port", "0"],
    }
    for text in (None, "{not json", '{"format_version": 1}'):
        if text is not None:
            (model / "manifest.json").write_text(text)
        for command, arguments in commands.items():
            code = main([command, "--model", str(model), *arguments])
            assert code == 1, (command, text)
            assert capsys.readouterr().err.startswith("error: "), (command, text)


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_analyze_prints_diagnostics(data_dir, capsys):
    code = main(["analyze", "--data", str(data_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "label cardinality" in out
    assert "vocabulary overlaps" in out


def test_analyze_model_verifies_champions(model_dir, capsys):
    code = main(["analyze", "--model", str(model_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "champion program(s)" in out
    assert "verified" in out
    assert "earn" in out and "grain" in out
    assert "FAILED" not in out


def test_analyze_model_and_data_together(model_dir, data_dir, capsys):
    code = main([
        "analyze", "--model", str(model_dir), "--data", str(data_dir),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "verified" in out
    assert "label cardinality" in out


def test_analyze_without_flags_is_a_usage_error(capsys):
    code = main(["analyze"])
    assert code == 2
    assert "--data, --model, and/or --concurrency" in \
        capsys.readouterr().err




# ----------------------------------------------------------------------
# train --jobs / --resume / --progress (the runtime execution layer)
# ----------------------------------------------------------------------

_TRAIN_FLAGS = [
    "--features", "mi", "--n-features", "60",
    "--tournaments", "80", "--som-epochs", "5",
    "--categories", "earn", "grain",
]


def test_train_with_jobs_resume_and_progress(
    data_dir, model_dir, tmp_path, capsys
):
    run_dir = tmp_path / "run"
    out_dir = tmp_path / "model"
    code = main([
        "train", "--data", str(data_dir), "--out", str(out_dir),
        *_TRAIN_FLAGS,
        "--jobs", "2", "--resume", str(run_dir), "--progress",
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert "stage_finished" in err
    events = (run_dir / "events.jsonl").read_text().splitlines()
    assert any('"run_finished"' in line for line in events)
    assert (run_dir / "stages" / "char_som" / "_COMPLETE").exists()

    # Same data, flags and seed as the plain fixture run: the parallel,
    # checkpointed model must be byte-identical to the inline one.
    import json

    parallel = json.loads((out_dir / "manifest.json").read_text())
    inline = json.loads((model_dir / "manifest.json").read_text())
    assert parallel["classifiers"] == inline["classifiers"]

    # A rerun over the same run dir loads every stage instead of training.
    capsys.readouterr()
    code = main([
        "train", "--data", str(data_dir), "--out", str(out_dir),
        *_TRAIN_FLAGS, "--resume", str(run_dir),
    ])
    assert code == 0
    assert "5 stage(s) already complete" in capsys.readouterr().out


def test_train_rejects_unknown_seed_policy(data_dir, tmp_path):
    with pytest.raises(SystemExit):
        main([
            "train", "--data", str(data_dir), "--out", str(tmp_path),
            "--seed-policy", "chaos",
        ])


# ----------------------------------------------------------------------
# dataset store: encode subcommand + store-backed train
# ----------------------------------------------------------------------
def test_encode_materialises_then_reuses(model_dir, data_dir, tmp_path, capsys):
    store_dir = tmp_path / "store"
    code = main([
        "encode",
        "--model", str(model_dir),
        "--data", str(data_dir),
        "--store", str(store_dir),
        "--splits", "train",
    ])
    assert code == 0
    first = capsys.readouterr().out
    assert "encoded" in first
    assert "misses=2" in first  # earn + grain train datasets

    code = main([
        "encode",
        "--model", str(model_dir),
        "--data", str(data_dir),
        "--store", str(store_dir),
        "--splits", "train",
    ])
    assert code == 0
    second = capsys.readouterr().out
    assert "cached" in second
    assert "hits=2" in second
    assert "misses=0" in second
    assert "encoded=0" in second


def test_encode_unknown_category_fails(model_dir, data_dir, tmp_path, capsys):
    code = main([
        "encode",
        "--model", str(model_dir),
        "--data", str(data_dir),
        "--store", str(tmp_path / "store"),
        "--categories", "bogus",
    ])
    assert code == 1
    assert "bogus" in capsys.readouterr().err


def test_train_with_store_reports_stats(data_dir, tmp_path, capsys):
    code = main([
        "train",
        "--data", str(data_dir),
        "--out", str(tmp_path / "model"),
        "--features", "mi",
        "--n-features", "40",
        "--tournaments", "40",
        "--som-epochs", "3",
        "--categories", "earn",
        "--store", str(tmp_path / "store"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "dataset store:" in out
    assert "misses=1" in out
