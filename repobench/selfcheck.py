"""Self-check of the benchmark at tiny size (about a minute and a half).

Usage (from the root of a checkout)::

    python3 repobench/selfcheck.py

Checks that

1. every workload -- those ``BENCHMARK.json`` lists and ``classify_bulk``,
   which runs by hand -- untraced and traced, prints exactly the metrics
   ``BENCHMARK.json`` names, with their units, and a correct result;
2. the oracle rejects a corrupted classify response and a corrupted
   champion (program or threshold);
3. the benchmark refuses to run outside a checkout.

Sizes are shrunk by patching the workload modules' constants in this
process only; the workloads themselves are unchanged.  Exits 1 on the
first failed check.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys

from support import ROOT, SRC, WORK

sys.path.insert(0, str(SRC))

import classify_bench  # noqa: E402
import run  # noqa: E402
import train_bench  # noqa: E402


def fail(message: str) -> None:
    print(f"selfcheck FAILED: {message}")
    sys.exit(1)


def shrink() -> None:
    train_bench.TOURNAMENTS = 20
    train_bench.MIN_FITS = 1
    train_bench.SETUP_LAUNCHES = 1
    classify_bench.SETUP_LAUNCHES = 2
    classify_bench.QUALITY_DOCS = 32


def check_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    listed = [w["name"] for w in spec["workloads"]]
    if not set(listed) <= set(run.WORKLOADS):
        fail(f"BENCHMARK.json lists unknown workloads: {listed}")
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", workload, "--seed", "7",
                                 "--seconds", "1", "--trace", str(trace)])
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            printed = {name: metric["unit"]
                       for name, metric in result["metrics"].items()}
            if code != 0 or not result["correct"]:
                fail(f"{workload} trace={trace}: run not correct:\n"
                     f"{out.getvalue()[-3000:]}")
            if printed != wanted[trace]:
                fail(f"{workload} trace={trace}: metrics differ from "
                     f"BENCHMARK.json: {sorted(set(printed) ^ set(wanted[trace]))}")
            print(f"ok: {workload} trace={trace} prints "
                  f"{len(printed)} metrics")


def check_classify_oracle() -> None:
    import artifacts

    model_dir, data_dir = artifacts.served_model()
    run_dir = WORK / "selfcheck"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        result = classify_bench.run_pass("classify_bulk", 3, 1.0, False,
                                         model_dir, data_dir, run_dir)
    finally:
        classify_bench.stop_all()
    good = result["timed"][0]
    verdict, _ = classify_bench.check_answers(
        [good], result["quality"], model_dir, data_dir)
    if not verdict[id(good)]:
        fail("a genuine classify answer was rejected")
    answer = json.loads(good.body)
    corruptions = {
        "decision value": lambda r: r["decision_values"].update(
            {k: v + 1e-12 for k, v in r["decision_values"].items()}),
        "topics": lambda r: r["topics"].append("not-a-topic"),
        "doc_id": lambda r: r.update(doc_id=r["doc_id"] + 1),
    }
    for label, corrupt in corruptions.items():
        bad = copy.copy(good)
        body = copy.deepcopy(answer)
        corrupt(body["results"][-1])
        bad.body = json.dumps(body).encode()
        verdict, _ = classify_bench.check_answers(
            [bad], result["quality"], model_dir, data_dir)
        if verdict[id(bad)]:
            fail(f"the classify oracle accepted a corrupted {label}")
        print(f"ok: classify oracle rejects a corrupted {label}")


def check_train_oracle() -> None:
    run_dir = WORK / "selfcheck"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    fitted = train_bench.fit(train_bench.write_corpus(3, 0, run_dir), 3)
    if train_bench.check_fit(fitted):
        fail(f"a genuine fit was rejected: {train_bench.check_fit(fitted)}")
    classifiers = fitted["pipeline"].suite.classifiers
    classifier = classifiers["grain"]
    original_program, original_threshold = (classifier.program,
                                            classifier.threshold)
    classifier.program = classifiers["earn"].program  # another champion
    if not train_bench.check_fit(fitted):
        fail("the train oracle accepted a corrupted champion program")
    print("ok: train oracle rejects a corrupted champion program")
    classifier.program = original_program
    classifier.threshold = original_threshold + 1e-9
    if not train_bench.check_fit(fitted):
        fail("the train oracle accepted a corrupted champion threshold")
    print("ok: train oracle rejects a corrupted champion threshold")


def check_refuses_outside_checkout() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "repobench", bare / "repobench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "repobench/run.py", "--workload", "train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        fail("the benchmark ran outside a checkout")
    print(f"ok: refuses outside a checkout (exit {done.returncode})")


if __name__ == "__main__":
    shrink()
    check_refuses_outside_checkout()
    check_train_oracle()
    check_classify_oracle()
    check_metrics()
    shutil.rmtree(WORK / "selfcheck", ignore_errors=True)
    print("selfcheck passed")
