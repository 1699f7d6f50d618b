"""The served model the classify workloads run against.

It is fitted once per program version with ``repro.cli train`` (never
timed) and cached under ``.bench_build/repobench/served/<version>``.  The
version hashes every source file of the program plus the build budget
below, so a change to the program builds its own model on its first run;
the models of other versions stay, so alternating between two versions
builds each once.

Budget: a synthetic corpus at ``--scale 0.05`` (seed 21578, the
``generate`` default; 498 documents), all ten categories, MI features,
150 tournaments, 12 SOM epochs, one restart, seed 0.  About 30 s on a
2-vCPU VM.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Tuple

from support import ROOT, SRC, WORK

SERVED_CORPUS = ("--scale", "0.05", "--seed", "21578")
SERVED_TRAIN = ("--features", "mi", "--tournaments", "150",
                "--som-epochs", "12", "--restarts", "1", "--seed", "0")


def program_version() -> str:
    """Digest of the program's sources and the served model's budget."""
    digest = hashlib.sha256(repr((SERVED_CORPUS, SERVED_TRAIN)).encode())
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cli(*args: str, log) -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-m", "repro.cli", *args], cwd=ROOT,
                   env=env, stdout=log, stderr=subprocess.STDOUT, check=True)


def served_model() -> Tuple[Path, Path]:
    """``(model_dir, data_dir)`` for this program version, built if absent."""
    served = WORK / "served"
    target = served / program_version()
    if not (target / "READY").exists():
        staging = served / f"staging-{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        with open(staging / "build.log", "w") as log:
            _cli("generate", "--out", str(staging / "data"), *SERVED_CORPUS,
                 log=log)
            _cli("train", "--data", str(staging / "data"),
                 "--out", str(staging / "model"), *SERVED_TRAIN, log=log)
        (staging / "READY").write_text("ok\n")
        os.replace(staging, target)
    return target / "model", target / "data"
