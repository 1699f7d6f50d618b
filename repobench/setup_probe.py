"""Set-up probe for the ``train`` workload: a fresh interpreter that does the
imports a fit needs and ``load_corpus``, then prints ``ready``.

Usage: ``python3 repobench/setup_probe.py CORPUS_DIR [--trace]``
(``--trace`` installs the training-layer spans first, as a traced run does).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import GpConfig, ProSysConfig, ProSysPipeline, RunContext, load_corpus  # noqa: E402,F401

if "--trace" in sys.argv:
    from spans import Tracer, install_training_layers

    install_training_layers(Tracer(), "mi")
corpus = load_corpus(sys.argv[1])
print(f"ready {len(corpus)}", flush=True)
