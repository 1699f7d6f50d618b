"""Load-generate against the serving subsystem and print its metrics.

Trains a tiny model (or reuses ``--model``), starts the HTTP gateway on
an ephemeral port, then fires concurrent ``/classify`` requests at it
from a thread pool -- the concurrency is what lets the micro-batcher
coalesce requests into vectorised batches.  Ends with the throughput
figure and the service's own ``/metrics`` exposition.

Usage::

    python examples/serve_load.py
    python examples/serve_load.py --requests 200 --concurrency 16 --workers 4
    python examples/serve_load.py --model model/ --data data/
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro import GpConfig, ProSysConfig, ProSysPipeline, load_corpus, make_corpus
from repro.corpus.sgml import write_sgml_files
from repro.persistence import save_pipeline
from repro.serve import GatewayServer, InferenceService, ModelRegistry


def _prepare_model(args) -> tuple:
    """(corpus, model_dir): train a small model unless one was given."""
    if args.model and args.data:
        return load_corpus(args.data), Path(args.model)
    print("no --model/--data given; training a small demo model ...")
    corpus = make_corpus(scale=0.02, seed=7)
    config = ProSysConfig(
        feature_method="mi",
        n_features=60,
        som_epochs=6,
        gp=GpConfig().small(tournaments=120),
        seed=7,
    )
    pipeline = ProSysPipeline(config).fit(
        corpus, categories=["earn", "grain", "trade"]
    )
    workdir = Path(tempfile.mkdtemp(prefix="serve_load_"))
    write_sgml_files(corpus.documents, workdir / "data")
    save_pipeline(pipeline, workdir / "model")
    print(f"model saved under {workdir}")
    return corpus, workdir / "model"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", type=Path, default=None)
    parser.add_argument("--data", type=Path, default=None)
    parser.add_argument("--requests", type=int, default=120)
    parser.add_argument("--docs-per-request", type=int, default=4)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    corpus, model_dir = _prepare_model(args)
    registry = ModelRegistry(corpus)
    registry.register("default", model_dir)
    service = InferenceService(registry, n_workers=args.workers)
    gateway = GatewayServer(service).start()
    port = gateway.port
    print(f"service up on http://127.0.0.1:{port}")

    documents = [
        {"id": doc.doc_id, "title": doc.title, "body": doc.body}
        for doc in corpus.test_documents
    ] or [{"id": 0, "text": "grain wheat corn shipment tonnes"}]

    def one_request(i: int) -> int:
        start = i * args.docs_per_request
        batch = [
            documents[(start + j) % len(documents)]
            for j in range(args.docs_per_request)
        ]
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/classify",
            data=json.dumps({"documents": batch}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            return len(json.loads(response.read())["results"])

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=args.concurrency) as executor:
        classified = sum(executor.map(one_request, range(args.requests)))
    elapsed = time.perf_counter() - started

    print(f"\n{classified} documents in {elapsed:.2f}s "
          f"-> {classified / elapsed:.1f} docs/s "
          f"({args.requests / elapsed:.1f} req/s)")
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics") as response:
        print("\n--- /metrics ---")
        print(response.read().decode("utf-8"))

    gateway.close()
    service.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
