"""Run ``repro.cli serve``, optionally with the benchmark's spans installed.

Usage::

    python3 repobench/serve_launcher.py [--trace-dir DIR] <serve arguments>

With ``--trace-dir`` the serving layers are wrapped (see
:func:`spans.install_serving_layers`) before ``repro.cli.main`` runs; the
server process writes ``DIR/server.json`` when it stops and every
evaluation worker writes ``DIR/worker-<pid>.json`` when it leaves its
loop.  SIGTERM is turned into the Ctrl-C the CLI already handles, so the
server closes its worker pool on either signal.  Ctrl-C is restored too:
a process a shell starts in the background inherits SIGINT ignored, and
the server would then wait out the benchmark's stop timeout and be
killed instead of closing its pool.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def _interrupt(_signum, _frame) -> None:
    raise KeyboardInterrupt


def main(argv) -> int:
    trace_dir = None
    if argv[:1] == ["--trace-dir"]:
        trace_dir, argv = Path(argv[1]), argv[2:]
    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    import repro.cli

    tracer = None
    if trace_dir is not None:
        import repro.serve.workers as workers
        from spans import Tracer, install_serving_layers

        tracer = Tracer()
        install_serving_layers(tracer)
        worker_main = workers._worker_main

        def traced_worker_main(*args):
            tracer.clear()  # what the parent recorded before the fork
            try:
                return worker_main(*args)
            finally:
                tracer.dump(trace_dir / f"worker-{os.getpid()}.json")

        tracer.patch(workers, "_worker_main", traced_worker_main)
    try:
        return repro.cli.main(["serve", *argv])
    finally:
        if tracer is not None:
            tracer.dump(trace_dir / "server.json")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
