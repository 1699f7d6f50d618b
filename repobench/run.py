"""Repository benchmark: the ``train`` and ``classify`` paths end to end.

Usage (from the root of a checkout)::

    python3 repobench/run.py --workload train --seed 1 --seconds 20 --trace 0

Workloads: ``train``, ``classify_bulk``, ``classify_single`` (see
README.md).  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
also runs a traced pass after the plain one and prints the per-layer
metrics, the part of each end-to-end number no layer accounts for
(``trace.unattributed.*``) and the tracing overhead
(``trace.overhead.*``).  The last line of standard output is the result
object; the lines before it are diagnostics.  Exits 2 outside a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

from support import (SRC, WORK, cpu_ticks, emit_result, host_probe,
                     require_checkout)

WORKLOADS = ("train", "classify_bulk", "classify_single")

#: End-to-end metrics, printed by every workload (README.md defines each
#: per workload).
END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "macro_f1": "1",
    "docs_per_s": "docs/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "ok_share": "1",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics, printed by every traced run (0 where a layer does
#: no work in the workload).
PER_LAYER = {
    "runtime.stage.tokenize_s": "s",
    "runtime.stage.features_s": "s",
    "runtime.stage.char_som_s": "s",
    "runtime.stage.word_soms_s": "s",
    "runtime.stage.rlgp_s": "s",
    "preprocessing.tokenize_s": "s",
    "features.select_s": "s",
    "som.train_s": "s",
    "encoding.encode_dataset_s": "s",
    "gp.tournaments_per_s": "1/s",
    "gp.dss_s": "s",
    "gp.repacks": "count",
    "gp.repack_s": "s",
    "gp.semantic_cache_hit_ratio": "1",
    "gp.semantic_cache_lookups": "count",
    "gp.optimize_s": "s",
    "gp.plan_builds": "count",
    "gp.plan_build_s": "s",
    "gp.engine_tournament_s": "s",
    "gp.engine_finalise_s": "s",
    "gp.programs_per_call": "programs",
    "gp.single_program_share": "1",
    "gp.instructions": "count",
    "gp.dedup_hits": "count",
    "gp.fitness_s": "s",
    "gp.breed_s": "s",
    "classify.threshold_s": "s",
    "corpus.load_s": "s",
    "persistence.load_s": "s",
    "serve.workers.spawn_s": "s",
    "serve.frontend_p50_ms": "ms",
    "serve.service_p50_ms": "ms",
    "serve.service_p90_ms": "ms",
    "serve.batcher.wait_p50_ms": "ms",
    "serve.batcher.wait_p90_ms": "ms",
    "serve.batcher.batch_size_mean": "docs",
    "serve.encode_p50_ms": "ms",
    "serve.cache.hit_ratio": "1",
    "serve.cache.lookups": "count",
    "serve.cache.evictions": "count",
    "preprocessing.tokenize_ms_per_doc": "ms",
    "encoding.encode_ms_per_doc": "ms",
    "serve.workers.fanout_p50_ms": "ms",
    "serve.workers.handoff_ms_per_job": "ms",
    "serve.workers.jobs_per_batch": "jobs",
    "serve.workers.job_p50_ms": "ms",
    "serve.workers.shm_sequences": "count",
    "serve.workers.pickled_sequences": "count",
    "serve.http_errors": "count",
    "serve.admission.shed": "count",
    "trace.unattributed.setup_s": "s",
    "trace.unattributed.fit_s": "s",
    "trace.unattributed.p50_ms": "ms",
    **{f"trace.overhead.{name}": unit for name, unit in END_TO_END.items()},
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    reason = require_checkout()
    if reason is not None:
        print(f"repobench: {reason}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import artifacts
    import classify_bench
    import train_bench

    # The served model is built by the first run in a checkout, whatever
    # its workload (``train`` is listed first), so no later run pays for it.
    served = artifacts.served_model()

    signal.signal(signal.SIGTERM, classify_bench.stop_all)
    run_dir = WORK / "runs" / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    probe_start, ticks_start = host_probe(), cpu_ticks()
    try:
        if args.workload == "train":
            outcome = train_bench.run(args.seed, args.seconds,
                                      bool(args.trace), run_dir)
        else:
            outcome = classify_bench.run(args.workload, args.seed,
                                         args.seconds, bool(args.trace),
                                         run_dir, *served)
    finally:
        classify_bench.stop_all()
        shutil.rmtree(run_dir, ignore_errors=True)
    probe_end, ticks_end = host_probe(), cpu_ticks()

    diagnostics = {key: value for key, value in outcome.items()
                   if key not in ("layers",)}
    diagnostics["host_probe_s"] = [round(probe_start, 4), round(probe_end, 4)]
    diagnostics["host_steal_share"] = round(
        (ticks_end[0] - ticks_start[0]) / max(ticks_end[1] - ticks_start[1], 1),
        4)
    print("diagnostics " + json.dumps(diagnostics, default=str))
    for problem in outcome["problems"]:
        print(f"problem: {problem}")
    for warning in outcome.get("warnings", []):
        print(f"warning: {warning}")

    plain = outcome["plain"]
    if args.trace:
        traced = outcome["traced"]
        values = {name: 0.0 for name in PER_LAYER}
        values.update(outcome["layers"])
        for name in END_TO_END:
            values[f"trace.overhead.{name}"] = traced[name] - plain[name]
        metrics = {name: (values[name], unit)
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: (plain[name], unit)
                   for name, unit in END_TO_END.items()}
    correct = outcome["failed"] == 0 and not outcome["problems"]
    emit_result(correct, outcome["attempted"], outcome["failed"], metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
