"""The ``train`` workload: ``ProSysPipeline.fit`` in process.

A run fits the category mix ``earn`` (frequent), ``grain`` (middling) and
``wheat`` (rare; grain/wheat is the corpus's most overlapping pair) with
the ``train`` CLI's settings except the tournament budget (MI features,
12 SOM epochs, one restart, fused engine; 50 tournaments instead of 600
so that one run holds many fits -- see README.md).  Fit ``k`` uses its
own synthetic corpus (``--scale 0.05``) and GP seed, both derived from
the workload seed.  The number of distinct fits is a function of the
arguments alone (one per ``SECONDS_PER_FIT`` of ``--seconds``, at least
``MIN_FITS``; ``MIN_FITS`` in each pass of a traced run), so a run's work
never depends on how fast the host is.  A last fit repeats fit 0 and
must evolve byte-identical champions.  Fit ``k`` starts on CPU ``k`` mod
the CPUs available (see :func:`support.start_on_cpu`).

Each fit is checked right after it finishes, outside its timing, by
:func:`check_fit`.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import oracle
import spans as spans_module
from support import (ROOT, current_cpu, derive_seed, median, on_cpu,
                     quantile, reset_hwm, start_on_cpu, vm_hwm_mb)

CATEGORIES = ("earn", "grain", "wheat")
SCALE = 0.05
FEATURES = "mi"
TOURNAMENTS = 50
SOM_EPOCHS = 12
#: One distinct fit per this many ``--seconds``, at least MIN_FITS.  A fit
#: takes 3-5 s on the 2-vCPU VM, and identical fits there differ by up to
#: three quarters from one to the next, so a run averages over many: ten
#: at ``--seconds 20``, plus the repeat (a fit and its check take ~6 s).
SECONDS_PER_FIT = 2.0
#: The fewest distinct fits a run makes, and what each pass of a traced
#: run makes.
MIN_FITS = 3
SETUP_LAUNCHES = 11
STAGES = ("tokenize", "features", "char_som", "word_soms", "rlgp")
PROBE = Path(__file__).resolve().parent / "setup_probe.py"


def write_corpus(seed: int, index: int, run_dir: Path) -> Path:
    from repro.corpus.sgml import write_sgml_files
    from repro.corpus.synthetic import SyntheticReutersGenerator

    directory = run_dir / f"corpus-{index}"
    if not directory.exists():
        generator = SyntheticReutersGenerator(
            seed=derive_seed(seed, "corpus", index), scale=SCALE)
        write_sgml_files(generator.generate(), directory)
    return directory


def measure_setup(corpus_dir: Path, traced: bool) -> List[float]:
    """Fresh interpreter -> imports + ``load_corpus`` done, per launch;
    launch ``k`` runs on CPU ``k`` mod the CPUs available."""
    times = []
    for index in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        with on_cpu(index):  # the probe inherits the one-CPU mask
            probe = subprocess.Popen(
                [sys.executable, str(PROBE), str(corpus_dir)]
                + (["--trace"] if traced else []),
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = probe.stdout.readline()
        times.append(time.perf_counter() - start)
        probe.stdout.read()
        if probe.wait() != 0 or not line.startswith("ready"):
            raise RuntimeError(f"set-up probe failed: {line!r}")
    return times


def fit(corpus_dir: Path, gp_seed: int, tracer=None, cpu: int = 0) -> dict:
    """One timed ``ProSysPipeline.fit``, started on CPU ``cpu`` (mod the
    CPUs available), plus what the metrics need."""
    from repro import GpConfig, ProSysConfig, ProSysPipeline, RunContext
    from repro import load_corpus
    from repro.runtime import EventBus

    gc.collect()
    start = time.perf_counter()
    corpus = load_corpus(corpus_dir)
    load_s = time.perf_counter() - start
    events = []
    ctx = RunContext(seed=gp_seed, events=EventBus([events.append]))
    pipeline = ProSysPipeline(ProSysConfig(
        feature_method=FEATURES,
        som_epochs=SOM_EPOCHS,
        gp=GpConfig().small(tournaments=TOURNAMENTS, seed=gp_seed),
        n_restarts=1,
        seed=gp_seed,
    ))
    if tracer is not None:
        tracer.clear()
    reset_hwm()
    start_on_cpu(cpu)
    start = time.perf_counter()
    pipeline.fit(corpus, categories=CATEGORIES, ctx=ctx)
    fit_s = time.perf_counter() - start
    return {
        "cpu": current_cpu(),
        "pipeline": pipeline,
        "corpus": corpus,
        "fit_s": fit_s,
        "load_s": load_s,
        "peak_rss_mb": vm_hwm_mb(os.getpid()),
        "stages": {event.payload["stage"]: event.payload["elapsed"]
                   for event in events
                   if event.kind == "stage_finished" and event.path == ""},
        "tournament_ms": tournament_ms(events),
        "counters": ctx.metrics.snapshot(),
        "spans": list(tracer.spans) if tracer is not None else None,
    }


def check_fit(result: dict) -> Optional[str]:
    """None when every champion matches the reference, else the mismatch.

    Per category: the program's decision values on the test split equal
    the interpreted reference bit for bit, and the champion's threshold
    and training fitness equal Eq. 6 and the balanced SSE recomputed from
    reference outputs on the training split.  Keeps the test documents and
    their reference predictions for ``macro_f1``.
    """
    from repro.classify.threshold import median_threshold
    from repro.gp.fitness import balanced_sse

    pipeline, corpus = result["pipeline"], result["corpus"]
    test = list(corpus.test_documents)
    train = list(corpus.train_documents)
    values = oracle.reference_values_parallel(pipeline, test + train)
    test_values = {category: column[:len(test)]
                   for category, column in values.items()}
    train_values = {category: column[len(test):]
                    for category, column in values.items()}
    for category, classifier in pipeline.suite.classifiers.items():
        served = classifier.decision_values(
            oracle.fresh_sequences(pipeline, test, category))
        if not np.array_equal(served, test_values[category]):
            return f"{category}: decision values differ from the reference"
        labels = np.array([1 if doc.has_topic(category) else -1
                           for doc in train])
        if classifier.threshold != median_threshold(train_values[category],
                                                    labels):
            return f"{category}: threshold differs from Eq. 6 on the reference"
        if classifier.train_fitness != balanced_sse(labels,
                                                    train_values[category]):
            return f"{category}: training fitness differs from the reference"
    result["test_docs"] = test
    result["predicted"] = [oracle.reference_topics(pipeline, test_values, index)
                           for index in range(len(test))]
    return None


def tournament_ms(events) -> List[float]:
    """Milliseconds per RLGP tournament between consecutive ``gp_tick``
    progress events of one evolution (the trainer emits one every
    ``tournaments // 25`` tournaments)."""
    ticks: Dict[tuple, list] = {}
    for event in events:
        if event.kind == "gp_tick":
            key = (event.path, event.payload["seed"])
            ticks.setdefault(key, []).append(
                (event.payload["tournament"], event.timestamp))
    samples = []
    for series in ticks.values():
        series.sort()
        for (t0, at0), (t1, at1) in zip(series, series[1:]):
            samples.append((at1 - at0) / (t1 - t0) * 1000.0)
    return samples


# ----------------------------------------------------------------------
# layer metrics from one traced fit
# ----------------------------------------------------------------------
def fit_layers(result: dict) -> Dict[str, float]:
    spans = result["spans"]
    own = spans_module.self_times(spans)
    children: Dict[int, list] = {}
    for span in spans:
        children.setdefault(span[1], []).append(span)

    def total(name, measure=own):
        return sum(measure[span[0]] for span in spans if span[2] == name)

    def count(name):
        return sum(1 for span in spans if span[2] == name)

    duration = {span[0]: span[4] - span[3] for span in spans}
    engine = [span for span in spans if span[2] == "gp.engine"]
    tournament_size = result["pipeline"].config.gp.tournament_size

    def engine_time(span):
        # The single-program path (RecurrentEvaluator) is engine work;
        # optimizer and plan builds are their own layers.
        return duration[span[0]] - sum(
            duration[child[0]] for child in children.get(span[0], [])
            if child[2] in ("gp.optimize", "gp.plan_build", "gp.repack"))

    single = sum(1 for span in engine if any(
        child[2] == "gp.recurrent_outputs"
        for child in children.get(span[0], [])))
    lookups = [span for span in spans if span[2] == "gp.semantic_cache_get"]
    train_time = total("gp.train", duration)
    threshold = sum(
        duration[span[0]] - sum(duration[child[0]]
                                for child in children.get(span[0], [])
                                if child[2] == "gp.train")
        for span in spans if span[2] == "classify.fit")
    encodes = count("encoding.encode")
    counters = result["counters"]
    stages = result["stages"]
    layers = {f"runtime.stage.{stage}_s": stages.get(stage, 0.0)
              for stage in STAGES}
    layers.update({
        "preprocessing.tokenize_s": total("preprocessing.tokenize"),
        "features.select_s": total("features.select"),
        "som.train_s": total("som.train"),
        "encoding.encode_dataset_s": total("encoding.encode_dataset", duration),
        "gp.tournaments_per_s": sum(
            span[6] for span in spans if span[2] == "gp.train"
        ) / train_time if train_time else 0.0,
        "gp.dss_s": total("gp.dss"),
        "gp.repacks": count("gp.repack"),
        "gp.repack_s": total("gp.repack"),
        "gp.semantic_cache_hit_ratio": sum(1 for span in lookups if span[6])
        / len(lookups) if lookups else 0.0,
        "gp.semantic_cache_lookups": len(lookups),
        "gp.optimize_s": total("gp.optimize"),
        "gp.plan_builds": count("gp.plan_build"),
        "gp.plan_build_s": total("gp.plan_build"),
        "gp.engine_tournament_s": sum(engine_time(span) for span in engine
                                      if span[6] <= tournament_size),
        "gp.engine_finalise_s": sum(engine_time(span) for span in engine
                                    if span[6] > tournament_size),
        "gp.programs_per_call": sum(span[6] for span in engine) / len(engine)
        if engine else 0.0,
        "gp.single_program_share": single / len(engine) if engine else 0.0,
        "gp.instructions": counters.get("engine_instructions_executed_total",
                                        0.0),
        "gp.dedup_hits": counters.get("engine_dedup_hits_total", 0.0),
        "gp.fitness_s": total("gp.fitness"),
        "gp.breed_s": total("gp.breed"),
        "classify.threshold_s": threshold,
        "corpus.load_s": result["load_s"],
        "preprocessing.tokenize_ms_per_doc":
            total("preprocessing.tokenize") / count("preprocessing.tokenize")
            * 1000.0 if count("preprocessing.tokenize") else 0.0,
        "encoding.encode_ms_per_doc":
            total("encoding.encode") / (encodes / len(CATEGORIES)) * 1000.0
            if encodes else 0.0,
        "trace.unattributed.fit_s": result["fit_s"] - sum(stages.values()),
    })
    return layers


# ----------------------------------------------------------------------
# a run
# ----------------------------------------------------------------------
def distinct_fits(seconds: float) -> int:
    """Distinct fits a run makes: a function of ``--seconds`` alone."""
    return max(MIN_FITS, int(seconds // SECONDS_PER_FIT))


def run_pass(seed: int, n_distinct: int, run_dir: Path,
             tracer=None) -> dict:
    """The set-up launches, ``n_distinct`` distinct fits, then the
    determinism repeat of fit 0."""
    setup_times = measure_setup(write_corpus(seed, 0, run_dir),
                                tracer is not None)
    fits, problems, champions = [], [], {}
    for index in range(n_distinct):
        result = fit(write_corpus(seed, index, run_dir),
                     derive_seed(seed, "gp", index), tracer, cpu=index)
        result["n_train"] = len(result["corpus"].train_documents)
        problem = check_fit(result)
        if problem:
            problems.append(f"fit {index}: {problem}")
        champions[index] = oracle.champion_bytes(result["pipeline"])
        if tracer is not None:
            result["layers"] = fit_layers(result)
        del result["pipeline"], result["corpus"], result["spans"]
        fits.append(result)
    distinct = list(fits)
    # The determinism check: fit 0 again.  Its time is a sample too.
    repeat = fit(write_corpus(seed, 0, run_dir), derive_seed(seed, "gp", 0),
                 tracer, cpu=n_distinct)
    if oracle.champion_bytes(repeat["pipeline"]) != champions[0]:
        problems.append("repeated fit 0 evolved different champions")
    if tracer is not None:
        repeat["layers"] = fit_layers(repeat)
    del repeat["pipeline"], repeat["corpus"], repeat["spans"]
    repeat["n_train"] = fits[0]["n_train"]
    fits.append(repeat)
    return {"setup_times": setup_times, "fits": fits, "distinct": distinct,
            "problems": problems, "champions": champions,
            "attempted": len(fits)}


def end_to_end(result: dict) -> Dict[str, float]:
    """The run's end-to-end metrics; see README.md for each definition."""
    fits = result["fits"]
    # F1 from the counts pooled over the distinct fits, not a mean of
    # per-fit F1: a test split holds ~4 wheat documents, so one fit's
    # wheat F1 moves in steps of 0.2 or more.
    ok = [fit for fit in result["distinct"] if "predicted" in fit]
    tournaments = [value for fit in fits for value in fit["tournament_ms"]]
    # Means, not medians, over the fits: they start on alternating CPUs,
    # and the mean weighs both CPUs alike when their speeds differ.
    fitting = sum(fit["fit_s"] for fit in fits)
    return {
        "setup_s": median(result["setup_times"]),
        "fit_s": fitting / len(fits),
        "macro_f1": oracle.macro_f1(
            CATEGORIES, [doc for fit in ok for doc in fit["test_docs"]],
            [topics for fit in ok for topics in fit["predicted"]]),
        "docs_per_s": sum(fit["n_train"] for fit in fits)
        * len(CATEGORIES) / fitting,
        "p50_ms": quantile(tournaments, 0.5),
        "p90_ms": quantile(tournaments, 0.9),
        "ok_share": (result["attempted"] - len(result["problems"]))
        / result["attempted"],
        "peak_rss_mb": median([fit["peak_rss_mb"] for fit in fits]),
    }


def run(seed: int, seconds: float, traced: bool, run_dir: Path) -> dict:
    # A traced run prints only per-layer metrics, which carry no bound, so
    # its two passes make the fewest fits: that keeps it as short as an
    # untraced run.
    n_distinct = MIN_FITS if traced else distinct_fits(seconds)
    plain = run_pass(seed, n_distinct, run_dir)
    outcome = {
        "attempted": plain["attempted"],
        "failed": len(plain["problems"]),
        "problems": list(plain["problems"]),
        "plain": end_to_end(plain),
        "plain_fits": [round(fit["fit_s"], 3) for fit in plain["fits"]],
        "plain_fit_cpus": [fit["cpu"] for fit in plain["fits"]],
        "tournament_samples": sum(len(fit["tournament_ms"])
                                  for fit in plain["fits"]),
    }
    if traced:
        tracer = spans_module.Tracer()
        spans_module.install_training_layers(tracer, FEATURES)
        try:
            traced_pass = run_pass(seed, n_distinct, run_dir, tracer)
        finally:
            tracer.uninstall()
        outcome["attempted"] += traced_pass["attempted"]
        outcome["failed"] += len(traced_pass["problems"])
        outcome["problems"] += traced_pass["problems"]
        for index, champion in traced_pass["champions"].items():
            if champion != plain["champions"][index]:
                outcome["failed"] += 1
                outcome["problems"].append(
                    f"traced fit {index} evolved different champions")
        outcome["traced"] = end_to_end(traced_pass)
        names = traced_pass["fits"][0]["layers"]
        outcome["layers"] = {
            name: median([fit["layers"][name] for fit in traced_pass["fits"]])
            for name in names
        }
        outcome["layers"]["trace.unattributed.setup_s"] = (
            outcome["traced"]["setup_s"] - outcome["layers"]["corpus.load_s"])
    return outcome
