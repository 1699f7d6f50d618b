"""Command-line interface.

Subcommands::

    python -m repro.cli generate --out data/ --scale 0.05
    python -m repro.cli train    --data data/ --features ig --out model/ \
                                 --jobs 4 --resume runs/r1 --progress
    python -m repro.cli evaluate --model model/ --data data/
    python -m repro.cli track    --model model/ --data data/ --doc-id 42 \
                                 --category earn
    python -m repro.cli info     --model model/
    python -m repro.cli encode   --model model/ --data data/ --store store/
    python -m repro.cli serve    --model model/ --data data/ --port 8080 \
                                 --max-inflight 256
    python -m repro.cli rollout  --url http://127.0.0.1:8080 \
                                 --candidate v2 --drive data/
    python -m repro.cli drift-eval --data data/ --features mi --tournaments 80

``--data`` accepts any directory of Reuters-21578-format ``.sgm`` files
(the real distribution or one written by ``generate``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro import GpConfig, ProSysConfig, ProSysPipeline, load_corpus
from repro.corpus.sgml import write_sgml_files
from repro.corpus.synthetic import SyntheticReutersGenerator
from repro.evaluation.reporting import format_table
from repro.persistence import (
    PersistenceError,
    load_pipeline,
    read_manifest,
    save_pipeline,
)


def _add_data_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--data", required=True, type=Path,
        help="directory of Reuters-21578-format .sgm files",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Temporal document classification "
                    "(Luo & Zincir-Heywood, ICDE 2007 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="write a synthetic Reuters-like corpus as .sgm files"
    )
    generate.add_argument("--out", required=True, type=Path)
    generate.add_argument("--scale", type=float, default=0.05,
                          help="fraction of the real collection's size")
    generate.add_argument("--seed", type=int, default=21578)
    generate.add_argument("--epochs", type=int, default=1,
                          help="monthly epochs to spread documents over "
                               "(DATE fields start at JAN-1987)")
    generate.add_argument("--drift-epoch", type=int, default=None,
                          help="epoch at which drift kicks in "
                               "(default: the last epoch)")
    generate.add_argument("--vocab-churn", type=float, default=0.0,
                          help="fraction of drifted categories' keywords "
                               "replaced from the drift epoch on")
    generate.add_argument("--topic-shift", type=float, default=0.0,
                          help="extra document mass drifted categories "
                               "receive from the drift epoch on")
    generate.add_argument("--label-drift", type=float, default=0.0,
                          help="co-label correlation flip strength for "
                               "drifted categories")
    generate.add_argument("--drift-categories", nargs="*", default=(),
                          help="categories the drift knobs apply to")

    train = commands.add_parser("train", help="fit the ProSys pipeline")
    _add_data_argument(train)
    train.add_argument("--out", required=True, type=Path,
                       help="model output directory")
    train.add_argument("--features", default="mi",
                       choices=["df", "ig", "mi", "nouns", "chi2",
                                "round_robin"])
    train.add_argument("--n-features", type=int, default=None)
    train.add_argument("--tournaments", type=int, default=600)
    train.add_argument("--restarts", type=int, default=1)
    train.add_argument("--som-epochs", type=int, default=12)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--categories", nargs="*", default=None,
                       help="subset of categories (default: all ten)")
    train.add_argument("--jobs", type=int, default=0,
                       help="worker processes for per-category fits "
                            "(0 = inline)")
    train.add_argument("--resume", type=Path, default=None, metavar="RUNDIR",
                       help="stage checkpoint directory; stages already "
                            "complete there are loaded instead of retrained")
    train.add_argument("--progress", action="store_true",
                       help="stream structured progress events to stderr "
                            "(and to RUNDIR/events.jsonl with --resume)")
    train.add_argument("--seed-policy", default="legacy",
                       choices=["legacy", "tree"],
                       help="legacy keeps historical per-stage seed "
                            "arithmetic; tree derives seeds from run paths")
    train.add_argument("--store", type=Path, default=None, metavar="STOREDIR",
                       help="content-addressed dataset store; encoded "
                            "sequences are loaded from it when present "
                            "and persisted to it when not")

    evaluate = commands.add_parser("evaluate", help="score a trained model")
    evaluate.add_argument("--model", required=True, type=Path)
    _add_data_argument(evaluate)
    evaluate.add_argument("--split", default="test", choices=["train", "test"])

    track = commands.add_parser(
        "track", help="per-word output-register trace for one document"
    )
    track.add_argument("--model", required=True, type=Path)
    _add_data_argument(track)
    track.add_argument("--doc-id", required=True, type=int)
    track.add_argument("--category", required=True)

    info = commands.add_parser("info", help="describe a saved model")
    info.add_argument("--model", required=True, type=Path)

    encode = commands.add_parser(
        "encode",
        help="pre-materialise a corpus's encoded sequences into a "
             "dataset store",
    )
    encode.add_argument("--model", required=True, type=Path,
                        help="saved model whose encoder defines the "
                             "content addresses")
    _add_data_argument(encode)
    encode.add_argument("--store", required=True, type=Path,
                        help="dataset store directory (created if missing)")
    encode.add_argument("--splits", nargs="*", default=["train", "test"],
                        choices=["train", "test"])
    encode.add_argument("--categories", nargs="*", default=None,
                        help="subset of the model's categories "
                             "(default: all)")

    analyze = commands.add_parser(
        "analyze",
        help="corpus diagnostics (--data) and/or static verification of "
             "a saved model's champion programs (--model)",
    )
    analyze.add_argument(
        "--data", type=Path, default=None,
        help="directory of Reuters-21578-format .sgm files",
    )
    analyze.add_argument(
        "--model", type=Path, default=None,
        help="saved model directory; runs the IR dataflow verifier and "
             "numeric-safety report over its champion programs",
    )
    analyze.add_argument(
        "--concurrency", nargs="?", type=Path, const=None,
        default=argparse.SUPPRESS, metavar="TREE",
        help="run the static lock-order analyzer over a source tree "
             "(default: the installed repro package)",
    )
    analyze.add_argument(
        "--allowlist", type=Path, default=None,
        help="lock-order allowlist (default: ./lockorder.allow if it "
             "exists); reprolint.allow syntax, unused entries fail",
    )
    analyze.add_argument(
        "--json", type=Path, default=None, dest="json_out",
        help="also write the concurrency report (locks, edges, "
             "findings) as JSON to this path",
    )

    serve = commands.add_parser(
        "serve", help="run the batched HTTP inference service"
    )
    serve.add_argument(
        "--model", required=True, action="append", type=str, dest="models",
        metavar="[NAME=]DIR",
        help="saved model directory, optionally named (repeatable; the "
             "first one is the default model)",
    )
    _add_data_argument(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port (0 = pick an ephemeral port)")
    serve.add_argument("--workers", type=int, default=2,
                       help="evaluation worker processes (0 = inline)")
    serve.add_argument("--batch-size", type=int, default=16,
                       help="micro-batch size limit")
    serve.add_argument("--cache-size", type=int, default=4096,
                       help="encoded-sequence LRU capacity (0 disables)")
    serve.add_argument("--store", type=Path, default=None, metavar="STOREDIR",
                       help="dataset store; the LRU warms from it at "
                            "startup and cache misses are written back")
    serve.add_argument("--drift-detect", action="store_true",
                       help="run per-category drift detection over served "
                            "traffic; state is exposed on GET /drift")
    serve.add_argument("--max-inflight", type=int, default=256,
                       help="admitted-but-unanswered classify bound before "
                            "shedding with 503")
    serve.add_argument("--rate", type=float, default=None,
                       help="sustained classify requests/second before "
                            "shedding with 429")
    serve.add_argument("--burst", type=int, default=32,
                       help="rate-limit burst headroom (with --rate)")
    serve.add_argument("--max-queue", type=int, default=0,
                       help="micro-batcher queue bound; 0 = unbounded")
    serve.add_argument("--max-pipeline", type=int, default=8,
                       help="HTTP/1.1 pipelined requests queued per "
                            "connection before 503 + close")
    serve.add_argument("--shadow", type=float, default=None,
                       metavar="FRACTION",
                       help="start a rollout of --candidate at launch, "
                            "mirroring this fraction of classify traffic")
    serve.add_argument("--canary", type=float, default=0.25,
                       metavar="FRACTION",
                       help="canary slice answered by the candidate once "
                            "the shadow phase passes (with --shadow)")
    serve.add_argument("--candidate", type=str, default=None,
                       help="model name (from --model NAME=DIR) the "
                            "--shadow rollout drives toward promotion")

    rollout = commands.add_parser(
        "rollout",
        help="drive a shadow/canary rollout on a running serve instance",
    )
    rollout.add_argument("--url", default="http://127.0.0.1:8080",
                         help="base URL of the serving gateway")
    rollout.add_argument("--candidate", required=True,
                         help="registered model name to roll out")
    rollout.add_argument("--incumbent", default=None,
                         help="model whose traffic is compared "
                              "(default: the serving default)")
    rollout.add_argument("--shadow", type=float, default=1.0,
                         help="fraction of classify traffic mirrored "
                              "during the shadow phase")
    rollout.add_argument("--canary", type=float, default=0.25,
                         help="fraction answered by the candidate during "
                              "the canary phase")
    rollout.add_argument("--min-samples", type=int, default=50,
                         help="compared documents required per phase")
    rollout.add_argument("--min-agreement", type=float, default=0.98,
                         help="lowest acceptable topic agreement rate")
    rollout.add_argument("--max-divergence", type=float, default=0.05,
                         help="highest acceptable mean decision-value "
                              "divergence")
    rollout.add_argument("--max-latency-ratio", type=float, default=5.0,
                         help="highest acceptable candidate/incumbent "
                              "latency ratio")
    rollout.add_argument("--drive", type=Path, default=None, metavar="DATADIR",
                         help="corpus directory; documents are replayed as "
                              "classify traffic until the rollout finishes")
    rollout.add_argument("--drive-batch", type=int, default=8,
                         help="documents per replayed classify request")
    rollout.add_argument("--timeout", type=float, default=300.0,
                         help="seconds to wait for a verdict before "
                              "giving up")
    rollout.add_argument("--out", type=Path, default=None, metavar="REPORT",
                         help="write the final rollout report as JSON")
    rollout.add_argument("--abort", action="store_true",
                         help="abort the live rollout instead of "
                              "starting one")

    drift_eval = commands.add_parser(
        "drift-eval",
        help="rolling time-sliced evaluation: train on epochs <= t, "
             "test on epoch t+1, for every epoch in the corpus",
    )
    _add_data_argument(drift_eval)
    drift_eval.add_argument("--features", default="mi",
                            choices=["df", "ig", "mi", "nouns", "chi2",
                                     "round_robin"])
    drift_eval.add_argument("--n-features", type=int, default=None)
    drift_eval.add_argument("--tournaments", type=int, default=150)
    drift_eval.add_argument("--som-epochs", type=int, default=6)
    drift_eval.add_argument("--seed", type=int, default=0)
    drift_eval.add_argument("--categories", nargs="*", default=None,
                            help="subset of categories (default: all ten)")
    drift_eval.add_argument("--start-epoch", type=int, default=None,
                            help="first train-through epoch (default: "
                                 "earliest present)")
    drift_eval.add_argument("--min-train-docs", type=int, default=2,
                            help="skip steps with fewer training documents")
    drift_eval.add_argument("--store", type=Path, default=None,
                            metavar="STOREDIR",
                            help="dataset store shared across steps; "
                                 "overlapping windows reuse encodings")

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    generator = SyntheticReutersGenerator(
        seed=args.seed,
        scale=args.scale,
        n_epochs=args.epochs,
        drift_epoch=args.drift_epoch,
        vocab_churn=args.vocab_churn,
        topic_shift=args.topic_shift,
        label_drift=args.label_drift,
        drift_categories=tuple(args.drift_categories),
    )
    documents = generator.generate()
    paths = write_sgml_files(documents, args.out)
    print(f"wrote {len(documents)} documents to {len(paths)} files in {args.out}")
    if args.epochs > 1:
        from repro.temporal import epochs_present

        print(f"epochs {epochs_present(documents)}"
              + (f", drift from epoch {generator.drift_epoch} on "
                 f"{', '.join(generator.drift_categories)}"
                 if generator.drift_categories else ""))
    return 0


def _build_run_context(args: argparse.Namespace) -> "RunContext":
    """Assemble the :class:`RunContext` the ``train`` flags describe."""
    from repro.runtime import (
        CheckpointStore,
        ConsoleSink,
        EventBus,
        JsonlSink,
        RunContext,
    )

    events = EventBus()
    if args.progress:
        events.subscribe(ConsoleSink(stream=sys.stderr))
    checkpoints = None
    if args.resume is not None:
        checkpoints = CheckpointStore(args.resume)
        if args.progress:
            events.subscribe(JsonlSink(args.resume / "events.jsonl"))
    return RunContext(
        seed=args.seed,
        seed_policy=args.seed_policy,
        events=events,
        checkpoints=checkpoints,
        n_jobs=args.jobs,
    )


def _cmd_train(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.data)
    print(f"loaded {len(corpus.train_documents)} train / "
          f"{len(corpus.test_documents)} test documents")
    config = ProSysConfig(
        feature_method=args.features,
        n_features=args.n_features,
        som_epochs=args.som_epochs,
        gp=GpConfig().small(tournaments=args.tournaments, seed=args.seed),
        n_restarts=args.restarts,
        seed=args.seed,
    )
    data_store = None
    if args.store is not None:
        from repro.data import DatasetStore

        data_store = DatasetStore(args.store)
    pipeline = ProSysPipeline(config, data_store=data_store)
    ctx = _build_run_context(args)
    if ctx.checkpoints is not None:
        completed = ctx.checkpoints.completed()
        if completed:
            print(f"resuming from {args.resume}: "
                  f"{len(completed)} stage(s) already complete")
    pipeline.fit(corpus, categories=args.categories, ctx=ctx)
    save_pipeline(pipeline, args.out)
    if data_store is not None:
        print(f"dataset store: {data_store.stats_line()}")
    print(f"model saved to {args.out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.data)
    pipeline = load_pipeline(args.model, corpus)
    scores = pipeline.evaluate(args.split)
    categories = list(scores.per_category)
    column = {c: scores.f1(c) for c in categories}
    column["Macro Ave."] = scores.macro_f1
    column["Micro Ave."] = scores.micro_f1
    print(format_table(
        f"F1 on the {args.split} split",
        categories + ["Macro Ave.", "Micro Ave."],
        {"F1": column},
    ))
    return 0


def _cmd_track(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.data)
    pipeline = load_pipeline(args.model, corpus)
    matches = [d for d in corpus.documents if d.doc_id == args.doc_id]
    if not matches:
        print(f"error: no document with id {args.doc_id}", file=sys.stderr)
        return 1
    if args.category not in pipeline.suite.categories:
        print(f"error: model has no classifier for {args.category!r}",
              file=sys.stderr)
        return 1
    trace = pipeline.track(matches[0], args.category)
    print(f"doc {args.doc_id} vs {args.category}: {len(trace)} encoded words, "
          f"threshold {trace.threshold:+.3f}")
    for word, value, flag in zip(trace.words, trace.squashed, trace.in_class_flags):
        print(f"  {word:<16s}{value:+8.3f}  {'IN' if flag else 'out'}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    try:
        manifest = read_manifest(args.model)
    except PersistenceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    config = manifest["config"]
    print(f"feature selection : {config['feature_method']}")
    print(f"SOM shapes        : {tuple(config['char_shape'])} chars, "
          f"{tuple(config['word_shape'])} words")
    print(f"categories        : {', '.join(manifest['categories'])}")
    for category, payload in manifest["classifiers"].items():
        print(f"  {category:10s} program {len(payload['code'])} instructions, "
              f"threshold {payload['threshold']:+.3f}, "
              f"train SSE {payload['train_fitness']:.1f}")
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    from repro.data import DatasetStore

    corpus = load_corpus(args.data)
    pipeline = load_pipeline(args.model, corpus)
    categories = args.categories or list(pipeline.suite.categories)
    unknown = [c for c in categories if c not in pipeline.suite.categories]
    if unknown:
        print(f"error: model has no classifier for {', '.join(unknown)}",
              file=sys.stderr)
        return 1
    store = DatasetStore(args.store)
    for category in categories:
        for split in args.splits:
            key = store.dataset_key(
                pipeline.tokenized, pipeline.feature_set, pipeline.encoder,
                category, split,
            )
            cached = store.has(key)
            dataset = store.get_or_encode(
                pipeline.tokenized, pipeline.feature_set, pipeline.encoder,
                category, split,
            )
            state = "cached" if cached else "encoded"
            print(f"  {category:10s} {split:5s} {state:7s} "
                  f"{len(dataset):5d} documents  {key[:12]}")
    print(f"dataset store: {store.stats_line()}")
    return 0


def _analyze_model(model_dir: Path) -> int:
    """Verify a saved model's champion programs against the IR oracle."""
    from collections import Counter

    from repro.analysis.ir import ProgramIR
    from repro.analysis.verify import (
        VerificationError,
        verify_optimized,
        verify_program,
    )
    from repro.gp.program import Program
    from repro.persistence import _gp_config_from_dict

    manifest = read_manifest(model_dir)
    failures = 0
    print(f"model {model_dir}: {len(manifest['classifiers'])} champion "
          "program(s)")
    for category, payload in sorted(manifest["classifiers"].items()):
        program = Program(payload["code"], _gp_config_from_dict(payload["gp"]))
        try:
            report = verify_program(program)
            optimized = verify_optimized(program)
        except VerificationError as error:
            failures += 1
            print(f"  {category:10s} FAILED verification:")
            print(f"    {error}")
            continue
        live = ",".join(f"R{r}" for r in report.live_entry) or "-"
        print(f"  {category:10s} verified  "
              f"{report.n_effective}/{report.n_instructions} effective "
              f"({report.intron_fraction:.0%} introns), "
              f"recurrent state {live}, "
              f"inputs {','.join(f'I{i}' for i in report.inputs_read) or '-'}")
        stats = optimized.stats
        print(f"    optimization: {stats.n_effective} -> "
              f"{stats.n_optimized} instructions "
              f"({stats.folded_operands} operand(s) folded, "
              f"{stats.eliminated} semantic intron(s) eliminated, "
              f"{stats.passes} pass(es); replay-proven bit-exact)")
        # Hazard deltas: optimization may fold away protected divisions
        # or clamp-reliant chains; anything that remains is intrinsic to
        # the champion's semantics.
        before = Counter(
            hazard.kind for hazard in report.hazards if hazard.effective
        )
        after = Counter(
            hazard.kind for hazard in ProgramIR(
                optimized.code, program.config
            ).hazards()
        )
        for kind in sorted(before | after):
            delta = after[kind] - before[kind]
            print(f"    hazard delta {kind}: {before[kind]} -> "
                  f"{after[kind]} ({delta:+d})")
        for hazard in report.hazards:
            status = "effective" if hazard.effective else "intron"
            print(f"    hazard[{status}] {hazard.kind}: {hazard.detail}")
    if failures:
        print(f"error: {failures} program(s) failed IR verification",
              file=sys.stderr)
        return 1
    return 0


def _analyze_concurrency(
    tree: Optional[Path],
    allowlist: Optional[Path],
    json_out: Optional[Path],
) -> int:
    """Run the static lock-order analyzer; 0 = clean."""
    import repro
    from repro.analysis.concurrency import analyze_tree
    from repro.analysis.lint.engine import Allowlist

    if tree is None:
        tree = Path(repro.__file__).resolve().parent
    if allowlist is None:
        default = Path("lockorder.allow")
        allowlist = default if default.exists() else None
    allow = Allowlist.load(allowlist) if allowlist else Allowlist.empty()
    report = analyze_tree([tree])
    reported = [f for f in report.findings if not allow.suppresses(f)]
    suppressed = len(report.findings) - len(reported)
    if json_out is not None:
        import json

        json_out.write_text(
            json.dumps(report.to_payload(), indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
    for finding in reported:
        print(finding.render(), file=sys.stderr)
    unused = allow.unused_entries()
    for entry in unused:
        print(
            f"error: unused lockorder.allow entry at line {entry.line}: "
            f"{entry.rule} {entry.path}"
            + (f"::{entry.qualname}" if entry.qualname else ""),
            file=sys.stderr,
        )
    print(
        f"concurrency: {len(report.locks)} lock(s), "
        f"{len(report.edges)} order edge(s), "
        f"{len(reported)} finding(s), {suppressed} allowlisted"
    )
    return 1 if reported or unused else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.corpus.analysis import (
        document_lengths,
        label_cardinality,
        overlap_report,
    )
    from repro.preprocessing.tokenized import TokenizedCorpus

    run_concurrency = hasattr(args, "concurrency")
    if args.data is None and args.model is None and not run_concurrency:
        print("error: analyze needs --data, --model, and/or --concurrency",
              file=sys.stderr)
        return 2
    if run_concurrency:
        status = _analyze_concurrency(
            tree=args.concurrency,
            allowlist=args.allowlist,
            json_out=args.json_out,
        )
        if status or (args.data is None and args.model is None):
            return status
    if args.model is not None:
        status = _analyze_model(args.model)
        if status or args.data is None:
            return status
    corpus = load_corpus(args.data)
    tokenized = TokenizedCorpus(corpus)
    print(f"documents         : {len(corpus.train_documents)} train / "
          f"{len(corpus.test_documents)} test")
    print(f"label cardinality : {label_cardinality(corpus):.2f} labels/doc")
    lengths = document_lengths(tokenized)
    print(f"token lengths     : mean {lengths.mean:.0f}, median "
          f"{lengths.median:.0f}, max {lengths.maximum}")
    print("training counts   :")
    for category, count in corpus.category_counts("train").items():
        print(f"  {category:10s} {count}")
    overlaps = overlap_report(tokenized)
    worst = sorted(overlaps.items(), key=lambda kv: -kv[1])[:3]
    print("highest vocabulary overlaps (the classifier's hard pairs):")
    for (first, second), value in worst:
        print(f"  {first} / {second}: {value:.2f}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.runtime.events import ConsoleSink, EventBus
    from repro.serve import (
        AdmissionController,
        GatewayServer,
        InferenceService,
        ModelRegistry,
        RoutePolicy,
    )

    corpus = load_corpus(args.data)
    registry = ModelRegistry(corpus)
    for position, spec in enumerate(args.models):
        name, _, directory = spec.rpartition("=")
        if not name:
            name = Path(directory).name or f"model-{position}"
        registry.register(name, Path(directory))
        print(f"loaded model {name!r} from {directory} "
              f"({', '.join(registry.get(name).categories)})")
    data_store = None
    if args.store is not None:
        from repro.data import DatasetStore

        data_store = DatasetStore(args.store)
    events = EventBus([ConsoleSink()])
    service = InferenceService(
        registry,
        n_workers=args.workers,
        max_batch_size=args.batch_size,
        cache_size=args.cache_size,
        max_queue=args.max_queue,
        data_store=data_store,
        drift_detect=args.drift_detect,
        events=events,
    )
    if data_store is not None:
        print(f"warmed {len(service.cache)} cached sequences "
              f"from {args.store}")
    if args.shadow is not None:
        if not args.candidate:
            print("error: --shadow needs --candidate NAME (a --model entry)",
                  file=sys.stderr)
            service.close()
            return 1
        report = service.start_rollout(
            args.candidate,
            config={
                "shadow_fraction": args.shadow,
                "canary_fraction": args.canary,
            },
        )
        print(f"rollout started: {report['incumbent']} -> "
              f"{report['candidate']} (shadow={args.shadow:g}, "
              f"canary={args.canary:g})")
    admission = AdmissionController(
        policies={
            "classify": RoutePolicy(
                max_inflight=args.max_inflight,
                rate=args.rate,
                burst=args.burst,
            ),
        },
        metrics=service.metrics,
    )
    gateway = GatewayServer(
        service, host=args.host, port=args.port, admission=admission,
        max_pipeline=args.max_pipeline,
    ).start()
    # SIGTERM (service managers, Popen.terminate) takes the Ctrl-C path
    # below, so the worker pool is shut down instead of orphaned.  A
    # second SIGTERM during shutdown kills the process outright.
    previous_sigterm = signal.signal(signal.SIGTERM, _raise_interrupt)
    try:
        rate_note = f", rate={args.rate:g}/s" if args.rate else ""
        print(f"serving on http://{args.host}:{gateway.port}  "
              f"(workers={args.workers}, batch={args.batch_size}, "
              f"max_inflight={args.max_inflight}{rate_note})")
        print("endpoints: GET /healthz /metrics /models /rollout"
              + (" /drift" if args.drift_detect else "")
              + ", POST /classify /track /reload /rollout, DELETE /rollout",
              flush=True)
        threading.Event().wait()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
        gateway.close()
        service.close()
    return 0


def _raise_interrupt(_signum, _frame) -> None:
    raise KeyboardInterrupt


def _cmd_rollout(args: argparse.Namespace) -> int:
    import json as json_module
    import time
    import urllib.error
    import urllib.request

    base = args.url.rstrip("/")

    def call(method: str, path: str, payload: Optional[dict] = None) -> dict:
        body = json_module.dumps(payload).encode() if payload else None
        request = urllib.request.Request(
            base + path, data=body, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                return json_module.loads(response.read())
        except urllib.error.HTTPError as error:
            detail = error.read().decode(errors="replace")
            raise RuntimeError(f"{method} {path}: {error.code} {detail}")

    if args.abort:
        report = call("DELETE", "/rollout")
        print(f"rollout aborted: {report['state']}")
        return 0

    report = call("POST", "/rollout", {
        "candidate": args.candidate,
        "incumbent": args.incumbent,
        "config": {
            "shadow_fraction": args.shadow,
            "canary_fraction": args.canary,
            "min_samples": args.min_samples,
            "min_agreement": args.min_agreement,
            "max_divergence": args.max_divergence,
            "max_latency_ratio": args.max_latency_ratio,
        },
    })
    print(f"rollout started: {report['incumbent']} -> {report['candidate']}")

    documents = []
    if args.drive is not None:
        from repro.corpus.sgml import iter_sgml_dir

        documents = [
            {"id": doc.doc_id, "title": doc.title, "body": doc.body}
            for doc in iter_sgml_dir(args.drive)
        ]
        print(f"driving {len(documents)} documents as classify traffic")

    deadline = time.perf_counter() + args.timeout
    cursor = 0
    last_state = report["state"]
    while time.perf_counter() < deadline:
        report = call("GET", "/rollout")
        if report["state"] != last_state:
            last_state = report["state"]
            print(f"rollout phase: {last_state}")
        if report["finished"]:
            break
        if documents:
            batch = [
                documents[(cursor + offset) % len(documents)]
                for offset in range(args.drive_batch)
            ]
            cursor += args.drive_batch
            try:
                call("POST", "/classify", {"documents": batch})
            except RuntimeError as error:
                if "429" in str(error) or "503" in str(error):
                    time.sleep(0.2)  # shed under load; back off and retry
                else:
                    raise
        else:
            time.sleep(0.5)  # passive watch: real traffic drives the verdict
    else:
        print(f"timed out after {args.timeout:g}s in state "
              f"{report['state']}", file=sys.stderr)

    print(f"rollout finished: state={report['state']}"
          + (f" reason={report['reason']}" if report.get("reason") else ""))
    for phase, stats in report.get("phases", {}).items():
        print(f"  {phase}: samples={stats['samples']} "
              f"agreement={stats['agreement_rate']:.4f} "
              f"divergence={stats['mean_divergence']:.6f} "
              f"latency_ratio={stats['latency_ratio']:.2f}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json_module.dumps(report, indent=2) + "\n")
        print(f"report written to {args.out}")
    if report["state"] == "promoted":
        return 0
    if report["state"] == "rolled_back":
        return 2
    return 1


def _cmd_drift_eval(args: argparse.Namespace) -> int:
    from repro.corpus.sgml import iter_sgml_dir
    from repro.temporal import epochs_present, rolling_evaluate

    documents = list(iter_sgml_dir(args.data))
    present = epochs_present(documents)
    if len(present) < 2:
        print(f"error: rolling evaluation needs >= 2 epochs, found "
              f"{present} (generate with --epochs N)", file=sys.stderr)
        return 1
    print(f"{len(documents)} documents over epochs {present}")
    config = ProSysConfig(
        feature_method=args.features,
        n_features=args.n_features,
        som_epochs=args.som_epochs,
        gp=GpConfig().small(tournaments=args.tournaments, seed=args.seed),
        seed=args.seed,
    )
    data_store = None
    if args.store is not None:
        from repro.data import DatasetStore

        data_store = DatasetStore(args.store)
    results = rolling_evaluate(
        documents,
        config=config,
        categories=args.categories,
        data_store=data_store,
        start_epoch=args.start_epoch,
        min_train_docs=args.min_train_docs,
    )
    if not results:
        print("error: no evaluable (train, test) epoch pairs",
              file=sys.stderr)
        return 1
    print(f"{'train<=':>8s} {'test':>5s} {'n_train':>8s} {'n_test':>7s} "
          f"{'macro F1':>9s} {'micro F1':>9s}")
    for step in results:
        print(f"{step.train_through:8d} {step.test_epoch:5d} "
              f"{step.n_train:8d} {step.n_test:7d} "
              f"{step.scores.macro_f1:9.3f} {step.scores.micro_f1:9.3f}")
    if data_store is not None:
        print(f"dataset store: {data_store.stats_line()}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "track": _cmd_track,
    "info": _cmd_info,
    "encode": _cmd_encode,
    "analyze": _cmd_analyze,
    "serve": _cmd_serve,
    "rollout": _cmd_rollout,
    "drift-eval": _cmd_drift_eval,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
