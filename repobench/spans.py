"""Spans recorded from outside the program, by wrapping its public functions.

The program itself carries no tracing: :class:`Tracer` replaces chosen
functions and methods of each layer with thin wrappers that record
``(id, parent, name, start, end, thread, attrs)`` tuples in memory, and
:meth:`Tracer.uninstall` puts the originals back.  Timestamps come from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so spans recorded in a
server process line up with the client's clock).

A span's parent is the innermost wrapped call open on the same thread,
which is what :func:`self_times` needs.  Calls whose work finishes
asynchronously (a future resolved by another thread) are recorded as
*async* spans from the call to the future's resolution.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

_MISSING = object()

Span = Tuple[int, Optional[int], str, float, float, int, object]


class Tracer:
    """Records spans around wrapped callables; undoes its patches."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------
    def clear(self) -> None:
        """Drop recorded spans and this thread's open-span stack (used in
        a forked child, which inherits both from its parent)."""
        self.spans = []
        self._local.stack = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str,
             attrs: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``attrs(args, result)``
        attaches extra data to the span."""
        ids = self._ids
        stack_of = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = attrs(args, result) if attrs is not None else None
                tracer.spans.append((span_id, parent, name, start, end,
                                     threading.get_ident(), extra))

        return traced

    def wrap_async(self, fn: Callable, name: str,
                   futures_of: Callable, attrs: Optional[Callable] = None
                   ) -> Callable:
        """Like :meth:`wrap`, but the span ends when every future
        ``futures_of(result)`` returns has resolved."""
        ids = self._ids
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            futures = list(futures_of(result))
            extra = attrs(args, result) if attrs is not None else None
            span_id = next(ids)
            remaining = [len(futures)]
            lock = threading.Lock()

            def done(_future) -> None:
                with lock:
                    remaining[0] -= 1
                    last = remaining[0] == 0
                if last:
                    tracer.spans.append((span_id, None, name, start,
                                         time.perf_counter(), 0, extra))

            for future in futures:
                future.add_done_callback(done)
            return result

        return traced

    # -- patching ------------------------------------------------------
    def patch(self, owner: object, attribute: str, replacement) -> None:
        """Set ``owner.attribute`` (or ``owner[attribute]`` for a dict),
        remembering how to undo it."""
        if isinstance(owner, dict):
            previous = owner[attribute]
            self._undo.append(lambda: owner.__setitem__(attribute, previous))
            owner[attribute] = replacement
            return
        if isinstance(owner, type):
            previous = vars(owner).get(attribute, _MISSING)
        else:
            previous = getattr(owner, attribute)
        if previous is _MISSING:  # inherited: shadow it, then delete
            self._undo.append(lambda: delattr(owner, attribute))
        else:
            self._undo.append(lambda: setattr(owner, attribute, previous))
        setattr(owner, attribute, replacement)

    def method(self, cls: type, attribute: str, name: str,
               attrs: Optional[Callable] = None) -> None:
        """Wrap a plain method or classmethod resolved on ``cls``."""
        raw = next(vars(klass)[attribute] for klass in cls.__mro__
                   if attribute in vars(klass))
        if isinstance(raw, classmethod):
            self.patch(cls, attribute,
                       classmethod(self.wrap(raw.__func__, name, attrs)))
        else:
            self.patch(cls, attribute, self.wrap(raw, name, attrs))

    def function(self, module: object, attribute: str, name: str,
                 attrs: Optional[Callable] = None) -> None:
        """Wrap a module-level name as ``module`` sees it."""
        self.patch(module, attribute,
                   self.wrap(getattr(module, attribute), name, attrs))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- output --------------------------------------------------------
    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"pid": os.getpid(), "spans": self.spans}))


def load_spans(path: Path) -> List[Span]:
    """The spans one process wrote with :meth:`Tracer.dump`."""
    return [tuple(raw) for raw in json.loads(path.read_text())["spans"]]


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {span[0]: span[4] - span[3] for span in spans}
    for span in spans:
        parent = span[1]
        if parent is not None and parent in own:
            own[parent] -= span[4] - span[3]
    return own


# ----------------------------------------------------------------------
# layer wrapper sets
# ----------------------------------------------------------------------
def _n_programs(args, _result) -> int:
    return len(args[1])


def _hit(_args, result) -> bool:
    return result is not None


def install_training_layers(tracer: Tracer, feature_method: str) -> None:
    """Spans over every layer a ``ProSysPipeline.fit`` passes through."""
    from repro.classify.binary import RlgpBinaryClassifier
    from repro.encoding.hierarchy import CategoryEncoder, HierarchicalSomEncoder
    from repro.features import ALL_SELECTORS
    from repro.gp import trainer as trainer_module
    from repro.gp.dss import DynamicSubsetSelector
    from repro.gp.engine import FusedEngine, PackedPrograms, SemanticCache
    from repro.gp.optimize import ProgramOptimizer
    from repro.gp.recurrent import RecurrentEvaluator
    from repro.pipeline import ProSysPipeline
    from repro.preprocessing.pipeline import Preprocessor
    from repro.som.training import SomTrainer

    tracer.method(ProSysPipeline, "fit", "pipeline.fit")
    tracer.method(Preprocessor, "document_tokens", "preprocessing.tokenize")
    tracer.method(ALL_SELECTORS[feature_method], "select", "features.select")
    tracer.method(SomTrainer, "train_batch", "som.train")
    tracer.method(HierarchicalSomEncoder, "encode_dataset",
                  "encoding.encode_dataset")
    tracer.method(CategoryEncoder, "encode", "encoding.encode")
    tracer.method(RlgpBinaryClassifier, "fit", "classify.fit")
    tracer.method(trainer_module.RlgpTrainer, "train", "gp.train",
                  lambda _args, result: result.tournaments if result else 0)
    tracer.method(DynamicSubsetSelector, "subset", "gp.dss")
    tracer.method(DynamicSubsetSelector, "report", "gp.dss")
    tracer.method(RecurrentEvaluator, "pack", "gp.repack")
    tracer.method(RecurrentEvaluator, "outputs", "gp.recurrent_outputs")
    tracer.method(SemanticCache, "get", "gp.semantic_cache_get", _hit)
    tracer.method(ProgramOptimizer, "optimize", "gp.optimize")
    tracer.method(PackedPrograms, "from_programs", "gp.plan_build")
    tracer.method(FusedEngine, "outputs", "gp.engine", _n_programs)
    # The trainer binds its fitness function at construction, from this
    # table, and calls balanced_sse by name when it selects the champion.
    for key, fn in list(trainer_module.FITNESS_FUNCTIONS.items()):
        tracer.patch(trainer_module.FITNESS_FUNCTIONS, key,
                     tracer.wrap(fn, "gp.fitness"))
    tracer.function(trainer_module, "balanced_sse", "gp.fitness")
    tracer.function(trainer_module, "breed", "gp.breed")


def install_serving_layers(tracer: Tracer) -> None:
    """Spans over the serving path, set up before ``repro.cli.main``."""
    import repro.cli as cli_module
    from repro.encoding.hierarchy import CategoryEncoder
    from repro.gp.engine import FusedEngine
    from repro.gp.recurrent import RecurrentEvaluator
    from repro.preprocessing.pipeline import Preprocessor
    from repro.serve import registry as registry_module
    from repro.serve.batcher import MicroBatcher
    from repro.serve.cache import LruCache
    from repro.serve.server import InferenceService
    from repro.serve.workers import WorkerPool

    tracer.function(cli_module, "load_corpus", "corpus.load")
    tracer.function(registry_module, "load_pipeline", "persistence.load")
    tracer.method(WorkerPool, "__init__", "serve.workers.spawn")
    tracer.method(Preprocessor, "document_tokens", "preprocessing.tokenize",
                  lambda args, _result: args[1].doc_id)
    tracer.method(LruCache, "get", "serve.cache.get")
    tracer.method(LruCache, "put", "serve.cache.put")
    tracer.method(CategoryEncoder, "encode", "encoding.encode")
    tracer.method(WorkerPool, "evaluate_many", "serve.workers.fanout")
    evaluate = WorkerPool.evaluate
    tracer.patch(WorkerPool, "evaluate", tracer.wrap_async(
        tracer.wrap(evaluate, "serve.workers.handoff"),
        "serve.workers.job", lambda future: [future]))
    tracer.patch(InferenceService, "submit_documents", tracer.wrap_async(
        InferenceService.submit_documents, "serve.service",
        lambda futures: futures,
        lambda args, _result: [doc.doc_id for doc in args[1]]))
    submit = MicroBatcher.submit

    def traced_submit(self, payload):
        tracer.spans.append((next(tracer._ids), None, "serve.batcher.submit",
                             time.perf_counter(), 0.0, 0, payload[1].doc_id))
        return submit(self, payload)

    tracer.patch(MicroBatcher, "submit", traced_submit)
    batcher_init = MicroBatcher.__init__

    def traced_init(self, handler, *args, **kwargs):
        handler = tracer.wrap(
            handler, "serve.batcher.handle",
            lambda call_args, _result: [item[1].doc_id
                                        for item in call_args[0]])
        batcher_init(self, handler, *args, **kwargs)

    tracer.patch(MicroBatcher, "__init__", traced_init)
    # Engine calls happen in forked workers: record them there and have
    # each worker write its spans when it leaves its loop.
    tracer.method(FusedEngine, "outputs", "gp.engine", _n_programs)
    tracer.method(RecurrentEvaluator, "outputs", "gp.recurrent_outputs")
