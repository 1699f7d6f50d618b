"""The reprolint rule set: this repo's invariants, one class each.

Every rule encodes something a past review caught by hand (or should
have).  Scoped rules key off path markers (``repro/gp/`` etc.) so the
fixture suite can exercise them from ``tests/analysis/fixtures``.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.lint.engine import (
    Finding,
    ModuleInfo,
    Rule,
    ancestors,
    in_with_on,
    is_self_attribute,
    qualname_of,
    resolve_call,
    resolve_reference,
)

_GUARDED_BY = re.compile(r"#\s*guarded by\s+(?:self\.)?([A-Za-z_]\w*)")


class GuardedAttributeRule(Rule):
    """REPRO-L001: attributes declared ``# guarded by <lock>`` must only
    be touched inside ``with self.<lock>:`` outside ``__init__``.

    The declaration is the comment convention on the ``__init__``
    assignment line::

        self._entries = {}  # guarded by _lock

    Opt-in by design: the comment is the contract, the rule makes it
    binding everywhere else in the class.
    """

    name = "REPRO-L001"
    title = "guarded attribute accessed outside its lock"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in module.nodes(ast.ClassDef):
            yield from self._check_class(module, node)

    def _declared_guards(
        self, module: ModuleInfo, init: ast.FunctionDef
    ) -> Dict[str, str]:
        guards: Dict[str, str] = {}
        for node in ast.walk(init):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for target in targets:
                if not is_self_attribute(target):
                    continue
                comment = _GUARDED_BY.search(module.lines[node.lineno - 1])
                if comment:
                    guards[target.attr] = comment.group(1)
        return guards

    def _check_class(
        self, module: ModuleInfo, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        init = next(
            (
                n for n in cls.body
                if isinstance(n, ast.FunctionDef) and n.name == "__init__"
            ),
            None,
        )
        if init is None:
            return
        guards = self._declared_guards(module, init)
        if not guards:
            return
        for method in cls.body:
            if not isinstance(
                method, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) or method.name == "__init__":
                continue
            for node in ast.walk(method):
                if not is_self_attribute(node) or node.attr not in guards:
                    continue
                lock = guards[node.attr]
                if not in_with_on(node, {lock}):
                    yield Finding(
                        rule=self.name,
                        path=module.path,
                        line=node.lineno,
                        qualname=qualname_of(node),
                        message=(
                            f"self.{node.attr} is declared guarded by "
                            f"self.{lock} but is accessed outside "
                            f"'with self.{lock}:'"
                        ),
                    )


#: Paths whose computation must be a pure function of RunContext seeds.
_SEEDED_MARKERS = (
    "repro/gp/",
    "repro/som/",
    "repro/encoding/",
    "repro/features/",
    "repro/classify/",
    "repro/baselines/",
    "repro/preprocessing/",
    "repro/corpus/synthetic.py",
    "repro/runtime/seeds.py",
)

#: Always banned: mutating interpreter-global PRNG state.
_GLOBAL_SEED_CALLS = {"random.seed", "numpy.random.seed"}

#: Banned in seeded paths: wall-clock reads feeding computation.
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: ``numpy.random`` entry points that are explicitly seeded, hence fine.
_SEEDED_NP_RANDOM = {
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
}

#: ``random`` module entry points that construct a seedable instance.
_SEEDED_STDLIB_RANDOM = {"random.Random", "random.SystemRandom"}


class DeterminismRule(Rule):
    """REPRO-L002: no wall clock or global PRNG in RunContext-seeded paths.

    Training, encoding and feature extraction must be pure functions of
    the corpus and the :class:`~repro.runtime.context.RunContext` seed
    tree.  Global seeding (``random.seed`` / ``np.random.seed``) is
    banned everywhere -- it mutates interpreter state behind every other
    component's back.
    """

    name = "REPRO-L002"
    title = "wall clock / global randomness in a seeded path"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        seeded = any(marker in module.posix for marker in _SEEDED_MARKERS)
        for node in module.nodes(ast.Call):
            origin = resolve_call(node, module.imports)
            if origin is None:
                continue
            message: Optional[str] = None
            if origin in _GLOBAL_SEED_CALLS:
                message = (
                    f"{origin}() mutates global PRNG state; thread a seeded "
                    "Random/Generator from RunContext instead"
                )
            elif seeded and origin in _WALL_CLOCK_CALLS:
                message = (
                    f"{origin}() reads the wall clock in a seeded path; "
                    "results must be a function of the RunContext seed"
                )
            elif seeded and origin.startswith("numpy.random.") \
                    and origin not in _SEEDED_NP_RANDOM:
                message = (
                    f"{origin}() uses the global numpy PRNG; use "
                    "numpy.random.default_rng(seed) from RunContext"
                )
            elif seeded and origin.startswith("random.") \
                    and origin not in _SEEDED_STDLIB_RANDOM:
                message = (
                    f"{origin}() uses the global stdlib PRNG; use a "
                    "random.Random(seed) from RunContext"
                )
            if message is not None:
                yield Finding(
                    rule=self.name,
                    path=module.path,
                    line=node.lineno,
                    qualname=qualname_of(node),
                    message=message,
                )


_ATOMIC_MARKERS = ("repro/data/", "repro/runtime/checkpoint.py")
#: Attribute reads on ``self`` that denote a *published* location.
_PUBLISHED_ROOTS = {"root", "run_dir", "_stages_dir"}
#: Method calls that return a published location.
_PUBLISHED_CALLS = {"path_for", "stage_dir"}
#: Path methods that keep the published taint on their result.
_PATH_DERIVE = {"with_suffix", "with_name", "joinpath", "resolve", "absolute"}
#: Write methods that must never land on a published path directly.
_WRITE_METHODS = {"write_text", "write_bytes", "touch", "unlink", "rmdir"}


class AtomicPublishRule(Rule):
    """REPRO-L003: store/checkpoint writes go through temp + atomic rename.

    Within ``repro.data`` and the checkpoint store, any expression
    derived from a *published* location (``self.root``, ``path_for()``,
    ``stage_dir()``, ...) is tainted; writing through it directly --
    ``write_text``/``touch``/``open(..., "w")`` -- or renaming onto it /
    deleting it bypasses the temp-dir + rename + ``_COMPLETE`` seal
    discipline.  Publishing and removing go through :mod:`repro.publish`,
    which lies outside the rule's scope, so the scope needs no
    exceptions.
    """

    name = "REPRO-L003"
    title = "direct write to a published store path"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not any(marker in module.posix for marker in _ATOMIC_MARKERS):
            return
        for node in module.nodes(ast.FunctionDef, ast.AsyncFunctionDef):
            yield from self._check_function(module, node)

    # -- taint machinery -------------------------------------------------
    def _is_tainted(self, node: ast.AST, tainted_names: Set[str]) -> bool:
        if isinstance(node, ast.Name):
            return node.id in tainted_names
        if is_self_attribute(node):
            return node.attr in _PUBLISHED_ROOTS
        if isinstance(node, ast.Attribute):
            return self._is_tainted(node.value, tainted_names)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            # pathlib's ``base / part``: taint flows from the base --
            # unless the segment names a ``.tmp-`` staging directory,
            # which is the blessed pre-publish workspace.
            if self._is_staging_segment(node.right):
                return False
            return self._is_tainted(node.left, tainted_names)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                if func.attr in _PUBLISHED_CALLS:
                    return True
                if func.attr in _PATH_DERIVE:
                    return self._is_tainted(func.value, tainted_names)
            if isinstance(func, ast.Name) and func.id in _PUBLISHED_CALLS:
                return True
        return False

    def _tainted_locals(self, fn: ast.AST) -> Set[str]:
        tainted: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and self._is_tainted(
                    node.value, tainted
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name) \
                                and target.id not in tainted:
                            tainted.add(target.id)
                            changed = True
                elif isinstance(node, (ast.For, ast.comprehension)):
                    # ``for child in published.iterdir():`` -- children of
                    # a published dir are published.
                    iter_expr = node.iter
                    target = node.target
                    if self._is_tainted(iter_expr, tainted) and isinstance(
                        target, ast.Name
                    ) and target.id not in tainted:
                        tainted.add(target.id)
                        changed = True
        return tainted

    # -- flagged operations ---------------------------------------------
    def _check_function(
        self, module: ModuleInfo, fn: ast.AST
    ) -> Iterator[Finding]:
        tainted = self._tainted_locals(fn)

        def flag(node: ast.AST, message: str) -> Finding:
            return Finding(
                rule=self.name,
                path=module.path,
                line=node.lineno,
                qualname=qualname_of(node),
                message=message,
            )

        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                receiver = func.value
                if func.attr in _WRITE_METHODS and self._is_tainted(
                    receiver, tainted
                ):
                    yield flag(node, (
                        f".{func.attr}() on a published store path; write "
                        "into a temp dir and publish via atomic rename"
                    ))
                elif func.attr in {"rename", "replace"} and node.args \
                        and self._is_tainted(node.args[0], tainted):
                    yield flag(node, (
                        f".{func.attr}() onto a published store path; only "
                        "the sealed publish site may do this"
                    ))
                elif func.attr == "mkdir" and self._is_tainted(
                    receiver, tainted
                ) and not self._is_root_mkdir(receiver):
                    yield flag(node, (
                        ".mkdir() of a published dataset path; materialise "
                        "in a temp dir and rename into place"
                    ))
            origin = resolve_call(node, module.imports)
            if origin in {"shutil.rmtree", "shutil.move", "os.rename",
                          "os.replace", "os.remove", "os.unlink"}:
                if node.args and self._is_tainted(node.args[-1 if origin in
                        {"shutil.move", "os.rename", "os.replace"} else 0],
                        tainted):
                    yield flag(node, (
                        f"{origin}() touches a published store path; only "
                        "the sealed publish/retire sites may do this"
                    ))
            if isinstance(func, ast.Name) and func.id == "open" and node.args:
                mode = ""
                if len(node.args) > 1 and isinstance(
                    node.args[1], ast.Constant
                ):
                    mode = str(node.args[1].value)
                for kw in node.keywords:
                    if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                        mode = str(kw.value.value)
                if any(c in mode for c in "wax") and self._is_tainted(
                    node.args[0], tainted
                ):
                    yield flag(node, (
                        "open(..., 'w') on a published store path; write "
                        "into a temp dir and publish via atomic rename"
                    ))

    @staticmethod
    def _is_staging_segment(node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value == "tmp" or node.value.startswith(".tmp")
        if isinstance(node, ast.JoinedStr) and node.values:
            head = node.values[0]
            return (
                isinstance(head, ast.Constant)
                and isinstance(head.value, str)
                and head.value.startswith(".tmp")
            )
        return False

    @staticmethod
    def _is_root_mkdir(receiver: ast.AST) -> bool:
        # Creating the store root itself (``self.root.mkdir``) is setup,
        # not a dataset publish.
        return is_self_attribute(receiver)


_BROAD_NAMES = {"Exception", "BaseException"}


class SwallowedExceptionRule(Rule):
    """REPRO-L004: no broad ``except`` that swallows what it caught.

    A handler for ``Exception``/``BaseException`` (or a bare ``except``)
    must re-raise, use the bound exception, or capture the traceback --
    otherwise a :class:`PersistenceError` (or worse) vanishes silently.
    Any handler that names ``PersistenceError`` and does nothing with it
    is flagged regardless of breadth.
    """

    name = "REPRO-L004"
    title = "broad except swallows the exception"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in module.nodes(ast.ExceptHandler):
            caught = self._caught_names(node)
            broad = node.type is None or bool(caught & _BROAD_NAMES)
            if broad and not self._handles(node):
                yield Finding(
                    rule=self.name,
                    path=module.path,
                    line=node.lineno,
                    qualname=qualname_of(node),
                    message=(
                        "broad except neither re-raises, uses the bound "
                        "exception, nor records the traceback; narrow it "
                        "to the intended exception types"
                    ),
                )
            elif "PersistenceError" in caught and self._is_trivial(node):
                yield Finding(
                    rule=self.name,
                    path=module.path,
                    line=node.lineno,
                    qualname=qualname_of(node),
                    message=(
                        "PersistenceError silently discarded; handle it "
                        "(count, log, degrade) or let it propagate"
                    ),
                )

    @staticmethod
    def _caught_names(node: ast.ExceptHandler) -> Set[str]:
        names: Set[str] = set()
        if node.type is not None:
            for sub in ast.walk(node.type):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
        return names

    @staticmethod
    def _handles(node: ast.ExceptHandler) -> bool:
        bound = node.name
        for sub in ast.walk(node):
            if isinstance(sub, ast.Raise):
                return True
            if bound and isinstance(sub, ast.Name) and sub.id == bound:
                return True
            if isinstance(sub, ast.Call):
                func = sub.func
                if isinstance(func, ast.Attribute) and func.attr in {
                    "format_exc", "print_exc", "exception"
                }:
                    return True
        return False

    @staticmethod
    def _is_trivial(node: ast.ExceptHandler) -> bool:
        for stmt in node.body:
            if isinstance(stmt, (ast.Pass, ast.Continue, ast.Break)):
                continue
            if isinstance(stmt, ast.Return) and (
                stmt.value is None or isinstance(stmt.value, ast.Constant)
            ):
                continue
            return False
        return True


_FORK_SITES = ("repro/runtime/parallel.py", "repro/serve/workers.py")
_BANNED_MP = {
    "multiprocessing.Process",
    "multiprocessing.Pool",
    "multiprocessing.Queue",
    "multiprocessing.SimpleQueue",
    "multiprocessing.Manager",
    "multiprocessing.Pipe",
    "os.fork",
    "os.forkpty",
}
_VALID_START_METHODS = {"fork", "spawn"}


class ForkDisciplineRule(Rule):
    """REPRO-L005: process management only via the two blessed modules.

    Worker processes are spawned exclusively by ``runtime.parallel`` and
    ``serve.workers`` (which own the fork-safety reasoning: no threads
    before fork, inherited read-only state, crash containment).  Direct
    ``multiprocessing.*`` construction elsewhere -- and
    ``set_start_method``, which mutates global state -- is banned, and
    every ``get_context`` call must pass a literal, audited start method.
    """

    name = "REPRO-L005"
    title = "process management outside the blessed modules"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        blessed = any(module.posix.endswith(site) for site in _FORK_SITES)
        for node in module.nodes(ast.Call):
            origin = resolve_call(node, module.imports)
            if origin is None:
                continue
            if origin == "multiprocessing.set_start_method":
                yield self._finding(module, node, (
                    "set_start_method() mutates global multiprocessing "
                    "state; use get_context('fork'|'spawn') locally"
                ))
            elif origin in _BANNED_MP and not blessed:
                yield self._finding(module, node, (
                    f"{origin}() outside runtime.parallel/serve.workers; "
                    "route process management through those modules"
                ))
            elif origin == "multiprocessing.get_context":
                method = node.args[0] if node.args else None
                if not (
                    isinstance(method, ast.Constant)
                    and method.value in _VALID_START_METHODS
                ):
                    yield self._finding(module, node, (
                        "get_context() needs a literal 'fork' or 'spawn' "
                        "start method so the fork-safety audit can see it"
                    ))

    def _finding(
        self, module: ModuleInfo, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.name,
            path=module.path,
            line=node.lineno,
            qualname=qualname_of(node),
            message=message,
        )


_METRIC_KINDS = {"counter", "gauge", "histogram"}
_METRIC_NAME = re.compile(r"^[a-z][a-z0-9_]*$")
_HISTOGRAM_SUFFIXES = ("_seconds", "_bytes", "_size")


class MetricNamesRule(Rule):
    """REPRO-L006: metric names follow the registry conventions.

    Counters end in ``_total``, histograms in a unit suffix
    (``_seconds``/``_bytes``/``_size``), gauges in neither; all names
    are ``snake_case``; and one name never registers as two different
    kinds anywhere in the tree (the registry raises at runtime -- this
    catches it before a process has to die to prove it).
    """

    name = "REPRO-L006"
    title = "metric name violates registry conventions"

    def __init__(self) -> None:
        self._registry: Dict[str, List[Tuple[str, ModuleInfo, int, str]]] = {}

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in module.nodes(ast.Call):
            func = node.func
            if not (
                isinstance(func, ast.Attribute) and func.attr in _METRIC_KINDS
            ):
                continue
            if not (node.args and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                continue  # dynamic names are the call site's problem
            kind = func.attr
            metric = node.args[0].value
            self._registry.setdefault(metric, []).append(
                (kind, module, node.lineno, qualname_of(node))
            )
            message: Optional[str] = None
            if not _METRIC_NAME.match(metric):
                message = f"metric name {metric!r} is not snake_case"
            elif kind == "counter" and not metric.endswith("_total"):
                message = f"counter {metric!r} must end in '_total'"
            elif kind == "histogram" and not metric.endswith(
                _HISTOGRAM_SUFFIXES
            ):
                message = (
                    f"histogram {metric!r} must end in a unit suffix "
                    f"({'/'.join(_HISTOGRAM_SUFFIXES)})"
                )
            elif kind == "gauge" and metric.endswith("_total"):
                message = (
                    f"gauge {metric!r} must not end in '_total' "
                    "(reserved for counters)"
                )
            if message is not None:
                yield Finding(
                    rule=self.name,
                    path=module.path,
                    line=node.lineno,
                    qualname=qualname_of(node),
                    message=message,
                )

    def finalize(self) -> Iterator[Finding]:
        for metric, sites in sorted(self._registry.items()):
            kinds = {kind for kind, *_ in sites}
            if len(kinds) > 1:
                kind, module, line, qualname = sites[-1]
                others = ", ".join(sorted(kinds - {kind}))
                yield Finding(
                    rule=self.name,
                    path=module.path,
                    line=line,
                    qualname=qualname,
                    message=(
                        f"metric {metric!r} registered as {kind} here but "
                        f"as {others} elsewhere; one name, one kind"
                    ),
                )
        self._registry = {}


class WallClockRule(Rule):
    """REPRO-L007: no wall-clock reads anywhere in the tree.

    L002 bans the wall clock in *seeded* paths; this rule extends the
    ban tree-wide.  Model behaviour must derive "time" from document
    ``DATE`` metadata (:mod:`repro.temporal.epochs`), and durations
    from ``time.perf_counter`` (monotonic, exempt).  The few legitimate
    operational uses -- event timestamps, service uptime -- carry
    allowlist entries explaining why a machine-clock read is the point.

    Catches both calls (``time.time()``) and bare references handed to
    other machinery (``field(default_factory=time.time)``).
    """

    name = "REPRO-L007"
    title = "wall-clock read outside an allowlisted operational site"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in module.nodes(ast.Call, ast.Attribute):
            if isinstance(node, ast.Call):
                origin = resolve_call(node, module.imports)
                if origin in _WALL_CLOCK_CALLS:
                    yield self._finding(module, node, (
                        f"{origin}() reads the machine clock; derive time "
                        "from document DATE metadata (repro.temporal) or "
                        "use time.perf_counter for durations"
                    ))
            else:
                parent = getattr(node, "_repro_parent", None)
                if isinstance(parent, ast.Call) and parent.func is node:
                    continue  # the Call branch above reports it
                if isinstance(parent, ast.Attribute):
                    continue  # inner link of a longer dotted chain
                origin = resolve_reference(node, module.imports)
                if origin in _WALL_CLOCK_CALLS:
                    yield self._finding(module, node, (
                        f"reference to {origin} hands the machine clock to "
                        "other machinery (e.g. default_factory); wall-clock "
                        "reads need an allowlisted operational site"
                    ))

    def _finding(
        self, module: ModuleInfo, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.name,
            path=module.path,
            line=node.lineno,
            qualname=qualname_of(node),
            message=message,
        )


def default_rules() -> List[Rule]:
    """The shipped rule set, in numeric order."""
    return [
        GuardedAttributeRule(),
        DeterminismRule(),
        AtomicPublishRule(),
        SwallowedExceptionRule(),
        ForkDisciplineRule(),
        MetricNamesRule(),
        WallClockRule(),
    ]
