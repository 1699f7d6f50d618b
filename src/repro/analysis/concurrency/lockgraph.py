"""Static lock-order analyzer: the whole-program lock-acquisition graph.

The serving stack holds a dozen ``threading`` locks across seven modules;
each is correct in isolation, but deadlocks live in the *composition*:
one thread takes A then B, another B then A, and the first heavy-traffic
afternoon finds the interleaving no test did.  This analyzer makes the
composition auditable:

1. **Lock registry** -- every ``self._x = threading.Lock()`` (or RLock /
   Condition) attribute, every module-level lock, and every lock-factory
   method (one returning ``threading.Lock()`` instances, e.g. a per-key
   lock table) becomes a named lock: ``WorkerPool._lock``, a module
   global as ``module._LOCK``, ``DatasetStore._write_lock()``.
2. **Function summaries** -- each function is walked once, tracking the
   set of locks lexically held (``with self._lock:`` scopes), the calls
   made while holding them, and the *effects* reached: process forks
   (``os.fork``, ``ctx.Process(...)``), ``await``, and blocking waits
   (``time.sleep``, ``.result()``, ``.join()``, ``.wait()``).
3. **Inter-procedural fixpoint** -- calls are resolved through imports,
   ``self``-method dispatch, and ``__init__``-declared attribute types;
   each function's *may-acquire* lock set and effect set is the union of
   its own and its callees', to a fixpoint.
4. **Findings** -- three rules, each with a witness call path:

   * ``REPRO-C001``: a cycle in the lock-order graph (potential
     deadlock);
   * ``REPRO-C002``: a lock held across a fork / ``await`` / blocking
     call (a forked child inherits the locked mutex; a blocked holder
     starves every other acquirer);
   * ``REPRO-C003``: double acquisition of a non-reentrant lock on one
     call path (self-deadlock).

Resolution is deliberately conservative: calls on values whose type the
analyzer cannot prove are skipped, so the graph under-approximates --
anything it *does* report is a real structural path.  The runtime half
(:mod:`repro.analysis.sanitize`) covers the gap by recording the orders
that actually happen under test and checking them against this graph.

Exemptions use the reprolint allowlist discipline: a blessed ordering is
an entry in ``lockorder.allow`` with a ``# why`` justification, checked
for staleness exactly like ``reprolint.allow``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint.engine import (
    Finding,
    ModuleInfo,
    is_self_attribute,
    iter_source_files,
    parse_module,
    resolve_call,
)

#: ``threading`` constructors that create a lock, and whether the result
#: may be re-acquired by its holder.
_LOCK_CTORS = {
    "threading.Lock": ("Lock", False),
    "threading.RLock": ("RLock", True),
    "threading.Condition": ("Condition", True),
}

#: Dotted call origins that fork the process outright.
_FORK_ORIGINS = {"os.fork", "os.forkpty"}

#: Dotted call origins that block the calling thread.
_BLOCKING_ORIGINS = {"time.sleep", "select.select"}

#: Attribute calls treated as blocking waits regardless of receiver
#: (``future.result()``, ``thread.join()``, ``event.wait()``).  String
#: literals (``", ".join``) and ``os.path.join`` are excluded at the
#: call site.
_BLOCKING_ATTRS = {"result", "join", "wait"}


@dataclass(frozen=True)
class LockInfo:
    """One named lock in the tree."""

    lock_id: str  #: e.g. ``"WorkerPool._lock"`` or ``"module._LOCK"``
    kind: str  #: Lock | RLock | Condition | factory kind
    reentrant: bool
    path: str  #: posix path of the defining module
    line: int

    def payload(self) -> dict:
        return {
            "lock": self.lock_id,
            "kind": self.kind,
            "reentrant": self.reentrant,
            "path": self.path,
            "line": self.line,
        }


@dataclass
class LockOrderEdge:
    """``holding`` acquired before ``acquiring``, with one witness path."""

    holding: str
    acquiring: str
    witness: List[str]  #: ``["Cls.meth:line", ...]`` outermost first

    def payload(self) -> dict:
        return {
            "holding": self.holding,
            "acquiring": self.acquiring,
            "witness": self.witness,
        }


@dataclass
class _Summary:
    """Per-function facts feeding the fixpoint."""

    key: str  #: dotted key, e.g. ``repro.serve.server.InferenceService.close``
    module: ModuleInfo
    qualname: str
    cls: Optional[str]  #: enclosing class name, if a method
    #: direct acquisitions: (lock_id, line, held-at-that-point)
    acquires: List[Tuple[str, int, Tuple[str, ...]]] = field(
        default_factory=list
    )
    #: resolved calls: (callee_key, line, held-at-that-point)
    calls: List[Tuple[str, int, Tuple[str, ...]]] = field(
        default_factory=list
    )
    #: direct effects: (kind, line, detail, held-at-that-point)
    effects: List[Tuple[str, int, str, Tuple[str, ...]]] = field(
        default_factory=list
    )
    #: fixpoint: lock -> ("direct", line) | ("via", callee_key, call_line)
    may_acquire: Dict[str, tuple] = field(default_factory=dict)
    #: fixpoint: kind -> ("direct", line, detail)
    #:               | ("via", callee_key, call_line, detail)
    may_effects: Dict[str, tuple] = field(default_factory=dict)


@dataclass
class LockGraphReport:
    """The machine-readable analysis result."""

    locks: List[LockInfo]
    edges: List[LockOrderEdge]
    findings: List[Finding]
    n_modules: int
    n_functions: int

    def to_payload(self) -> dict:
        return {
            "locks": [lock.payload() for lock in self.locks],
            "edges": [edge.payload() for edge in self.edges],
            "findings": [
                {
                    "rule": f.rule,
                    "path": f.path.as_posix(),
                    "line": f.line,
                    "qualname": f.qualname,
                    "message": f.message,
                }
                for f in self.findings
            ],
            "n_modules": self.n_modules,
            "n_functions": self.n_functions,
        }

    def edge_pairs(self) -> Set[Tuple[str, str]]:
        """The static order relation as ``(holding, acquiring)`` pairs --
        the contract the runtime sanitizer checks observations against."""
        return {(edge.holding, edge.acquiring) for edge in self.edges}


class _Analyzer:
    def __init__(self, root: Path) -> None:
        self.root = root
        self.modules: List[ModuleInfo] = []
        self.module_dotted: Dict[str, str] = {}  # posix -> dotted name
        self.locks: Dict[str, LockInfo] = {}
        #: (dotted_module, class_name, attr) -> lock_id
        self.attr_locks: Dict[Tuple[str, str, str], str] = {}
        #: (dotted_module, name) -> lock_id for module-level locks
        self.global_locks: Dict[Tuple[str, str], str] = {}
        #: (dotted_module, class_name, method) -> lock_id for factories
        self.factory_locks: Dict[Tuple[str, str, str], str] = {}
        self.classes: Dict[str, ast.ClassDef] = {}  # dotted class key
        self.functions: Dict[str, _Summary] = {}  # dotted function key
        #: (dotted class key, attr) -> dotted class key of the value
        self.attr_types: Dict[Tuple[str, str], str] = {}

    # -- phase 1: parse, register locks / classes -----------------------
    def load(self, targets: Sequence[Path]) -> None:
        for path in iter_source_files(targets):
            module = parse_module(path)
            self.modules.append(module)
            self.module_dotted[module.posix] = self._dotted_name(path)
        for module in self.modules:
            self._register_module(module)
        for module in self.modules:
            self._register_attr_types(module)
        # Declare every function before filling any summary: call
        # resolution consults ``self.functions``, and module order must
        # not decide whether a cross-module callee resolves.
        declared = [
            (module, fn)
            for module in self.modules
            for fn in self._declare_module(module)
        ]
        for module, (summary, fn) in declared:
            for stmt in fn.body:
                self._visit(
                    summary, self.module_dotted[module.posix], stmt, ()
                )
        self._fixpoint()

    def _dotted_name(self, path: Path) -> str:
        resolved = path.resolve()
        try:
            rel = resolved.relative_to(self.root.resolve())
            parts = (self.root.name,) + rel.parts
        except ValueError:
            parts = (resolved.stem,)
        parts = tuple(p[:-3] if p.endswith(".py") else p for p in parts)
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    def _lock_ctor(
        self, node: ast.AST, imports: Dict[str, str]
    ) -> Optional[Tuple[str, bool]]:
        """``(kind, reentrant)`` when ``node`` constructs a lock."""
        if not isinstance(node, ast.Call):
            return None
        origin = resolve_call(node, imports)
        return _LOCK_CTORS.get(origin) if origin else None

    def _register_module(self, module: ModuleInfo) -> None:
        dotted = self.module_dotted[module.posix]
        stem = Path(module.posix).stem
        for stmt in module.tree.body:
            if isinstance(stmt, ast.Assign):
                ctor = self._lock_ctor(stmt.value, module.imports)
                if ctor:
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            lock_id = f"{stem}.{target.id}"
                            self.global_locks[(dotted, target.id)] = lock_id
                            self._add_lock(
                                lock_id, ctor, module, stmt.lineno
                            )
            elif isinstance(stmt, ast.ClassDef):
                self.classes[f"{dotted}.{stmt.name}"] = stmt
                self._register_class(module, dotted, stmt)

    def _register_class(
        self, module: ModuleInfo, dotted: str, cls: ast.ClassDef
    ) -> None:
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign):
                ctor = self._lock_ctor(node.value, module.imports)
                if not ctor:
                    continue
                for target in node.targets:
                    if is_self_attribute(target):
                        lock_id = f"{cls.name}.{target.attr}"
                        self.attr_locks[(dotted, cls.name, target.attr)] = (
                            lock_id
                        )
                        self._add_lock(lock_id, ctor, module, node.lineno)
        # Lock factories: a method whose return value contains a lock
        # constructor (per-key lock tables like DatasetStore._write_lock)
        # names a whole *family* of locks, modelled as one.
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            for node in ast.walk(method):
                if not isinstance(node, ast.Return) or node.value is None:
                    continue
                for sub in ast.walk(node.value):
                    ctor = self._lock_ctor(sub, module.imports)
                    if ctor:
                        lock_id = f"{cls.name}.{method.name}()"
                        self.factory_locks[
                            (dotted, cls.name, method.name)
                        ] = lock_id
                        self._add_lock(lock_id, ctor, module, method.lineno)
                        break

    def _add_lock(
        self,
        lock_id: str,
        ctor: Tuple[str, bool],
        module: ModuleInfo,
        line: int,
    ) -> None:
        if lock_id not in self.locks:
            kind, reentrant = ctor
            self.locks[lock_id] = LockInfo(
                lock_id=lock_id,
                kind=kind,
                reentrant=reentrant,
                path=module.path.as_posix(),
                line=line,
            )

    # -- phase 2: attribute types (``self.x = ClassName(...)``) ---------
    def _resolve_class_key(
        self, node: ast.AST, module: ModuleInfo
    ) -> Optional[str]:
        dotted = self.module_dotted[module.posix]
        if isinstance(node, ast.IfExp):
            return self._resolve_class_key(
                node.body, module
            ) or self._resolve_class_key(node.orelse, module)
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if isinstance(func, ast.Name):
            local = f"{dotted}.{func.id}"
            if local in self.classes:
                return local
            origin = module.imports.get(func.id)
            if origin and origin in self.classes:
                return origin
        return None

    def _register_attr_types(self, module: ModuleInfo) -> None:
        dotted = self.module_dotted[module.posix]
        for stmt in module.tree.body:
            if not isinstance(stmt, ast.ClassDef):
                continue
            cls_key = f"{dotted}.{stmt.name}"
            for method in stmt.body:
                if not (
                    isinstance(method, ast.FunctionDef)
                    and method.name == "__init__"
                ):
                    continue
                for node in ast.walk(method):
                    if not isinstance(node, ast.Assign):
                        continue
                    value_key = self._resolve_class_key(node.value, module)
                    if value_key is None:
                        continue
                    for target in node.targets:
                        if is_self_attribute(target):
                            self.attr_types[(cls_key, target.attr)] = (
                                value_key
                            )

    # -- phase 3: function summaries ------------------------------------
    def _declare_module(
        self, module: ModuleInfo
    ) -> List[Tuple[_Summary, ast.AST]]:
        dotted = self.module_dotted[module.posix]
        out: List[Tuple[_Summary, ast.AST]] = []
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append(self._declare(module, dotted, None, stmt))
            elif isinstance(stmt, ast.ClassDef):
                for method in stmt.body:
                    if isinstance(
                        method, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        out.append(
                            self._declare(module, dotted, stmt.name, method)
                        )
        return out

    def _declare(
        self,
        module: ModuleInfo,
        dotted: str,
        cls: Optional[str],
        fn: ast.AST,
    ) -> Tuple[_Summary, ast.AST]:
        qualname = f"{cls}.{fn.name}" if cls else fn.name
        summary = _Summary(
            key=f"{dotted}.{qualname}",
            module=module,
            qualname=qualname,
            cls=cls,
        )
        self.functions[summary.key] = summary
        return summary, fn

    def _lock_of_item(
        self, summary: _Summary, dotted: str, expr: ast.AST
    ) -> Optional[str]:
        if is_self_attribute(expr) and summary.cls:
            return self.attr_locks.get((dotted, summary.cls, expr.attr))
        if isinstance(expr, ast.Name):
            return self.global_locks.get((dotted, expr.id))
        if (
            isinstance(expr, ast.Call)
            and is_self_attribute(expr.func)
            and summary.cls
        ):
            return self.factory_locks.get(
                (dotted, summary.cls, expr.func.attr)
            )
        return None

    def _visit(
        self,
        summary: _Summary,
        dotted: str,
        node: ast.AST,
        held: Tuple[str, ...],
    ) -> None:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                   ast.ClassDef)
        ):
            return  # nested definitions execute later, not here
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = held
            for item in node.items:
                self._visit(summary, dotted, item.context_expr, inner)
                lock = self._lock_of_item(summary, dotted, item.context_expr)
                if lock is not None:
                    summary.acquires.append(
                        (lock, item.context_expr.lineno, inner)
                    )
                    inner = inner + (lock,)
            for stmt in node.body:
                self._visit(summary, dotted, stmt, inner)
            return
        if isinstance(node, ast.Await):
            if held:
                summary.effects.append(
                    ("await", node.lineno, "await expression", held)
                )
            self._visit(summary, dotted, node.value, held)
            return
        if isinstance(node, ast.Call):
            self._visit_call(summary, dotted, node, held)
        for child in ast.iter_child_nodes(node):
            self._visit(summary, dotted, child, held)

    def _visit_call(
        self,
        summary: _Summary,
        dotted: str,
        node: ast.Call,
        held: Tuple[str, ...],
    ) -> None:
        module = summary.module
        origin = resolve_call(node, module.imports)
        func = node.func
        # direct effects -------------------------------------------------
        if origin in _FORK_ORIGINS:
            summary.effects.append(
                ("fork", node.lineno, f"{origin}()", held)
            )
        elif origin in _BLOCKING_ORIGINS:
            summary.effects.append(
                ("blocking", node.lineno, f"{origin}()", held)
            )
        elif isinstance(func, ast.Attribute):
            if func.attr == "Process":
                # ctx.Process(...): worker process construction -- the
                # fork happens on .start(), invariably adjacent.
                summary.effects.append(
                    ("fork", node.lineno, "Process(...)", held)
                )
            elif (
                func.attr in _BLOCKING_ATTRS
                and not isinstance(func.value, ast.Constant)
                and not (origin or "").startswith("os.path")
            ):
                summary.effects.append(
                    ("blocking", node.lineno, f".{func.attr}()", held)
                )
            elif func.attr == "acquire":
                lock = self._lock_of_item(summary, dotted, func.value)
                if lock is not None:
                    # bare .acquire(): order edge, no scoped hold
                    summary.acquires.append((lock, node.lineno, held))
        # call edge -------------------------------------------------------
        callee = self._resolve_callee(summary, dotted, node)
        if callee is not None:
            summary.calls.append((callee, node.lineno, held))

    def _resolve_callee(
        self, summary: _Summary, dotted: str, node: ast.Call
    ) -> Optional[str]:
        func = node.func
        module = summary.module
        key: Optional[str] = None
        if isinstance(func, ast.Name):
            local = f"{dotted}.{func.id}"
            if local in self.classes or local in self.functions:
                key = local
            else:
                origin = module.imports.get(func.id)
                if origin and (
                    origin in self.classes or origin in self.functions
                ):
                    key = origin
        elif is_self_attribute(func) and summary.cls:
            key = f"{dotted}.{summary.cls}.{func.attr}"
        elif (
            isinstance(func, ast.Attribute)
            and is_self_attribute(func.value)
            and summary.cls
        ):
            # self.<attr>.<method>() via the __init__-declared type
            owner = self.attr_types.get(
                (f"{dotted}.{summary.cls}", func.value.attr)
            )
            if owner is not None:
                key = f"{owner}.{func.attr}"
        elif isinstance(func, ast.Attribute):
            origin = resolve_call(node, module.imports)
            if origin and (
                origin in self.classes or origin in self.functions
            ):
                key = origin
        if key is None:
            return None
        if key in self.classes:
            init = f"{key}.__init__"
            return init if init in self.functions else None
        return key if key in self.functions else None

    # -- phase 4: fixpoint ----------------------------------------------
    def _fixpoint(self) -> None:
        for summary in self.functions.values():
            for lock, line, _ in summary.acquires:
                summary.may_acquire.setdefault(lock, ("direct", line))
            for kind, line, detail, _ in summary.effects:
                summary.may_effects.setdefault(
                    kind, ("direct", line, detail)
                )
        changed = True
        while changed:
            changed = False
            for summary in self.functions.values():
                for callee_key, line, _ in summary.calls:
                    callee = self.functions.get(callee_key)
                    if callee is None:
                        continue
                    for lock in callee.may_acquire:
                        if lock not in summary.may_acquire:
                            summary.may_acquire[lock] = (
                                "via", callee_key, line
                            )
                            changed = True
                    for kind, entry in callee.may_effects.items():
                        if kind not in summary.may_effects:
                            summary.may_effects[kind] = (
                                "via", callee_key, line, entry[-1]
                            )
                            changed = True

    # -- witness reconstruction -----------------------------------------
    def _short(self, key: str) -> str:
        summary = self.functions.get(key)
        return summary.qualname if summary else key

    def _chain_to_lock(self, start_key: str, lock: str) -> List[str]:
        parts: List[str] = []
        key, seen = start_key, set()
        while key is not None and key not in seen:
            seen.add(key)
            summary = self.functions.get(key)
            if summary is None or lock not in summary.may_acquire:
                break
            entry = summary.may_acquire[lock]
            if entry[0] == "direct":
                parts.append(f"{summary.qualname}:{entry[1]}")
                break
            parts.append(f"{summary.qualname}:{entry[2]}")
            key = entry[1]
        return parts

    def _chain_to_effect(self, start_key: str, kind: str) -> List[str]:
        parts: List[str] = []
        key, seen = start_key, set()
        while key is not None and key not in seen:
            seen.add(key)
            summary = self.functions.get(key)
            if summary is None or kind not in summary.may_effects:
                break
            entry = summary.may_effects[kind]
            if entry[0] == "direct":
                parts.append(f"{summary.qualname}:{entry[1]}")
                break
            parts.append(f"{summary.qualname}:{entry[2]}")
            key = entry[1]
        return parts

    # -- findings ---------------------------------------------------------
    def report(self) -> LockGraphReport:
        edges: Dict[Tuple[str, str], LockOrderEdge] = {}
        findings: List[Finding] = []

        def add_edge(
            holding: str, acquiring: str, witness: List[str]
        ) -> None:
            pair = (holding, acquiring)
            if pair not in edges:
                edges[pair] = LockOrderEdge(holding, acquiring, witness)

        def finding(
            summary: _Summary, line: int, rule: str, message: str
        ) -> None:
            findings.append(Finding(
                rule=rule,
                path=summary.module.path,
                line=line,
                qualname=summary.qualname,
                message=message,
            ))

        for summary in self.functions.values():
            here = summary.qualname
            # direct acquisitions under held locks
            for lock, line, held in summary.acquires:
                for holder in held:
                    witness = [f"{here}:{line}"]
                    if holder == lock:
                        if not self.locks[lock].reentrant:
                            finding(summary, line, "REPRO-C003", (
                                f"non-reentrant {lock} re-acquired while "
                                f"already held (self-deadlock)"
                            ))
                    else:
                        add_edge(holder, lock, witness)
            # calls under held locks: propagate callee acquisitions/effects
            for callee_key, line, held in summary.calls:
                callee = self.functions.get(callee_key)
                if callee is None or not held:
                    continue
                for lock in callee.may_acquire:
                    chain = [f"{here}:{line}"] + self._chain_to_lock(
                        callee_key, lock
                    )
                    for holder in held:
                        if holder == lock:
                            if not self.locks[lock].reentrant:
                                finding(summary, line, "REPRO-C003", (
                                    f"non-reentrant {lock} re-acquired on "
                                    f"call path {' -> '.join(chain)} "
                                    "(self-deadlock)"
                                ))
                        else:
                            add_edge(holder, lock, chain)
                for kind, entry in callee.may_effects.items():
                    chain = [f"{here}:{line}"] + self._chain_to_effect(
                        callee_key, kind
                    )
                    finding(summary, line, "REPRO-C002", (
                        f"{', '.join(held)} held across {kind} "
                        f"({entry[-1]}) via {' -> '.join(chain)}"
                    ))
            # direct effects under held locks
            for kind, line, detail, held in summary.effects:
                if held:
                    finding(summary, line, "REPRO-C002", (
                        f"{', '.join(held)} held across {kind} "
                        f"({detail}) at {here}:{line}"
                    ))

        findings.extend(self._cycle_findings(edges))
        findings.sort(key=lambda f: (f.path.as_posix(), f.line, f.rule))
        return LockGraphReport(
            locks=sorted(self.locks.values(), key=lambda l: l.lock_id),
            edges=[edges[pair] for pair in sorted(edges)],
            findings=findings,
            n_modules=len(self.modules),
            n_functions=len(self.functions),
        )

    def _cycle_findings(
        self, edges: Dict[Tuple[str, str], LockOrderEdge]
    ) -> Iterator[Finding]:
        graph: Dict[str, Set[str]] = {}
        for holding, acquiring in edges:
            graph.setdefault(holding, set()).add(acquiring)
        for scc in _strongly_connected(graph):
            if len(scc) < 2:
                continue
            cycle = sorted(scc)
            members = " -> ".join(cycle + [cycle[0]])
            witnesses = []
            for first, second in zip(cycle, cycle[1:] + [cycle[0]]):
                edge = edges.get((first, second))
                if edge is not None:
                    witnesses.append(
                        f"{first}->{second} via {' -> '.join(edge.witness)}"
                    )
            anchor = edges[min(
                (pair for pair in edges
                 if pair[0] in scc and pair[1] in scc),
            )]
            anchor_lock = self.locks[anchor.holding]
            yield Finding(
                rule="REPRO-C001",
                path=Path(anchor_lock.path),
                line=anchor_lock.line,
                qualname=anchor.holding,
                message=(
                    f"lock-order cycle (potential deadlock): {members}; "
                    + "; ".join(witnesses)
                ),
            )


def _strongly_connected(graph: Dict[str, Set[str]]) -> List[Set[str]]:
    """Tarjan's algorithm, iterative (the graph is tiny but recursion
    limits are nobody's friend in a linter)."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    result: List[Set[str]] = []
    counter = [0]

    nodes = set(graph)
    for targets in graph.values():
        nodes |= targets

    for start in sorted(nodes):
        if start in index:
            continue
        work: List[Tuple[str, Iterator[str]]] = [
            (start, iter(sorted(graph.get(start, ()))))
        ]
        index[start] = lowlink[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in index:
                    index[child] = lowlink[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append(
                        (child, iter(sorted(graph.get(child, ()))))
                    )
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                scc: Set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.add(member)
                    if member == node:
                        break
                result.append(scc)
    return result


def analyze_tree(
    targets: Sequence[Path], root: Optional[Path] = None
) -> LockGraphReport:
    """Run the lock-order analysis over ``targets``.

    Args:
        targets: files or directories (``*.py``, recursive).
        root: package root for dotted-name resolution; defaults to the
            first directory target (so imports like
            ``from repro.serve.workers import WorkerPool`` resolve to
            the scanned definitions).
    """
    if root is None:
        root = next(
            (t for t in targets if t.is_dir()),
            Path(targets[0]).parent if targets else Path("."),
        )
    analyzer = _Analyzer(root)
    analyzer.load(targets)
    return analyzer.report()
