"""reprolint: AST rule engine enforcing this repo's runtime invariants.

The invariants that keep the training/serving stack correct -- lock
discipline, deterministic seeding, atomic publishes, exception hygiene,
fork safety, metric naming -- were all enforced by review until now.
This engine enforces them mechanically: each :class:`Rule` walks the
parsed AST of every source module and yields :class:`Finding`\\ s, an
:class:`Allowlist` records the intentional exemptions (with a
justification each), and the CLI (``python -m repro.analysis``) exits
non-zero on anything unexplained.

The engine pre-annotates every AST node with its enclosing scope
(``node._repro_qualname``, e.g. ``"DatasetStore.discard"``) and parent
(``node._repro_parent``) so rules can reason lexically -- "is this
attribute access inside a ``with self._lock:`` block?" -- without each
rule re-deriving structure.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: Path
    line: int
    qualname: str
    message: str

    def render(self) -> str:
        where = f"{self.path}:{self.line}"
        scope = f" [{self.qualname}]" if self.qualname else ""
        return f"{where}: {self.rule}{scope}: {self.message}"


@dataclass
class ModuleInfo:
    """A parsed source module plus the lexical context rules need.

    Attributes:
        path: filesystem path (as given to the scanner).
        posix: resolved posix-style path, used for rule scoping and
            allowlist suffix matching.
        tree: the annotated AST (see module docstring).
        source: raw text.
        lines: source split into lines (for comment conventions).
        imports: local name -> dotted origin, e.g. ``{"np": "numpy",
            "get_context": "multiprocessing.get_context"}``.
    """

    path: Path
    posix: str
    tree: ast.Module
    source: str
    lines: List[str]
    imports: Dict[str, str] = field(default_factory=dict)
    node_index: Dict[type, List[ast.AST]] = field(default_factory=dict)

    def nodes(self, *types: type) -> Iterator[ast.AST]:
        """Every node of the given AST type(s), in source order.

        Backed by the index built during the single parse-time
        traversal, so N rules asking for ``ast.Call`` cost one walk
        total instead of N.
        """
        if len(types) == 1:
            yield from self.node_index.get(types[0], ())
            return
        picked = [
            node for t in types for node in self.node_index.get(t, ())
        ]
        picked.sort(key=lambda n: (
            getattr(n, "lineno", 0), getattr(n, "col_offset", 0)
        ))
        yield from picked


class Rule:
    """Base class: one named invariant.

    Subclasses set ``name`` / ``title`` and implement :meth:`check`;
    cross-module rules may also implement :meth:`finalize`, called once
    after every module has been checked.
    """

    name: str = "REPRO-L000"
    title: str = ""

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    def finalize(self) -> Iterator[Finding]:
        return iter(())


@dataclass(frozen=True)
class AllowlistEntry:
    rule: str
    path: str
    qualname: Optional[str]
    justification: str
    line: int

    def matches(self, finding: Finding) -> bool:
        if finding.rule != self.rule:
            return False
        posix = finding.path.as_posix()
        if not (posix == self.path or posix.endswith("/" + self.path)):
            return False
        if self.qualname is None:
            return True
        return (
            finding.qualname == self.qualname
            or finding.qualname.startswith(self.qualname + ".")
        )


class Allowlist:
    """Per-rule exemptions, one per line::

        REPRO-L004 repro/serve/gateway.py::GatewayServer._on_connection  # why

    The path matches on a ``/``-separated suffix; the ``::qualname`` part
    is optional and matches the scope or any nested scope.  A trailing
    ``#`` justification is required -- an exemption nobody can explain is
    a bug.
    """

    def __init__(self, entries: Sequence[AllowlistEntry]) -> None:
        self.entries = list(entries)
        self._used = [False] * len(self.entries)

    @classmethod
    def load(cls, path: Path) -> "Allowlist":
        entries: List[AllowlistEntry] = []
        for number, raw in enumerate(path.read_text().splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "#" not in line:
                raise ValueError(
                    f"{path}:{number}: allowlist entry needs a '# why' "
                    f"justification: {line!r}"
                )
            spec, justification = line.split("#", 1)
            parts = spec.split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{number}: expected 'RULE path[::qualname]  "
                    f"# why', got {line!r}"
                )
            rule, target = parts
            qualname: Optional[str] = None
            if "::" in target:
                target, qualname = target.split("::", 1)
            entries.append(AllowlistEntry(
                rule=rule,
                path=target,
                qualname=qualname,
                justification=justification.strip(),
                line=number,
            ))
        return cls(entries)

    @classmethod
    def empty(cls) -> "Allowlist":
        return cls([])

    def suppresses(self, finding: Finding) -> bool:
        hit = False
        for i, entry in enumerate(self.entries):
            if entry.matches(finding):
                self._used[i] = True
                hit = True
        return hit

    def unused_entries(self) -> List[AllowlistEntry]:
        return [e for e, used in zip(self.entries, self._used) if not used]


def _index_module(
    tree: ast.Module,
) -> Tuple[Dict[str, str], Dict[type, List[ast.AST]]]:
    """One traversal: annotate scopes, collect imports, index by type.

    Attaches ``_repro_parent`` and ``_repro_qualname`` to every node
    (as before), and in the same pass gathers the import table and a
    ``type -> [nodes in source order]`` index so rules never re-walk
    the tree.
    """
    imports: Dict[str, str] = {}
    index: Dict[type, List[ast.AST]] = {}

    def visit(node: ast.AST, parent: Optional[ast.AST], scope: str) -> None:
        node._repro_parent = parent  # type: ignore[attr-defined]
        node._repro_qualname = scope  # type: ignore[attr-defined]
        child_scope = scope
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            child_scope = f"{scope}.{node.name}" if scope else node.name
            node._repro_qualname = child_scope  # type: ignore[attr-defined]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imports[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    imports[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                imports[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        index.setdefault(type(node), []).append(node)
        for child in ast.iter_child_nodes(node):
            visit(child, node, child_scope)

    visit(tree, None, "")
    return imports, index


def parse_module(path: Path) -> ModuleInfo:
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    imports, index = _index_module(tree)
    return ModuleInfo(
        path=path,
        posix=path.resolve().as_posix(),
        tree=tree,
        source=source,
        lines=source.splitlines(),
        imports=imports,
        node_index=index,
    )


def iter_source_files(targets: Sequence[Path]) -> Iterator[Path]:
    for target in targets:
        if target.is_dir():
            yield from sorted(target.rglob("*.py"))
        else:
            yield target


def scan(
    targets: Sequence[Path],
    rules: Sequence[Rule],
    allowlist: Optional[Allowlist] = None,
) -> Tuple[List[Finding], List[Finding]]:
    """Run ``rules`` over every ``*.py`` under ``targets``.

    Returns:
        ``(reported, suppressed)`` findings, both sorted by location.
    """
    allowlist = allowlist or Allowlist.empty()
    raw: List[Finding] = []
    for path in iter_source_files(targets):
        module = parse_module(path)
        for rule in rules:
            raw.extend(rule.check(module))
    for rule in rules:
        raw.extend(rule.finalize())
    raw.sort(key=lambda f: (f.path.as_posix(), f.line, f.rule))
    reported = [f for f in raw if not allowlist.suppresses(f)]
    suppressed = [f for f in raw if f not in reported]
    return reported, suppressed


# ----------------------------------------------------------------------
# lexical helpers shared by rules
# ----------------------------------------------------------------------
def ancestors(node: ast.AST) -> Iterator[ast.AST]:
    current = getattr(node, "_repro_parent", None)
    while current is not None:
        yield current
        current = getattr(current, "_repro_parent", None)


def qualname_of(node: ast.AST) -> str:
    return getattr(node, "_repro_qualname", "")


def is_self_attribute(node: ast.AST, attr: Optional[str] = None) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and (attr is None or node.attr == attr)
    )


def in_with_on(node: ast.AST, lock_attrs: Iterable[str]) -> bool:
    """True when ``node`` sits lexically inside ``with self.<lock>: ...``
    for any of ``lock_attrs`` (bare or ``.acquire()``-free usage)."""
    wanted = set(lock_attrs)
    for ancestor in ancestors(node):
        if isinstance(ancestor, (ast.With, ast.AsyncWith)):
            for item in ancestor.items:
                for sub in ast.walk(item.context_expr):
                    if isinstance(sub, ast.Attribute) and sub.attr in wanted \
                            and is_self_attribute(sub):
                        return True
    return False


def resolve_call(node: ast.Call, imports: Dict[str, str]) -> Optional[str]:
    """The dotted origin of a call target, via the module's imports.

    ``np.random.seed(...)`` with ``import numpy as np`` resolves to
    ``"numpy.random.seed"``; calls on local objects resolve to ``None``.
    """
    return resolve_reference(node.func, imports)


def resolve_reference(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """The dotted origin of a bare name/attribute expression.

    Like :func:`resolve_call` but for references that are *not* called,
    e.g. ``time.time`` passed as ``default_factory=time.time``.
    """
    parts: List[str] = []
    current: ast.AST = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    parts.reverse()
    origin = imports.get(parts[0])
    if origin is None:
        return None
    return ".".join([origin] + parts[1:])
