"""Project-wide symbol table and call graph for whole-program rules.

The per-file rules (RL001-RL008) see one AST at a time; nondeterminism
reached through helpers and state mutated under fork-based supervision
cross module boundaries. This module builds the global view RL009 and
RL010 need in two steps:

1. :func:`summarize_module` reduces one parsed file to a
   :class:`ModuleSummary` -- every function (methods included, nested
   defs folded into their enclosing function) with its outgoing call
   and bare-callable-reference sites, its direct effects (the source
   uses :func:`repro.analysis.dataflow.scan_module` found in its body),
   its module-global mutations, plus the module's imports, classes,
   and module-level globals.
2. :func:`build_graph` resolves the textual call sites of every summary
   against the project symbol table into a :class:`CallGraph`: edges
   between fully-qualified function names. Call sites it cannot place
   get no edge.

Resolution is deliberately lightweight (LFOC-style global
classification, not a points-to analysis): local names, ``import`` /
``from-import`` aliases (re-exports chased a bounded number of hops),
``self.``/``cls.`` methods (following base classes resolvable in the
project), and classes (a constructed class links to its ``__init__``
and, for callables, ``__call__``). Calls on arbitrary objects
(``sink.emit(...)``) stay unresolved -- the analysis never guesses.
"""

from __future__ import annotations

import ast
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.analysis.dataflow import DirectEffect, dotted_name
from repro.analysis.registry import ModuleInfo

__all__ = [
    "CallSite",
    "DirectEffect",
    "GlobalMutation",
    "FunctionNode",
    "ClassNode",
    "GlobalDef",
    "ModuleSummary",
    "CallGraph",
    "module_dotted_name",
    "summarize_module",
    "build_graph",
]

#: Re-export chains (``from repro.engine import SoeRunSpec`` where the
#: package ``__init__`` itself re-imports) are chased this many hops.
_MAX_REEXPORT_HOPS = 5

#: Base-class chains (``self.method`` resolved through inheritance) are
#: chased this many levels.
_MAX_BASE_DEPTH = 5


def module_dotted_name(relpath: str) -> str:
    """Dotted module name of a repo-relative path.

    ``src/repro/engine/soe.py`` -> ``repro.engine.soe``;
    ``src/repro/telemetry/__init__.py`` -> ``repro.telemetry``.
    """
    parts = relpath[:-3].split("/") if relpath.endswith(".py") else relpath.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass(frozen=True)
class CallSite:
    """One outgoing call (or bare callable reference) in a function."""

    callee: str  #: dotted name as written, e.g. ``self.step`` / ``mod.f``
    line: int
    ref: bool = False  #: True = referenced as a value, not called


@dataclass(frozen=True)
class GlobalMutation:
    """A mutation of a module-level name inside a function body."""

    name: str  #: the module-global being mutated
    line: int
    how: str  #: e.g. ``global-assign`` / ``.append()`` / ``[]=``


@dataclass(frozen=True)
class FunctionNode:
    """One function (or method) in the project symbol table."""

    qualname: str  #: fully qualified, e.g. ``repro.engine.soe.SoeEngine.run``
    relpath: str
    name: str  #: simple name
    lineno: int
    cls: Optional[str]  #: enclosing class qual within the module, or None
    calls: Tuple[CallSite, ...] = ()
    effects: Tuple[DirectEffect, ...] = ()
    mutations: Tuple[GlobalMutation, ...] = ()


@dataclass(frozen=True)
class ClassNode:
    """One class: its methods (simple names) and base-class spellings."""

    qualname: str  #: fully qualified, e.g. ``repro.engine.soe.SoeEngine``
    bases: Tuple[str, ...]
    methods: Tuple[str, ...]


@dataclass(frozen=True)
class GlobalDef:
    """One module-level binding, with its fork-safety documentation."""

    name: str
    line: int
    #: The defining line (or the comment line above it) carries a
    #: ``fork-safe: <reason>`` marker documenting per-process
    #: reinitialization (see rule RL010).
    fork_safe: bool


@dataclass
class ModuleSummary:
    """Everything whole-program analysis needs from one file."""

    relpath: str
    module: str  #: dotted module name
    imports: Dict[str, str] = field(default_factory=dict)
    #: local name -> (module, original name) for ``from m import n as x``
    from_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: qual-within-module -> node (e.g. ``SoeEngine.run``)
    functions: Dict[str, FunctionNode] = field(default_factory=dict)
    #: qual-within-module -> class node
    classes: Dict[str, ClassNode] = field(default_factory=dict)
    #: module-level bindings by name
    globals: Dict[str, GlobalDef] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Summarizing one module
# ---------------------------------------------------------------------------

#: Marker documenting that a mutable module-global is reinitialized per
#: process (rule RL010); placed on the defining line or the line above.
FORK_SAFE_MARKER = "fork-safe:"

def _has_fork_safe_marker(lines: List[str], lineno: int) -> bool:
    """``fork-safe:`` on the defining line or the comment line above."""
    for index in (lineno, lineno - 1):
        if 1 <= index <= len(lines) and FORK_SAFE_MARKER in lines[index - 1]:
            return True
    return False


class _FunctionScanner(ast.NodeVisitor):
    """Collect the call/reference/mutation sites of one function body.

    Nested function defs and lambdas are folded into the enclosing
    function: their calls and effects belong to whoever defines them.
    """

    def __init__(self, module_globals: Set[str]) -> None:
        self.calls: List[CallSite] = []
        self.mutations: List[GlobalMutation] = []
        self._module_globals = module_globals
        self._declared_global: Set[str] = set()
        self._called_nodes: Set[int] = set()

    _MUTATING_METHODS = {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "clear",
        "pop",
        "popleft",
        "popitem",
        "remove",
        "discard",
        "setdefault",
        "appendleft",
        "sort",
        "reverse",
    }

    def visit_Global(self, node: ast.Global) -> None:
        self._declared_global.update(node.names)

    def visit_Call(self, node: ast.Call) -> None:
        callee = dotted_name(node.func)
        if callee is not None:
            self._called_nodes.add(id(node.func))
            self.calls.append(CallSite(callee, node.lineno, ref=False))
            root, _, method = callee.rpartition(".")
            if (
                root in self._module_globals
                and method in self._MUTATING_METHODS
            ):
                self.mutations.append(
                    GlobalMutation(root, node.lineno, f".{method}()")
                )
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and id(node) not in self._called_nodes:
            self.calls.append(CallSite(node.id, node.lineno, ref=True))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load) and id(node) not in self._called_nodes:
            dotted = dotted_name(node)
            if dotted is not None:
                self.calls.append(CallSite(dotted, node.lineno, ref=True))
                return  # don't descend: the inner Name is part of this ref
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            dotted = dotted_name(node.value)
            if dotted is not None and dotted in self._module_globals:
                self.mutations.append(
                    GlobalMutation(dotted, node.lineno, f".{node.attr}=")
                )
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            dotted = dotted_name(node.value)
            if dotted is not None and dotted in self._module_globals:
                self.mutations.append(
                    GlobalMutation(dotted, node.lineno, "[]=")
                )
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_global_assign(node.targets, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_global_assign([node.target], node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record_global_assign([node.target], node.lineno)
        self.generic_visit(node)

    def _record_global_assign(
        self, targets: List[ast.expr], lineno: int
    ) -> None:
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id in self._declared_global
            ):
                self.mutations.append(
                    GlobalMutation(target.id, lineno, "global-assign")
                )


def _iter_defs(
    body: List[ast.stmt], prefix: str
) -> Iterator[Tuple[str, ast.AST]]:
    """Yield (qual-within-module, node) for defs and classes in a body."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}{stmt.name}", stmt
        elif isinstance(stmt, ast.ClassDef):
            yield f"{prefix}{stmt.name}", stmt
            yield from _iter_defs(stmt.body, f"{prefix}{stmt.name}.")
        elif isinstance(stmt, (ast.If, ast.Try)):
            # Defs guarded by TYPE_CHECKING / try-import blocks.
            for sub in ast.iter_child_nodes(stmt):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{prefix}{sub.name}", sub
                elif isinstance(sub, ast.ClassDef):
                    yield f"{prefix}{sub.name}", sub
                    yield from _iter_defs(sub.body, f"{prefix}{sub.name}.")


def _effects_by_function(
    module: ModuleInfo, defs: List[Tuple[str, ast.AST]]
) -> Dict[ast.AST, List[DirectEffect]]:
    """File each source use of the module under the function of ``defs``
    whose body holds it, by source position (nested defs fold into their
    owner)."""
    spans = sorted(
        (
            (node.body[0].lineno, node.body[0].col_offset),
            (node.end_lineno or node.lineno, node.end_col_offset or 0),
            index,
            node,
        )
        for index, (_qual, node) in enumerate(defs)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    starts = [span[0] for span in spans]
    effects: Dict[ast.AST, List[DirectEffect]] = {}
    for where, effect in module.sources().uses:
        index = bisect_right(starts, where) - 1
        if index >= 0 and where < spans[index][1]:
            effects.setdefault(spans[index][3], []).append(effect)
    return effects


def summarize_module(module: ModuleInfo) -> ModuleSummary:
    """Reduce one parsed file to its whole-program summary."""
    dotted_module = module_dotted_name(module.relpath)
    summary = ModuleSummary(relpath=module.relpath, module=dotted_module)
    lines = module.lines

    for node in module.tree.body:
        if isinstance(node, ast.Import):
            for name in node.names:
                summary.imports[name.asname or name.name.split(".")[0]] = (
                    name.name
                )
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import: anchor at this package
                package_parts = dotted_module.split(".")
                # A package __init__'s dotted name IS its package; a
                # plain module must first drop its own last component.
                if not module.relpath.endswith("__init__.py"):
                    package_parts = package_parts[:-1]
                if node.level > 1:
                    package_parts = package_parts[
                        : len(package_parts) - (node.level - 1)
                    ]
                base = ".".join(package_parts)
                target = f"{base}.{node.module}" if node.module else base
            elif node.module is not None:
                target = node.module
            else:
                continue
            for name in node.names:
                if name.name == "*":
                    continue
                summary.from_imports[name.asname or name.name] = (
                    target,
                    name.name,
                )

    defs = list(_iter_defs(module.tree.body, ""))

    # Module-level globals (assignments at module scope).
    for stmt in module.tree.body:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            summary.globals[target.id] = GlobalDef(
                name=target.id,
                line=stmt.lineno,
                fork_safe=_has_fork_safe_marker(lines, stmt.lineno),
            )

    module_globals = set(summary.globals)
    direct = _effects_by_function(module, defs)

    for qual, node in defs:
        if isinstance(node, ast.ClassDef):
            methods = tuple(
                stmt.name
                for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
            bases = tuple(
                base_name
                for base in node.bases
                if (base_name := dotted_name(base)) is not None
            )
            summary.classes[qual] = ClassNode(
                qualname=f"{dotted_module}.{qual}",
                bases=bases,
                methods=methods,
            )
            continue
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        scanner = _FunctionScanner(module_globals)
        for stmt in node.body:
            scanner.visit(stmt)
        cls_qual = qual.rpartition(".")[0] or None
        effects = direct.get(node, ())
        summary.functions[qual] = FunctionNode(
            qualname=f"{dotted_module}.{qual}",
            relpath=module.relpath,
            name=node.name,
            lineno=node.lineno,
            cls=cls_qual,
            calls=tuple(scanner.calls),
            effects=tuple(
                sorted(set(effects), key=lambda e: (e.kind, e.line, e.detail))
            ),
            mutations=tuple(scanner.mutations),
        )
    return summary


# ---------------------------------------------------------------------------
# The resolved project call graph
# ---------------------------------------------------------------------------


@dataclass
class CallGraph:
    """Resolved project call graph over fully-qualified function names."""

    #: fully-qualified name -> node, for every function in the project
    functions: Dict[str, FunctionNode] = field(default_factory=dict)
    #: caller -> called functions (resolved, sorted, deduplicated)
    call_edges: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: caller -> functions referenced as values (callbacks, factories)
    ref_edges: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    summaries: Dict[str, ModuleSummary] = field(default_factory=dict)

    def callers_of(self) -> Dict[str, List[str]]:
        """Reverse call adjacency: callee -> sorted list of callers."""
        reverse: Dict[str, List[str]] = {}
        for caller, callees in self.call_edges.items():
            for callee in callees:
                reverse.setdefault(callee, []).append(caller)
        return {callee: sorted(set(callers)) for callee, callers in reverse.items()}


class _Resolver:
    """Resolves textual callee spellings against the symbol table."""

    def __init__(self, summaries: Mapping[str, ModuleSummary]) -> None:
        self._by_module: Dict[str, ModuleSummary] = {
            summary.module: summary for summary in summaries.values()
        }
        self.functions: Dict[str, FunctionNode] = {}
        self.classes: Dict[str, ClassNode] = {}
        for summary in summaries.values():
            for node in summary.functions.values():
                self.functions[node.qualname] = node
            for cls in summary.classes.values():
                self.classes[cls.qualname] = cls

    def _chase_reexport(self, module: str, name: str) -> Tuple[str, str]:
        """Follow ``from a import b`` chains through package re-exports."""
        for _ in range(_MAX_REEXPORT_HOPS):
            target = self._by_module.get(module)
            if target is None or name not in target.from_imports:
                break
            module, name = target.from_imports[name]
        return module, name

    def _resolve_root(
        self, summary: ModuleSummary, context: FunctionNode, root: str
    ) -> Optional[str]:
        """Resolve the first segment of a dotted callee to a full prefix."""
        if root in summary.functions:
            return f"{summary.module}.{root}"
        if root in summary.classes:
            return summary.classes[root].qualname
        if context.cls is not None:
            # Methods of the enclosing class shadow module names last.
            sibling = f"{context.cls}.{root}"
            if sibling in summary.functions:
                return f"{summary.module}.{sibling}"
        if root in summary.from_imports:
            # ``from pkg import name``: a function, class or submodule.
            module, name = self._chase_reexport(*summary.from_imports[root])
            return f"{module}.{name}"
        if root in summary.imports:
            return summary.imports[root]
        return None

    def _method_on_class(self, cls_qual: str, method: str) -> Optional[str]:
        """Find ``method`` on a class or its project-resolvable bases."""
        seen: Set[str] = set()
        queue = [cls_qual]
        for _ in range(_MAX_BASE_DEPTH):
            next_queue: List[str] = []
            for qual in queue:
                if qual in seen:
                    continue
                seen.add(qual)
                cls = self.classes.get(qual)
                if cls is None:
                    continue
                if method in cls.methods:
                    return f"{qual}.{method}"
                module = qual.rpartition(".")[0]
                summary = self._by_module.get(module)
                for base in cls.bases:
                    resolved = None
                    if summary is not None:
                        if base in summary.classes:
                            resolved = summary.classes[base].qualname
                        elif base in summary.from_imports:
                            m, n = self._chase_reexport(
                                *summary.from_imports[base]
                            )
                            resolved = f"{m}.{n}"
                    if resolved is not None and resolved in self.classes:
                        next_queue.append(resolved)
            if not next_queue:
                break
            queue = next_queue
        return None

    def _class_entry(self, cls_qual: str) -> Optional[str]:
        """The function a constructed/called class instance executes."""
        for entry in ("__init__", "__call__"):
            resolved = self._method_on_class(cls_qual, entry)
            if resolved is not None and resolved in self.functions:
                return resolved
        return None

    def resolve(
        self, summary: ModuleSummary, context: FunctionNode, callee: str
    ) -> Optional[str]:
        """Fully-qualified function the callee names, or None."""
        parts = callee.split(".")
        if parts[0] in ("self", "cls") and context.cls is not None:
            if len(parts) != 2:
                return None
            cls_qual = f"{summary.module}.{context.cls}"
            resolved = self._method_on_class(cls_qual, parts[1])
            if resolved is not None and resolved in self.functions:
                return resolved
            return None
        prefix = self._resolve_root(summary, context, parts[0])
        if prefix is None:
            return None
        target = ".".join([prefix, *parts[1:]])
        # ``from pkg import name`` where name is itself re-exported.
        module, _, attr = target.rpartition(".")
        if attr and module in self._by_module:
            chased_m, chased_n = self._chase_reexport(module, attr)
            target = f"{chased_m}.{chased_n}"
        if target in self.functions:
            return target
        if target in self.classes:
            return self._class_entry(target)
        return None


def build_graph(summaries: Mapping[str, ModuleSummary]) -> CallGraph:
    """Resolve every summary's call sites into the project call graph."""
    resolver = _Resolver(summaries)
    graph = CallGraph(
        functions=dict(resolver.functions),
        summaries=dict(summaries),
    )
    for relpath in sorted(summaries):
        summary = summaries[relpath]
        for node in summary.functions.values():
            calls: Set[str] = set()
            refs: Set[str] = set()
            for site in node.calls:
                target = resolver.resolve(summary, node, site.callee)
                if target is None or target == node.qualname:
                    continue  # unplaceable, or self-recursion
                (refs if site.ref else calls).add(target)
            if calls:
                graph.call_edges[node.qualname] = tuple(sorted(calls))
            refs -= calls
            if refs:
                graph.ref_edges[node.qualname] = tuple(sorted(refs))
    return graph
