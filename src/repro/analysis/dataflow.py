"""Effect inference: one source detector, then fixed-point taint.

The effect lattice is a flat powerset over :data:`EFFECT_KINDS`:

* ``rng``         -- process-global RNG state (RL001's sources);
* ``wallclock``   -- wall-clock reads (RL002's sources);
* ``set_iter``    -- unsorted set iteration (RL003's sources).

:func:`scan_module` is the one detector for every kind. It walks a
parsed file once, with one set of tables; imports count at any depth
(``import time`` inside a function binds ``time`` for the whole
module); a name bound to a set counts as a set in the function that
binds it, or everywhere when bound at module level. Two consumers read that scan, cached per module by
:meth:`repro.analysis.registry.ModuleInfo.sources`:

* the per-file rules RL001, RL002 and RL003 report
  :attr:`ModuleSources.reports`;
* :func:`repro.analysis.callgraph.summarize_module` files each of
  :attr:`ModuleSources.uses` under the function whose body holds it;
  those are its *direct* effects, and RL009 seeds its taint from them.

A use's :attr:`DirectEffect.anchor` is the line of the per-file
finding that covers it: the use itself, or the ``from`` import a bare
name came from. A pragma that silences that finding sanctions the use
too.

:func:`propagate` then closes the relation over the call graph:
breadth-first over reverse call edges from every directly-effectful
function, so a function's inferred effect set is the union of its own
and everything it can reach. Each propagated effect carries a
deterministic *witness chain* — the shortest call path to the concrete
source line, ties broken by sorted qualified name — which is what lets
RL009 report ``engine.run -> utils.jitter -> random.random()
(src/repro/utils.py:12)`` instead of a bare verdict.

Join is set union and the call graph is finite, so the breadth-first
closure IS the fixed point: one visit per (function, kind) pair,
``O(edges x kinds)``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.callgraph import CallGraph

__all__ = [
    "EFFECT_KINDS",
    "EFFECT_RULES",
    "DirectEffect",
    "ModuleSources",
    "dotted_name",
    "scan_module",
    "set_names",
    "is_set_expr",
    "ordering_hazards",
    "Taint",
    "propagate",
]

#: Effect kind -> the per-file rule that polices *direct* uses. A source
#: whose direct finding is inline-suppressed (at the effect's anchor
#: line) is sanctioned, so it does not seed whole-program taint either.
EFFECT_RULES = {"rng": "RL001", "wallclock": "RL002", "set_iter": "RL003"}

#: Every effect kind the analysis infers, in report order; each one
#: breaks bit-identical reproduction.
EFFECT_KINDS = tuple(EFFECT_RULES)

#: ``random`` attributes that construct a seedable instance.
_ALLOWED_RANDOM = {"Random"}
#: ``numpy.random`` attributes that construct a seedable generator.
_ALLOWED_NUMPY_RANDOM = {"default_rng", "Generator"}
#: ``time`` functions that read a host clock.
_TIME_CLOCKS = {
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "clock_gettime",
    "clock_gettime_ns",
}
#: ``datetime.datetime`` / ``datetime.date`` constructors that read it.
_DATETIME_CLOCKS = {"now", "utcnow", "today"}
_DATETIME_CLASSES = {"datetime", "date"}
_SET_TYPE_NAMES = {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference"}
_ORDER_SENSITIVE_CONSUMERS = {"list", "tuple", "enumerate", "iter"}

_NUMPY_ADVICE = "use numpy.random.default_rng(seed)"


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass(frozen=True)
class DirectEffect:
    """One direct (non-transitive) effect observed inside a function."""

    kind: str  #: one of :data:`EFFECT_KINDS`
    line: int
    detail: str  #: human-readable witness, e.g. ``random.random``
    #: Line of the per-file finding that covers this effect: the effect
    #: itself, or the ``from`` import a bare name came from. A pragma
    #: for the matching rule there sanctions the effect.
    anchor: int


@dataclass
class ModuleSources:
    """Everything :func:`scan_module` found in one file."""

    #: kind -> ``(node, message)`` per-file findings, for ``rng``
    #: (RL001), ``wallclock`` (RL002) and ``set_iter`` (RL003).
    reports: Dict[str, List[Tuple[ast.AST, str]]] = field(
        default_factory=lambda: {"rng": [], "wallclock": [], "set_iter": []}
    )
    #: every use of a source, module-wide, with its (line, col) position
    uses: List[Tuple[Tuple[int, int], DirectEffect]] = field(default_factory=list)

    def _add(self, kind: str, node: ast.expr, detail: str, message: str) -> None:
        self.reports[kind].append((node, message))
        effect = DirectEffect(kind, node.lineno, detail, node.lineno)
        self.uses.append(((node.lineno, node.col_offset), effect))


def scan_module(tree: ast.Module) -> ModuleSources:
    """Find every source in one module (see the module docstring)."""
    found = ModuleSources()
    aliases: Dict[str, str] = {}  #: ``import m as a``: a -> m
    #: from-imported local name -> (kind, line of the import)
    bare: Dict[str, Tuple[str, int]] = {}
    datetime_classes: Set[str] = set()
    attributes: List[ast.Attribute] = []
    loads: List[ast.Name] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attributes.append(node)
        elif isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                loads.append(node)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                message = _from_import_message(node.module, alias.name)
                if message is not None:
                    kind = "wallclock" if node.module == "time" else "rng"
                    found.reports[kind].append((node, message))
                    bare[local] = (kind, node.lineno)
                elif node.module == "datetime" and alias.name in _DATETIME_CLASSES:
                    datetime_classes.add(local)

    for node in attributes:
        chain = dotted_name(node)
        if chain is None:
            continue
        parts = chain.split(".")
        root = aliases.get(parts[0])
        if root == "random" and len(parts) == 2 and parts[1] not in _ALLOWED_RANDOM:
            found._add(
                "rng", node, chain,
                f"'{chain}' calls the process-global RNG; use a "
                "random.Random(seed) instance",
            )
        elif (
            (root == "numpy" and len(parts) == 3 and parts[1] == "random")
            or (root == "numpy.random" and len(parts) == 2)
        ) and parts[-1] not in _ALLOWED_NUMPY_RANDOM:
            found._add(
                "rng", node, chain,
                f"'{chain}' uses global numpy RNG state; {_NUMPY_ADVICE}",
            )
        elif (
            root == "time" and len(parts) == 2 and parts[1] in _TIME_CLOCKS
        ) or (
            parts[-1] in _DATETIME_CLOCKS
            and (
                (root == "datetime" and len(parts) == 3)
                or (parts[0] in datetime_classes and len(parts) == 2)
            )
        ):
            found._add(
                "wallclock", node, chain,
                f"'{chain}' reads the wall clock; simulation code must "
                "only observe simulated cycles (telemetry is exempt)",
            )

    for node in loads:
        if node.id in bare:
            kind, anchor = bare[node.id]
            effect = DirectEffect(kind, node.lineno, node.id, anchor)
            found.uses.append(((node.lineno, node.col_offset), effect))

    for node, message in ordering_hazards(tree, set_names(tree)):
        found._add("set_iter", node, "set iteration", message)
    return found


def _from_import_message(module: Optional[str], name: str) -> Optional[str]:
    """The per-file finding for ``from <module> import <name>``, if any."""
    if module == "random" and name not in _ALLOWED_RANDOM:
        return (
            f"'from random import {name}' uses the process-global RNG; "
            "import random.Random and seed an instance explicitly"
        )
    if module == "numpy.random" and name not in _ALLOWED_NUMPY_RANDOM:
        return (
            f"'from numpy.random import {name}' uses global numpy RNG "
            f"state; {_NUMPY_ADVICE}"
        )
    if module == "time" and name in _TIME_CLOCKS:
        return (
            f"'from time import {name}' reads the wall clock; only "
            "telemetry may do that"
        )
    return None


def set_names(tree: ast.AST) -> Dict[ast.AST, Set[str]]:
    """The names (heuristically) bound to set values, as seen at each
    node of ``tree``.

    A binding inside a function applies in that function's body, nested
    functions included; a module-level binding applies everywhere. Two
    functions that reuse one name, one for a set and one for a list, do
    not mark each other's variable as a set.
    """
    #: the innermost function holding each node (``tree`` at module level)
    scope_of: Dict[ast.AST, ast.AST] = {}
    stack: List[Tuple[ast.AST, ast.AST]] = [(tree, tree)]
    while stack:
        node, scope = stack.pop()
        scope_of[node] = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))
    bound: Dict[ast.AST, Set[str]] = {scope: set() for scope in scope_of.values()}

    def visible(scope: ast.AST) -> Set[str]:
        names = set(bound[scope])
        while scope is not tree:
            scope = scope_of[scope]
            names |= bound[scope]
        return names

    def is_set_annotation(annotation: Optional[ast.expr]) -> bool:
        if annotation is None:
            return False
        target = annotation
        if isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Attribute):
            return target.attr in _SET_TYPE_NAMES
        return isinstance(target, ast.Name) and target.id in _SET_TYPE_NAMES

    # Two passes so `b = a | other` after `a = set()` is caught.
    for _ in range(2):
        for node in ast.walk(tree):
            names = bound[scope_of[node]]
            if isinstance(node, ast.Assign) and is_set_expr(
                node.value, visible(scope_of[node])
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if is_set_annotation(node.annotation) or (
                    node.value is not None
                    and is_set_expr(node.value, visible(scope_of[node]))
                ):
                    names.add(node.target.id)
            elif isinstance(node, ast.arg) and is_set_annotation(
                node.annotation
            ):
                names.add(node.arg)
    seen = {scope: visible(scope) for scope in bound}
    return {node: seen[scope] for node, scope in scope_of.items()}


def is_set_expr(node: ast.expr, names: Set[str]) -> bool:
    """Whether an expression (heuristically) evaluates to a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return is_set_expr(node.left, names) or is_set_expr(node.right, names)
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in {
            "set",
            "frozenset",
        }:
            return True
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SET_METHODS
            and is_set_expr(node.func.value, names)
        ):
            return True
    return False


def ordering_hazards(
    tree: ast.AST, names: Mapping[ast.AST, Set[str]]
) -> Iterator[Tuple[ast.expr, str]]:
    """Yield ``(node, description)`` for every unsorted-set iteration;
    ``names`` gives the set names seen at each node (:func:`set_names`)."""
    base = (
        "iterating a set has nondeterministic order; wrap the "
        "iterable in sorted(...)"
    )
    for node in ast.walk(tree):
        seen = names[node]
        if isinstance(node, (ast.For, ast.AsyncFor)) and is_set_expr(
            node.iter, seen
        ):
            yield node.iter, base
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for comp in node.generators:
                if is_set_expr(comp.iter, seen):
                    yield comp.iter, base
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in _ORDER_SENSITIVE_CONSUMERS
                and node.args
                and is_set_expr(node.args[0], seen)
            ):
                yield node, f"{func.id}() over a set is order-dependent; {base}"
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "join"
                and node.args
                and is_set_expr(node.args[0], seen)
            ):
                yield node, f"str.join over a set is order-dependent; {base}"


@dataclass(frozen=True)
class Taint:
    """One inferred effect of a function, with its witness chain.

    ``chain`` runs from the tainted function to the source function,
    both inclusive; ``chain == (fn,)`` means the effect is direct.
    """

    kind: str
    source: str  #: fully-qualified source function
    line: int  #: line of the concrete effect inside the source
    detail: str
    chain: Tuple[str, ...]

    @property
    def direct(self) -> bool:
        return len(self.chain) == 1


def propagate(
    graph: CallGraph,
    seeds: Mapping[str, Sequence[DirectEffect]],
) -> Dict[str, Dict[str, Taint]]:
    """Close the effect relation over the call graph.

    ``seeds`` maps function qualnames to their (possibly filtered)
    direct effects. Returns, for every function that has or reaches an
    effect, one :class:`Taint` per effect kind with the shortest
    deterministic witness chain.
    """
    reverse = graph.callers_of()
    result: Dict[str, Dict[str, Taint]] = {}
    frontier: List[Tuple[str, str]] = []
    for qualname in sorted(seeds):
        if qualname not in graph.functions:
            continue
        per_kind: Dict[str, Taint] = result.setdefault(qualname, {})
        for effect in sorted(
            seeds[qualname], key=lambda e: (e.kind, e.line, e.detail)
        ):
            if effect.kind not in per_kind:
                per_kind[effect.kind] = Taint(
                    kind=effect.kind,
                    source=qualname,
                    line=effect.line,
                    detail=effect.detail,
                    chain=(qualname,),
                )
                frontier.append((qualname, effect.kind))
    frontier.sort()
    while frontier:
        next_frontier: List[Tuple[str, str]] = []
        for qualname, kind in frontier:
            taint = result[qualname][kind]
            for caller in reverse.get(qualname, ()):
                per_kind = result.setdefault(caller, {})
                if kind not in per_kind:
                    per_kind[kind] = Taint(
                        kind=kind,
                        source=taint.source,
                        line=taint.line,
                        detail=taint.detail,
                        chain=(caller, *taint.chain),
                    )
                    next_frontier.append((caller, kind))
        frontier = sorted(next_frontier)
    return result
