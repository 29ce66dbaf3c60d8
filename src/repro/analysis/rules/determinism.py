"""Determinism rules: RL001 (random), RL002 (wall clock), RL003 (set order).

These three rules protect the repo's headline guarantee — bit-identical
results for the same seed at any ``--jobs`` count, traced or untraced.
Each encodes one way that guarantee has been (or could be) silently
broken: ambient RNG state, wall-clock reads leaking into simulation
outputs, and iteration order of unordered containers reaching
simulation state or serialized output.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.registry import ModuleInfo, Rule, RuleMeta, register

__all__ = ["NoUnseededRandom", "NoWallClock", "NoOrderingHazard"]


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local alias -> imported dotted module name (``import`` only)."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = name.name
    return aliases


def _dotted(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute chains; None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@register
class NoUnseededRandom(Rule):
    """RL001: only explicitly seeded RNG instances are allowed.

    Module-level ``random.*`` functions share one ambient, process-wide
    RNG whose state depends on import order and on every other caller —
    across pool workers it silently diverges. All randomness in the
    simulators must flow through a ``random.Random(seed)`` (or
    ``numpy.random.default_rng(seed)``) instance plumbed from the
    experiment config.
    """

    meta = RuleMeta(
        id="RL001",
        name="no-unseeded-random",
        rationale=(
            "The module-level random API is a process-global RNG; any use "
            "breaks bit-identical reproduction across job counts and "
            "platforms. Construct random.Random(seed) instances instead."
        ),
    )

    _ALLOWED_STDLIB = {"Random"}
    _ALLOWED_NUMPY = {"default_rng", "Generator"}

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        aliases = _import_aliases(module.tree)
        random_aliases = {a for a, m in aliases.items() if m == "random"}
        numpy_aliases = {a for a, m in aliases.items() if m == "numpy"}
        numpy_random_aliases = {
            a for a, m in aliases.items() if m == "numpy.random"
        }
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "random":
                    for name in node.names:
                        if name.name not in self._ALLOWED_STDLIB:
                            yield self.finding(
                                module,
                                node,
                                f"'from random import {name.name}' uses the "
                                "process-global RNG; import random.Random "
                                "and seed an instance explicitly",
                            )
                elif node.module == "numpy.random":
                    for name in node.names:
                        if name.name not in self._ALLOWED_NUMPY:
                            yield self.finding(
                                module,
                                node,
                                f"'from numpy.random import {name.name}' uses "
                                "global numpy RNG state; use "
                                "numpy.random.default_rng(seed)",
                            )
            elif isinstance(node, ast.Attribute):
                dotted = _dotted(node)
                if dotted is None:
                    continue
                parts = dotted.split(".")
                if (
                    parts[0] in random_aliases
                    and len(parts) == 2
                    and parts[1] not in self._ALLOWED_STDLIB
                ):
                    yield self.finding(
                        module,
                        node,
                        f"'{dotted}' calls the process-global RNG; use a "
                        "random.Random(seed) instance",
                    )
                elif (
                    (
                        (parts[0] in numpy_aliases and len(parts) == 3
                         and parts[1] == "random")
                        or (parts[0] in numpy_random_aliases and len(parts) == 2)
                    )
                    and parts[-1] not in self._ALLOWED_NUMPY
                ):
                    yield self.finding(
                        module,
                        node,
                        f"'{dotted}' uses global numpy RNG state; use "
                        "numpy.random.default_rng(seed)",
                    )


@register
class NoWallClock(Rule):
    """RL002: no wall-clock reads outside telemetry timing paths.

    Simulated time is the only clock the simulators may observe. A
    wall-clock read feeding any result makes output depend on host
    speed and scheduling. Telemetry and the grid runner's profiling are
    the sanctioned exceptions (their numbers are *about* wall time and
    never feed back into results).
    """

    meta = RuleMeta(
        id="RL002",
        name="no-wallclock",
        rationale=(
            "Wall-clock reads outside telemetry make results depend on "
            "host speed; simulation code must only observe simulated "
            "cycles."
        ),
        exempt=(
            "src/repro/telemetry/",
            "src/repro/experiments/runner.py",
            # The supervisor's clocks bound task attempts (timeouts,
            # liveness polling); they never feed simulation results.
            "src/repro/experiments/supervisor.py",
            # Fault injection sleeps to simulate a hung worker.
            "src/repro/faults/",
            # The service's clocks bound job deadlines, retry backoff,
            # and drain waits; simulation results never depend on them.
            "src/repro/service/",
            # perfbench's calibration loop *measures* wall time by
            # design; its numbers never feed back into a simulation.
            "benchmarks/harness.py",
        ),
    )

    _TIME_ATTRS = {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "clock_gettime",
        "clock_gettime_ns",
    }
    _DATETIME_ATTRS = {"now", "utcnow", "today"}

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        aliases = _import_aliases(module.tree)
        time_aliases = {a for a, m in aliases.items() if m == "time"}
        datetime_mod_aliases = {a for a, m in aliases.items() if m == "datetime"}
        datetime_classes: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "time":
                    for name in node.names:
                        if name.name in self._TIME_ATTRS:
                            yield self.finding(
                                module,
                                node,
                                f"'from time import {name.name}' reads the "
                                "wall clock; only telemetry may do that",
                            )
                elif node.module == "datetime":
                    for name in node.names:
                        if name.name in {"datetime", "date"}:
                            datetime_classes.add(name.asname or name.name)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            dotted = _dotted(node)
            if dotted is None:
                continue
            parts = dotted.split(".")
            is_time = (
                parts[0] in time_aliases
                and len(parts) == 2
                and parts[1] in self._TIME_ATTRS
            )
            is_datetime = (
                parts[-1] in self._DATETIME_ATTRS
                and (
                    (parts[0] in datetime_mod_aliases and len(parts) == 3)
                    or (parts[0] in datetime_classes and len(parts) == 2)
                )
            )
            if is_time or is_datetime:
                yield self.finding(
                    module,
                    node,
                    f"'{dotted}' reads the wall clock; simulation code must "
                    "only observe simulated cycles (telemetry is exempt)",
                )


_SET_TYPE_NAMES = {
    "set",
    "frozenset",
    "Set",
    "FrozenSet",
    "AbstractSet",
    "MutableSet",
}
_SET_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
}
_ORDER_SENSITIVE_CONSUMERS = {"list", "tuple", "enumerate", "iter"}
_ORDER_INSENSITIVE_CONSUMERS = {
    "sorted",
    "len",
    "sum",
    "min",
    "max",
    "any",
    "all",
    "frozenset",
    "set",
}


# The set-detection heuristics are shared with the whole-program effect
# inference (repro.analysis.dataflow), which runs them function-scoped,
# so they live at module level rather than on the rule class.
def set_names(tree: ast.AST) -> Set[str]:
    """Names that are (heuristically) bound to set values in ``tree``."""
    names: Set[str] = set()

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
            if isinstance(node, ast.Assign) and is_set_expr(node.value, names):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if is_set_annotation(node.annotation) or (
                    node.value is not None and is_set_expr(node.value, names)
                ):
                    names.add(node.target.id)
            elif isinstance(node, ast.arg) and is_set_annotation(
                node.annotation
            ):
                names.add(node.arg)
    return names


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
    tree: ast.AST, names: Set[str]
) -> Iterator[Tuple[ast.AST, str]]:
    """Yield ``(node, description)`` for every unsorted-set iteration."""
    base = (
        "iterating a set has nondeterministic order; wrap the "
        "iterable in sorted(...)"
    )
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)) and is_set_expr(
            node.iter, names
        ):
            yield node.iter, base
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for comp in node.generators:
                if is_set_expr(comp.iter, names):
                    yield comp.iter, base
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in _ORDER_SENSITIVE_CONSUMERS
                and node.args
                and is_set_expr(node.args[0], names)
            ):
                yield node, f"{func.id}() over a set is order-dependent; {base}"
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "join"
                and node.args
                and is_set_expr(node.args[0], names)
            ):
                yield node, f"str.join over a set is order-dependent; {base}"


@register
class NoOrderingHazard(Rule):
    """RL003: iteration over sets must be sorted.

    ``set``/``frozenset`` iteration order depends on insertion history
    and hash seeding of the value types; when such an iteration feeds
    simulation state or serialized output the run is no longer
    reproducible byte-for-byte. Iterating a *dict* is fine — Python
    dicts preserve insertion order — which is why this rule targets the
    set family only. Wrap the iterable in ``sorted(...)``.
    """

    meta = RuleMeta(
        id="RL003",
        name="no-ordering-hazard",
        rationale=(
            "Set iteration order is not stable across processes and "
            "platforms; simulation/serialization code must sort first. "
            "Scope: the simulation kernel (core, cpu, engine) plus the "
            "modules that serialize results."
        ),
        paths=(
            "src/repro/core/",
            "src/repro/cpu/",
            "src/repro/engine/",
            "src/repro/experiments/",
            "src/repro/workloads/",
        ),
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        names = set_names(module.tree)
        for node, message in ordering_hazards(module.tree, names):
            yield self.finding(module, node, message)
