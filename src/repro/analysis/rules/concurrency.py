"""Concurrency rule: RL008 (no unsupervised process pools).

The repo's fault-tolerance guarantees (``docs/ROBUSTNESS.md``) hold
only when parallel simulation flows through the supervised executor in
:mod:`repro.experiments.runner`/:mod:`repro.experiments.supervisor`: a
bare ``multiprocessing.Pool`` has no per-task timeout, no retry, no
crash classification, and one dead worker aborts (or wedges) the whole
sweep. This rule keeps new parallel code from quietly reintroducing
that failure mode.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.analysis.dataflow import dotted_name
from repro.analysis.findings import Finding
from repro.analysis.registry import ModuleInfo, Rule, RuleMeta, register

__all__ = ["NoUnsupervisedPool"]

#: Constructors that hand out unsupervised worker pools.
_POOL_CONSTRUCTORS = {
    "Pool",
    "ThreadPool",
    "ProcessPoolExecutor",
    "ThreadPoolExecutor",
}

#: Fan-out methods on a pool object (the calls RL008 names explicitly).
_POOL_METHODS = {
    "map",
    "imap",
    "imap_unordered",
    "map_async",
    "starmap",
    "starmap_async",
    "apply",
    "apply_async",
    "submit",
}

#: Modules the constructors live in (``module.Pool(...)`` spellings).
_POOL_MODULES = {
    "multiprocessing",
    "multiprocessing.pool",
    "multiprocessing.dummy",
    "concurrent.futures",
}


@register
class NoUnsupervisedPool(Rule):
    """RL008: parallel fan-out must go through the supervised runner.

    Flags constructions of ``multiprocessing.Pool``-family objects and
    ``concurrent.futures`` executors, plus ``.map``/``.imap``/... calls
    on names bound to them. The supervised executor (timeouts, retries,
    crash detection, drain-on-interrupt) is the only sanctioned way to
    fan simulation tasks out across processes.
    """

    meta = RuleMeta(
        id="RL008",
        name="no-unsupervised-pool",
        rationale=(
            "A bare process pool has no timeout, retry, or crash "
            "handling: one bad task kills or wedges the sweep and "
            "finished work is lost. Fan out through "
            "repro.experiments.supervisor.Supervisor instead."
        ),
        paths=("src/repro/",),
        exempt=(
            # The supervised executor itself: run_grid's Supervisor and
            # the TaskPool persistent-worker pool under it.
            "src/repro/experiments/runner.py",
            "src/repro/experiments/supervisor.py",
        ),
    )

    def _constructor_name(
        self, node: ast.Call, pool_modules: Set[str], pool_names: Set[str]
    ) -> Optional[str]:
        """The pool-constructor name if ``node`` builds a pool."""
        func = node.func
        if isinstance(func, ast.Name) and func.id in pool_names:
            return func.id
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _POOL_CONSTRUCTORS
            and dotted_name(func.value) in pool_modules
        ):
            return func.attr
        return None

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        # Local spellings of the pool modules and directly imported
        # constructors (``from multiprocessing import Pool as P``).
        pool_modules: Set[str] = set()
        pool_names: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for name in node.names:
                    if name.name in _POOL_MODULES:
                        pool_modules.add(name.asname or name.name)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module in _POOL_MODULES:
                    for name in node.names:
                        if name.name in _POOL_CONSTRUCTORS:
                            pool_names.add(name.asname or name.name)

        # Pass 1: constructor calls are findings, and any name they are
        # bound to (assignment or ``with ... as``) becomes a pool name.
        bound: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                constructor = self._constructor_name(
                    node, pool_modules, pool_names
                )
                if constructor is not None:
                    yield self.finding(
                        module,
                        node,
                        f"unsupervised {constructor}(): fan out through "
                        "repro.experiments.supervisor.Supervisor (timeouts, "
                        "retries, crash recovery) instead",
                    )
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                if self._constructor_name(node.value, pool_modules, pool_names):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            bound.add(target.id)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if (
                        isinstance(item.context_expr, ast.Call)
                        and self._constructor_name(
                            item.context_expr, pool_modules, pool_names
                        )
                        and isinstance(item.optional_vars, ast.Name)
                    ):
                        bound.add(item.optional_vars.id)

        # Pass 2: fan-out method calls on bound pool names.
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _POOL_METHODS
                and isinstance(func.value, ast.Name)
                and func.value.id in bound
            ):
                yield self.finding(
                    module,
                    node,
                    f"unsupervised pool.{func.attr}() has no timeout, "
                    "retry, or crash handling; use "
                    "repro.experiments.supervisor.Supervisor",
                )
