"""Whole-program rules RL009 and RL010: cross-module guarantees.

The per-file rules see one AST at a time; these two run in the
``finalize`` phase against the project call graph
(:mod:`repro.analysis.callgraph`) and the inferred effect sets
(:mod:`repro.analysis.dataflow`):

* **RL009 determinism-taint** — a simulation-kernel function
  (``repro/engine/``, ``repro/cpu/``, ``repro/core/``) transitively
  reaches an unseeded-RNG / wall-clock / set-iteration source through
  helpers that RL001-RL003 cannot see. The finding anchors at the
  kernel function and names the full propagation chain.
* **RL010 fork-unsafe-state** — a function executed inside supervised
  worker processes mutates module-level state whose definition carries
  no ``fork-safe:`` reinitialization marker. Worker code is the
  call/ref closure of ``_pool_worker_main`` plus every callable handed
  to ``Supervisor(...)`` / ``TaskPool(...)``.

Suppression semantics for taint findings: a pragma at the *anchor*
(e.g. the kernel ``def`` for RL009, the mutation site for RL010)
suppresses the finding; a pragma for the corresponding per-file rule
where that rule reports the source (e.g. ``disable=RL001`` on the
``random.random()`` call, or on a ``from random import random`` line)
sanctions the source itself, so no taint is seeded from it.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.analysis.callgraph import CallGraph
from repro.analysis.dataflow import (
    EFFECT_KINDS,
    EFFECT_RULES,
    DirectEffect,
    propagate,
)
from repro.analysis.findings import Finding
from repro.analysis.registry import (
    ProjectInfo,
    Rule,
    RuleMeta,
    register,
)

__all__ = ["DeterminismTaint", "ForkUnsafeState"]

_KIND_LABELS = {
    "rng": "the process-global RNG",
    "wallclock": "the wall clock",
    "set_iter": "unsorted set iteration",
}


def _filtered_seeds(
    project: ProjectInfo, graph: CallGraph
) -> Dict[str, List[DirectEffect]]:
    """Effect seeds, minus sources sanctioned inline.

    A source whose direct finding is suppressed for the matching
    per-file rule (``disable=RL001`` on the ``random.random()`` line,
    or on the ``from random import random`` line a bare ``random()``
    came from) is a reviewed exception; it must not taint its callers
    either.
    """
    seeds: Dict[str, List[DirectEffect]] = {}
    for qualname, node in graph.functions.items():
        suppressions = project.suppressions.get(node.relpath)
        kept = [
            effect
            for effect in node.effects
            if not (
                suppressions is not None
                and suppressions.silences(EFFECT_RULES[effect.kind], effect.anchor)
            )
        ]
        if kept:
            seeds[qualname] = kept
    return seeds


@register
class DeterminismTaint(Rule):
    """RL009: kernel functions must not reach nondeterminism via helpers.

    RL001/RL002/RL003 flag *direct* uses inside their path scope; a
    kernel function calling ``repro.metrics.helper`` which calls
    ``random.random()`` was invisible to all three. This rule closes
    that blind spot: it propagates determinism effects backwards over
    the call graph and reports every simulation-kernel function whose
    effect is acquired *through a callee* (direct uses stay the
    per-file rules' jurisdiction). The message names the full chain to
    the concrete source line, so the finding is actionable even though
    the source lives in another file.
    """

    meta = RuleMeta(
        id="RL009",
        name="determinism-taint",
        rationale=(
            "Bit-identical reproduction holds only if nothing reachable "
            "from the simulation kernels observes RNG state, the wall "
            "clock, or unsorted set order; per-file rules cannot see "
            "through helper calls, so taint is propagated over the "
            "project call graph."
        ),
    )

    #: Functions defined under these prefixes are simulation kernel.
    KERNEL_PATHS = ("src/repro/engine/", "src/repro/cpu/", "src/repro/core/")

    def finalize(self, project: ProjectInfo) -> Iterator[Finding]:
        graph = project.graph()
        # Call edges only: a bare reference (callback passed along) is
        # not yet an execution on the kernel path.
        taints = propagate(graph, _filtered_seeds(project, graph))
        kernel = {
            qualname
            for qualname, node in graph.functions.items()
            if node.relpath.startswith(self.KERNEL_PATHS)
        }
        for qualname in sorted(kernel):
            per_kind = taints.get(qualname)
            if not per_kind:
                continue
            node = graph.functions[qualname]
            for kind in EFFECT_KINDS:
                taint = per_kind.get(kind)
                if taint is None or taint.direct:
                    continue  # direct effects are RL001-RL003's job
                if taint.chain[1] in kernel:
                    # A deeper kernel function carries the same taint
                    # and reports closer to the source; one finding per
                    # chain is enough.
                    continue
                source_node = graph.functions[taint.source]
                chain = " -> ".join(taint.chain)
                yield self.finding(
                    node.relpath,
                    node.lineno,
                    f"'{qualname}' reaches {_KIND_LABELS[kind]} via "
                    f"{chain}: {taint.detail} "
                    f"({source_node.relpath}:{taint.line}); plumb "
                    "explicit state through the call chain or sanction "
                    f"the source with 'disable={EFFECT_RULES[kind]}'",
                )


@register
class ForkUnsafeState(Rule):
    """RL010: no undocumented module-global mutation on worker paths.

    Supervised tasks run in forked child processes
    (:mod:`repro.experiments.supervisor`); module-level state mutated
    there dies with the worker, silently diverges between parent and
    children, and varies with task placement — the exact failure mode
    the ``jobs``-independence guarantee forbids. State that *is*
    reinitialized per process (like the fork-aware profile accumulator)
    declares it with a ``fork-safe: <reason>`` marker on (or directly
    above) the definition; everything else found mutating on a
    worker-reachable path is reported.
    """

    meta = RuleMeta(
        id="RL010",
        name="fork-unsafe-state",
        rationale=(
            "Results must be independent of --jobs; module globals "
            "mutated inside supervised workers are per-process and "
            "placement-dependent unless their reinitialization is "
            "documented with a fork-safe: marker."
        ),
    )

    #: The worker entry point: every pool worker process starts here.
    CHILD_MAIN = "repro.experiments.supervisor._pool_worker_main"
    #: Call targets whose *arguments* ship callables into workers.
    DISPATCHERS = (
        "repro.experiments.supervisor.Supervisor.__init__",
        "repro.experiments.supervisor.TaskPool.__init__",
    )

    def _worker_roots(self, graph: CallGraph) -> Dict[str, str]:
        """Map each worker-code root to how it gets into a worker."""
        roots: Dict[str, str] = {}
        if self.CHILD_MAIN in graph.functions:
            roots[self.CHILD_MAIN] = "the worker entry point"
        for qualname in sorted(graph.functions):
            calls = graph.call_edges.get(qualname, ())
            dispatcher = next(
                (d for d in self.DISPATCHERS if d in calls), None
            )
            if dispatcher is None:
                continue
            via = f"handed to workers by {qualname}"
            # Callables referenced (not called) where a dispatcher is
            # invoked are the task functions shipped to workers.
            for target in graph.ref_edges.get(qualname, ()):
                roots.setdefault(target, via)
            # A class constructed here and shipped as the task callable
            # executes its __call__ in the worker (e.g. _TracedCall).
            for target in calls:
                owner, _, method = target.rpartition(".")
                if method != "__init__":
                    continue
                sibling = f"{owner}.__call__"
                if sibling in graph.functions:
                    roots.setdefault(sibling, via)
        return roots

    def _worker_closure(
        self, graph: CallGraph, roots: Dict[str, str]
    ) -> Dict[str, Tuple[str, ...]]:
        """Worker-reachable functions -> chain from their root."""
        chains: Dict[str, Tuple[str, ...]] = {
            root: (root,) for root in sorted(roots)
        }
        frontier = sorted(chains)
        while frontier:
            next_frontier: List[str] = []
            for qualname in frontier:
                neighbours = [
                    *graph.call_edges.get(qualname, ()),
                    *graph.ref_edges.get(qualname, ()),
                ]
                for neighbour in sorted(set(neighbours)):
                    if neighbour not in chains:
                        chains[neighbour] = (*chains[qualname], neighbour)
                        next_frontier.append(neighbour)
            frontier = sorted(next_frontier)
        return chains

    def finalize(self, project: ProjectInfo) -> Iterator[Finding]:
        graph = project.graph()
        roots = self._worker_roots(graph)
        if not roots:
            return
        chains = self._worker_closure(graph, roots)
        for qualname in sorted(chains):
            node = graph.functions.get(qualname)
            if node is None or not node.mutations:
                continue
            summary = graph.summaries.get(node.relpath)
            if summary is None:
                continue
            for mutation in node.mutations:
                definition = summary.globals.get(mutation.name)
                if definition is None or definition.fork_safe:
                    continue
                root = chains[qualname][0]
                via = roots[root]
                chain = " -> ".join(chains[qualname])
                yield self.finding(
                    node.relpath,
                    mutation.line,
                    f"'{qualname}' mutates module global "
                    f"'{mutation.name}' ({mutation.how}) on a supervised-"
                    f"worker path ({via}; chain {chain}); the mutation is "
                    "per-process and dies with the worker — move the "
                    "state into the task result, or document per-process "
                    "reinitialization with a 'fork-safe:' marker on the "
                    "definition",
                )
