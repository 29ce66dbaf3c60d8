"""Whole-program rules RL009-RL012: cross-module guarantee enforcement.

The per-file rules see one AST at a time; these four run in the
``finalize`` phase against the project call graph
(:mod:`repro.analysis.callgraph`), the inferred effect sets
(:mod:`repro.analysis.dataflow`), and a handful of contract files
parsed on demand:

* **RL009 determinism-taint** — a simulation-kernel function
  (``repro/engine/``, ``repro/cpu/``, ``repro/core/``) transitively
  reaches an unseeded-RNG / wall-clock / set-iteration source through
  helpers that RL001-RL003 cannot see. The finding anchors at the
  kernel function and names the full propagation chain.
* **RL010 fork-unsafe-state** — a function executed inside supervised
  worker processes mutates module-level state whose definition carries
  no ``fork-safe:`` reinitialization marker. Worker code is the
  call/ref closure of ``_pool_worker_main`` plus every callable handed
  to ``Supervisor(...)`` / ``TaskPool(...)`` / ``parallel_map(...)``.
* **RL011 backend-parity** — the scalar<->batch equivalence envelope,
  checked statically: every ``SoeRunSpec`` field (and every field of
  its nested parameter dataclasses) must be consumed by
  ``repro/engine/batch.py`` or refused by ``BatchBackend.supports()``;
  every registered ``PolicySpec`` must be consistent with its
  ``batch_capable`` flag.
* **RL012 telemetry-schema-drift** — the event builders in
  ``telemetry/events.py``, the ``EVENT_SCHEMAS`` table, and the event
  table in ``docs/TELEMETRY.md`` must agree exactly (names, categories,
  payload fields, schema version).

Suppression semantics for taint findings: a pragma at the *anchor*
(e.g. the kernel ``def`` for RL009, the mutation site for RL010)
suppresses the finding; a pragma for the corresponding per-file rule at
the *source* line (e.g. ``disable=RL001`` on the ``random.random()``
call) sanctions the source itself, so no taint is seeded from it.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph, DirectEffect, ModuleSummary
from repro.analysis.dataflow import (
    DETERMINISM_KINDS,
    EFFECT_RULES,
    propagate,
)
from repro.analysis.findings import Finding
from repro.analysis.registry import (
    ProjectInfo,
    Rule,
    RuleMeta,
    register,
)

__all__ = [
    "DeterminismTaint",
    "ForkUnsafeState",
    "BackendParity",
    "TelemetrySchemaDrift",
]

_KIND_LABELS = {
    "rng": "the process-global RNG",
    "wallclock": "the wall clock",
    "set_iter": "unsorted set iteration",
}


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _filtered_seeds(
    project: ProjectInfo, graph: CallGraph
) -> Dict[str, List[DirectEffect]]:
    """Determinism-effect seeds, minus sources sanctioned inline.

    A source whose direct finding is suppressed for the matching
    per-file rule (``disable=RL001`` on the ``random.random()`` line)
    is a reviewed exception; it must not taint its callers either.
    """
    seeds: Dict[str, List[DirectEffect]] = {}
    for qualname, node in graph.functions.items():
        suppressions = project.suppressions.get(node.relpath)
        kept: List[DirectEffect] = []
        for effect in node.effects:
            if effect.kind not in DETERMINISM_KINDS:
                continue
            rule_id = EFFECT_RULES[effect.kind]
            if suppressions is not None and (
                rule_id in suppressions.file_level
                or rule_id in suppressions.by_line.get(effect.line, set())
            ):
                continue
            kept.append(effect)
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
        taints = propagate(
            graph, _filtered_seeds(project, graph), include_refs=False
        )
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
            for kind in DETERMINISM_KINDS:
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
        "repro.experiments.runner.parallel_map",
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


@register
class BackendParity(Rule):
    """RL011: the batch backend's supported envelope, checked statically.

    The scalar backend is the reference; the vectorized backend must
    either *consume* every piece of a run spec or *refuse* the spec in
    ``supports()`` — a field it silently ignores is a configuration
    where the two backends compute different results while claiming
    equivalence. The rule parses the spec dataclasses, the batch
    kernel, and the policy registry, and cross-checks:

    * every ``SoeRunSpec`` field, and every field of its nested
      parameter dataclasses, appears in ``batch.py`` (as an attribute
      access — consumption or an explicit ``supports()`` envelope
      check) unless the whole parent field is refused wholesale
      (``if spec.<field> is not None: return False``);
    * every ``batch_capable=False`` policy is covered by that wholesale
      policy refusal;
    * every ``batch_capable=True`` policy is mentioned by the batch
      kernel or covered by the refusal (it must not simply vanish).
    """

    meta = RuleMeta(
        id="RL011",
        name="backend-parity",
        rationale=(
            "Scalar<->batch equivalence requires the batch backend to "
            "consume or refuse every run-spec field and every "
            "registered policy; a silently ignored field is a spec the "
            "backends disagree on."
        ),
    )

    SPEC_PATH = "src/repro/engine/backend.py"
    SPEC_CLASS = "SoeRunSpec"
    BATCH_PATH = "src/repro/engine/batch.py"
    BATCH_CLASS = "BatchBackend"
    POLICIES_PATH = "src/repro/core/policies.py"

    # ------------------------------------------------------------------
    # Small parsing helpers (all pure AST, no imports of the target)
    # ------------------------------------------------------------------
    @staticmethod
    def _class_def(
        tree: ast.Module, name: str
    ) -> Optional[ast.ClassDef]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == name:
                return node
        return None

    @staticmethod
    def _dataclass_fields(cls: ast.ClassDef) -> List[Tuple[str, str, int]]:
        """(field name, annotation root class name, line) per field."""
        fields: List[Tuple[str, str, int]] = []
        for stmt in cls.body:
            if not isinstance(stmt, ast.AnnAssign) or not isinstance(
                stmt.target, ast.Name
            ):
                continue
            annotation = stmt.annotation
            # Unwrap Optional[...] / tuple[...] subscripts to the base.
            while isinstance(annotation, ast.Subscript):
                if (
                    isinstance(annotation.value, (ast.Name, ast.Attribute))
                    and _dotted(annotation.value) in ("Optional", "typing.Optional")
                    and isinstance(annotation.slice, (ast.Name, ast.Attribute, ast.Subscript))
                ):
                    annotation = annotation.slice
                else:
                    annotation = annotation.value
            base = _dotted(annotation) or ""
            fields.append((stmt.target.id, base.split(".")[-1], stmt.lineno))
        return fields

    @staticmethod
    def _attribute_names(tree: ast.AST) -> Set[str]:
        return {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
        }

    @staticmethod
    def _mentions(tree: ast.AST) -> Set[str]:
        """Identifiers, attribute names and string constants in a tree."""
        mentions: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                mentions.add(node.id)
            elif isinstance(node, ast.Attribute):
                mentions.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(
                node.value, str
            ):
                mentions.add(node.value)
        return mentions

    @classmethod
    def _wholesale_refusals(cls, supports: ast.AST) -> Set[str]:
        """Spec fields refused outright: ``if spec.F is not None: return False``.

        Handles one level of local aliasing (``policy = spec.policy``).
        """
        aliases: Dict[str, str] = {}
        for node in ast.walk(supports):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                dotted = _dotted(node.value)
                if dotted is not None and "." in dotted:
                    aliases[node.targets[0].id] = dotted.split(".")[-1]
        refused: Set[str] = set()
        for node in ast.walk(supports):
            if not isinstance(node, ast.If):
                continue
            test = node.test
            if not (
                isinstance(test, ast.Compare)
                and len(test.ops) == 1
                and isinstance(test.ops[0], ast.IsNot)
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None
            ):
                continue
            returns_false = any(
                isinstance(sub, ast.Return)
                and isinstance(sub.value, ast.Constant)
                and sub.value.value is False
                for stmt in node.body
                for sub in ast.walk(stmt)
            )
            if not returns_false:
                continue
            dotted = _dotted(test.left)
            if dotted is None:
                continue
            field = dotted.split(".")[-1]
            refused.add(aliases.get(field, field) if "." not in dotted else field)
        return refused

    @staticmethod
    def _registered_policies(
        tree: ast.Module,
    ) -> List[Tuple[str, bool, int]]:
        """(name, batch_capable, line) per ``register_policy`` call."""
        policies: List[Tuple[str, bool, int]] = []
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "register_policy"
                and node.args
            ):
                continue
            spec_call = node.args[0]
            if not isinstance(spec_call, ast.Call):
                continue
            name: Optional[str] = None
            capable: Optional[bool] = None
            for keyword in spec_call.keywords:
                if keyword.arg == "name" and isinstance(
                    keyword.value, ast.Constant
                ):
                    name = keyword.value.value
                elif keyword.arg == "batch_capable" and isinstance(
                    keyword.value, ast.Constant
                ):
                    capable = keyword.value.value
            if isinstance(name, str) and isinstance(capable, bool):
                policies.append((name, capable, node.lineno))
        return policies

    def finalize(self, project: ProjectInfo) -> Iterator[Finding]:
        spec_module = project.find_module(self.SPEC_PATH)
        batch_module = project.find_module(self.BATCH_PATH)
        if spec_module is None or batch_module is None:
            return  # not a full repo layout (e.g. narrow lint target)
        spec_cls = self._class_def(spec_module.tree, self.SPEC_CLASS)
        if spec_cls is None:
            return
        batch_attrs = self._attribute_names(batch_module.tree)
        batch_mentions = self._mentions(batch_module.tree)

        supports: Optional[ast.AST] = None
        batch_cls = self._class_def(batch_module.tree, self.BATCH_CLASS)
        if batch_cls is not None:
            for stmt in batch_cls.body:
                if (
                    isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and stmt.name == "supports"
                ):
                    supports = stmt
        refused = self._wholesale_refusals(supports) if supports else set()

        spec_fields = self._dataclass_fields(spec_cls)
        spec_summary = project.summaries.get(self.SPEC_PATH)
        for field_name, base_class, line in spec_fields:
            if field_name not in batch_attrs and field_name not in refused:
                yield self.finding(
                    self.SPEC_PATH,
                    line,
                    f"SoeRunSpec.{field_name} is neither consumed by "
                    f"{self.BATCH_PATH} nor refused by "
                    "BatchBackend.supports(); the batch backend would "
                    "silently ignore it — consume it, or refuse specs "
                    "that set it",
                )
                continue
            if field_name in refused:
                continue  # wholesale refusal covers the nested fields
            # Expand nested parameter dataclasses defined in-project.
            nested = self._nested_fields(project, spec_summary, base_class)
            for nested_path, nested_name, nested_line in nested:
                if nested_name not in batch_attrs:
                    yield self.finding(
                        nested_path,
                        nested_line,
                        f"{base_class}.{nested_name} (reached via "
                        f"SoeRunSpec.{field_name}) is neither consumed by "
                        f"{self.BATCH_PATH} nor checked in "
                        "BatchBackend.supports(); scalar and batch would "
                        "diverge on specs that set it",
                    )

        policies_module = project.find_module(self.POLICIES_PATH)
        if policies_module is not None:
            for name, capable, line in self._registered_policies(
                policies_module.tree
            ):
                if not capable and "policy" not in refused:
                    yield self.finding(
                        self.POLICIES_PATH,
                        line,
                        f"policy '{name}' is registered batch_capable="
                        "False but BatchBackend.supports() no longer "
                        "refuses specs carrying a policy config; the "
                        "batch backend would run a policy it cannot "
                        "faithfully execute",
                    )
                elif (
                    capable
                    and name not in batch_mentions
                    and "policy" not in refused
                ):
                    yield self.finding(
                        self.POLICIES_PATH,
                        line,
                        f"policy '{name}' is registered batch_capable="
                        f"True but {self.BATCH_PATH} never mentions it "
                        "and supports() has no policy refusal; the "
                        "declared capability is unverifiable",
                    )

    def _nested_fields(
        self,
        project: ProjectInfo,
        spec_summary: Optional[ModuleSummary],
        base_class: str,
    ) -> List[Tuple[str, str, int]]:
        """Fields of a nested parameter dataclass, located in-project.

        Resolution goes through the spec module's import table (cached
        summary), so it works identically on cold and warm runs.
        """
        if not base_class or spec_summary is None:
            return []
        target = spec_summary.from_imports.get(base_class)
        if target is None:
            module_name = spec_summary.module
        else:
            module_name = target[0]
            base_class = target[1]
        relpath = next(
            (
                summary.relpath
                for summary in project.summaries.values()
                if summary.module == module_name
            ),
            None,
        )
        if relpath is None:
            return []
        module = project.find_module(relpath)
        if module is None:
            return []
        cls = self._class_def(module.tree, base_class)
        if cls is None:
            return []
        return [
            (relpath, name, line)
            for name, _base, line in self._dataclass_fields(cls)
        ]


@register
class TelemetrySchemaDrift(Rule):
    """RL012: builders, EVENT_SCHEMAS, and docs/TELEMETRY.md must agree.

    ``validate_event`` enforces the schema at runtime — but only for
    events that are actually emitted under a validating test. This rule
    checks the three authoritative surfaces against each other
    statically: every builder's literal (event name, category, ``v``
    key, payload keys) against its ``EVENT_SCHEMAS`` entry, every
    schema entry against some builder, and every schema entry against
    the event table in docs/TELEMETRY.md (row present, every payload
    field named, the documented schema version current). All findings
    anchor in ``events.py`` — the docs are data, the module is the
    suppressible surface.
    """

    meta = RuleMeta(
        id="RL012",
        name="telemetry-schema-drift",
        rationale=(
            "Trace consumers program against docs/TELEMETRY.md and "
            "EVENT_SCHEMAS; a builder or doc drifting from the schema "
            "ships events that validate nowhere or documents fields "
            "that do not exist."
        ),
    )

    EVENTS_PATH = "src/repro/telemetry/events.py"
    DOC_PATH = "docs/TELEMETRY.md"
    ENVELOPE = ("event", "cat", "v")

    @staticmethod
    def _const_env(tree: ast.Module) -> Dict[str, object]:
        """Module-level ``NAME = <constant>`` bindings."""
        env: Dict[str, object] = {}
        for stmt in tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Constant)
            ):
                env[stmt.targets[0].id] = stmt.value.value
        return env

    @classmethod
    def _resolve_str(
        cls, node: ast.expr, env: Mapping[str, object]
    ) -> Optional[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            value = env.get(node.id)
            return value if isinstance(value, str) else None
        return None

    @classmethod
    def _schema_table(
        cls, tree: ast.Module, env: Mapping[str, object]
    ) -> Dict[str, Tuple[Optional[str], List[str], int]]:
        """EVENT_SCHEMAS literal -> {event: (category, fields, line)}."""
        for stmt in tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if not (
                len(targets) == 1
                and isinstance(targets[0], ast.Name)
                and targets[0].id == "EVENT_SCHEMAS"
                and isinstance(value, ast.Dict)
            ):
                continue
            table: Dict[str, Tuple[Optional[str], List[str], int]] = {}
            for key, entry in zip(value.keys, value.values):
                if not (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and isinstance(entry, ast.Tuple)
                    and len(entry.elts) == 2
                ):
                    continue
                category = cls._resolve_str(entry.elts[0], env)
                fields: List[str] = []
                if isinstance(entry.elts[1], ast.Dict):
                    for field_key in entry.elts[1].keys:
                        if isinstance(field_key, ast.Constant) and isinstance(
                            field_key.value, str
                        ):
                            fields.append(field_key.value)
                table[key.value] = (category, fields, key.lineno)
            return table
        return {}

    @classmethod
    def _builders(
        cls, tree: ast.Module, env: Mapping[str, object]
    ) -> List[Tuple[str, Optional[str], Optional[ast.expr], List[str], int]]:
        """Every returned event-dict literal.

        One entry per ``return {...}`` whose dict has an ``"event"``
        key: (event name, category, the ``v`` value node, payload keys,
        line).
        """
        builders = []
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(stmt):
                if not (
                    isinstance(node, ast.Return)
                    and isinstance(node.value, ast.Dict)
                ):
                    continue
                keys: Dict[str, ast.expr] = {}
                order: List[str] = []
                for key, value in zip(node.value.keys, node.value.values):
                    if isinstance(key, ast.Constant) and isinstance(
                        key.value, str
                    ):
                        keys[key.value] = value
                        order.append(key.value)
                if "event" not in keys:
                    continue
                event = cls._resolve_str(keys["event"], env)
                if event is None:
                    continue
                category = (
                    cls._resolve_str(keys["cat"], env)
                    if "cat" in keys
                    else None
                )
                payload = [
                    key for key in order if key not in cls.ENVELOPE
                ]
                builders.append(
                    (event, category, keys.get("v"), payload, node.lineno)
                )
        return builders

    @staticmethod
    def _doc_rows(doc: str) -> Dict[str, str]:
        """Markdown table rows keyed by the event name in column two."""
        rows: Dict[str, str] = {}
        for line in doc.splitlines():
            if not line.lstrip().startswith("|"):
                continue
            cells = [cell.strip() for cell in line.split("|")]
            if len(cells) < 4:
                continue
            event_cell = cells[2]
            if event_cell.startswith("`") and event_cell.endswith("`"):
                rows.setdefault(event_cell.strip("`"), line)
        return rows

    def finalize(self, project: ProjectInfo) -> Iterator[Finding]:
        module = project.find_module(self.EVENTS_PATH)
        if module is None:
            return
        env = self._const_env(module.tree)
        version = env.get("SCHEMA_VERSION")
        schemas = self._schema_table(module.tree, env)
        if not schemas:
            return
        builders = self._builders(module.tree, env)
        built_events: Set[str] = set()

        for event, category, v_node, payload, line in builders:
            built_events.add(event)
            if event not in schemas:
                yield self.finding(
                    self.EVENTS_PATH,
                    line,
                    f"builder constructs event '{event}' which has no "
                    "EVENT_SCHEMAS entry; every emitted event must "
                    "validate",
                )
                continue
            schema_cat, schema_fields, _schema_line = schemas[event]
            if schema_cat is not None and category != schema_cat:
                yield self.finding(
                    self.EVENTS_PATH,
                    line,
                    f"builder for '{event}' sets cat="
                    f"{category!r} but EVENT_SCHEMAS declares "
                    f"{schema_cat!r}",
                )
            versioned = (
                isinstance(v_node, ast.Name)
                and v_node.id == "SCHEMA_VERSION"
            ) or (
                isinstance(v_node, ast.Constant)
                and v_node.value == version
            )
            if not versioned:
                yield self.finding(
                    self.EVENTS_PATH,
                    line,
                    f"builder for '{event}' does not stamp "
                    "v=SCHEMA_VERSION; hand-rolled versions drift",
                )
            missing = sorted(set(schema_fields) - set(payload))
            extra = sorted(set(payload) - set(schema_fields))
            if missing or extra:
                parts = []
                if missing:
                    parts.append(f"missing {missing}")
                if extra:
                    parts.append(f"extra {extra}")
                yield self.finding(
                    self.EVENTS_PATH,
                    line,
                    f"builder for '{event}' payload disagrees with "
                    f"EVENT_SCHEMAS: {', '.join(parts)}",
                )

        for event in sorted(schemas):
            _category, _fields, line = schemas[event]
            if event not in built_events:
                yield self.finding(
                    self.EVENTS_PATH,
                    line,
                    f"EVENT_SCHEMAS declares event '{event}' but no "
                    "builder constructs it; dead schema entries hide "
                    "real drift",
                )

        doc = project.read_text(self.DOC_PATH)
        if doc is None:
            return  # docs not in this checkout; nothing to cross-check
        rows = self._doc_rows(doc)
        for event in sorted(schemas):
            category, fields, line = schemas[event]
            row = rows.get(event)
            if row is None:
                yield self.finding(
                    self.EVENTS_PATH,
                    line,
                    f"event '{event}' has no row in the {self.DOC_PATH} "
                    "event table; trace consumers program against that "
                    "table",
                )
                continue
            if category is not None and f"`{category}`" not in row:
                yield self.finding(
                    self.EVENTS_PATH,
                    line,
                    f"the {self.DOC_PATH} row for '{event}' does not "
                    f"name its category '{category}'",
                )
            missing_fields = [
                field for field in fields if f"`{field}`" not in row
            ]
            if missing_fields:
                yield self.finding(
                    self.EVENTS_PATH,
                    line,
                    f"the {self.DOC_PATH} row for '{event}' omits "
                    f"payload field(s) {missing_fields}",
                )
        if isinstance(version, int) and (
            f'"v": {version}' not in doc and f"schema v{version}" not in doc
        ):
            yield self.finding(
                self.EVENTS_PATH,
                module.tree.body[0].lineno if module.tree.body else 1,
                f"{self.DOC_PATH} never states the current schema "
                f"version {version}; readers cannot tell which schema "
                "the table describes",
            )
