"""Rule base class, per-rule configuration, and the rule registry.

A rule is a small object with:

* :attr:`Rule.meta` — id, name, rationale, and the path *scope* it
  applies to (prefix lists, not globs: a file is in scope when its
  repo-relative path starts with any ``paths`` entry and none of the
  ``exempt`` entries);
* :meth:`Rule.check_module` — per-file pass over a parsed AST;
* :meth:`Rule.finalize` — optional project-wide pass that runs after
  every module was checked (used by cross-file rules such as the
  equation-traceability rule RL005).

Rules register themselves at import time via :func:`register`; the
engine imports :mod:`repro.analysis.rules` for the side effect and then
asks :func:`all_rules` for the active set.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
)

if TYPE_CHECKING:  # pragma: no cover
    from pathlib import Path

    from repro.analysis.callgraph import CallGraph
    from repro.analysis.eqmap import EqTable
    from repro.analysis.suppressions import Suppressions

from repro.analysis.dataflow import ModuleSources, scan_module
from repro.analysis.findings import Finding
from repro.errors import ConfigurationError

__all__ = [
    "RuleMeta",
    "ModuleInfo",
    "ProjectInfo",
    "Rule",
    "register",
    "all_rules",
    "get_rule",
    "rule_ids",
]


@dataclass(frozen=True)
class RuleMeta:
    """Static description and configuration of one rule."""

    id: str  #: stable id, e.g. ``"RL001"``
    name: str  #: short kebab-case name, e.g. ``"no-unseeded-random"``
    rationale: str  #: one paragraph: which repo guarantee the rule protects
    #: Repo-relative path prefixes the rule applies to.
    paths: Tuple[str, ...] = ("src/repro/",)
    #: Repo-relative path prefixes exempt from the rule.
    exempt: Tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        """Whether a repo-relative POSIX path is in this rule's scope."""
        if not any(relpath.startswith(prefix) for prefix in self.paths):
            return False
        return not any(relpath.startswith(prefix) for prefix in self.exempt)


@dataclass
class ModuleInfo:
    """One parsed source file handed to each rule's per-module pass."""

    relpath: str  #: repo-relative POSIX path
    tree: ast.Module
    source: str
    _sources: Optional[ModuleSources] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def lines(self) -> List[str]:
        return self.source.splitlines()

    def sources(self) -> ModuleSources:
        """The module's RNG, clock and set-order sources.

        Scanned once on first use, then shared by RL001-RL003 and the
        call-graph summary (see :func:`repro.analysis.dataflow.scan_module`).
        """
        if self._sources is None:
            self._sources = scan_module(self.tree)
        return self._sources


@dataclass
class ProjectInfo:
    """Everything the engine learned, for cross-file ``finalize`` passes.

    ``modules`` holds every discovered file, parsed once per run; the
    call graph (:meth:`graph`) is built from their summaries on first
    use. :meth:`find_module` also reaches files outside the linted
    targets (RL005 looks up equation claims in the rest of the package)
    by reading them from ``repo_root``.
    """

    modules: List[ModuleInfo] = field(default_factory=list)
    #: Equation traceability table (None when PAPER.md is unavailable).
    eq_table: "Optional[EqTable]" = None
    #: Repository root for on-demand file loading (None = in-memory only).
    repo_root: "Optional[Path]" = None
    #: relpath -> parsed suppression pragmas, for every discovered file.
    suppressions: "Dict[str, Suppressions]" = field(default_factory=dict)
    _module_cache: Dict[str, Optional[ModuleInfo]] = field(
        default_factory=dict, repr=False
    )
    _graph: "Optional[CallGraph]" = field(default=None, repr=False)

    def find_module(self, relpath: str) -> Optional[ModuleInfo]:
        """A parsed module by repo-relative path, loading lazily.

        Prefers the linted modules; a file outside the lint targets is
        read + parsed from ``repo_root``. Returns None when the file
        does not exist (or fails to parse), so rules can degrade
        gracefully.
        """
        if relpath in self._module_cache:
            return self._module_cache[relpath]
        found: Optional[ModuleInfo] = None
        for module in self.modules:
            if module.relpath == relpath:
                found = module
                break
        if found is None and self.repo_root is not None:
            path = self.repo_root / relpath
            if path.is_file():
                try:
                    source = path.read_text()
                    found = ModuleInfo(
                        relpath=relpath,
                        tree=ast.parse(source, filename=str(path)),
                        source=source,
                    )
                except (OSError, SyntaxError):
                    found = None
        self._module_cache[relpath] = found
        return found

    def graph(self) -> "CallGraph":
        """The resolved project call graph (built lazily, then cached)."""
        if self._graph is None:
            from repro.analysis.callgraph import build_graph, summarize_module

            self._graph = build_graph(
                {
                    module.relpath: summarize_module(module)
                    for module in self.modules
                }
            )
        return self._graph


class Rule:
    """Base class for lint rules; subclasses set ``meta`` and override."""

    meta: RuleMeta

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        """Per-file pass. Default: no findings."""
        return iter(())

    def finalize(self, project: ProjectInfo) -> Iterator[Finding]:
        """Cross-file pass, after every module was checked. Default: none."""
        return iter(())

    # ------------------------------------------------------------------
    # Helpers for subclasses
    # ------------------------------------------------------------------
    def finding(
        self,
        module_or_path: "ModuleInfo | str",
        node_or_line: "ast.AST | int",
        message: str,
        col: int = 0,
    ) -> Finding:
        """Build a Finding at an AST node (or explicit line) of a module."""
        path = (
            module_or_path
            if isinstance(module_or_path, str)
            else module_or_path.relpath
        )
        if isinstance(node_or_line, int):
            line = node_or_line
        else:
            line = getattr(node_or_line, "lineno", 1)
            col = getattr(node_or_line, "col_offset", 0)
        return Finding(
            path=path,
            line=line,
            col=col,
            rule=self.meta.id,
            message=message,
        )


_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and register a rule by its id."""
    rule = rule_cls()
    if not getattr(rule, "meta", None):
        raise ConfigurationError(f"rule {rule_cls.__name__} has no meta")
    if rule.meta.id in _REGISTRY:
        raise ConfigurationError(f"duplicate rule id {rule.meta.id}")
    _REGISTRY[rule.meta.id] = rule
    return rule_cls


def _ensure_loaded() -> None:
    # Importing the rules package registers every built-in rule.
    from repro.analysis import rules  # noqa: F401


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by id."""
    _ensure_loaded()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def rule_ids() -> List[str]:
    _ensure_loaded()
    return sorted(_REGISTRY)


def get_rule(rule_id: str) -> Rule:
    _ensure_loaded()
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown rule {rule_id!r}; known: {', '.join(sorted(_REGISTRY))}"
        ) from None


def select_rules(
    select: Iterable[str] = (), disable: Iterable[str] = ()
) -> List[Rule]:
    """The active rule set after ``--select`` / ``--disable`` filtering."""
    chosen = all_rules()
    select = tuple(select)
    disable = tuple(disable)
    for rule_id in (*select, *disable):
        get_rule(rule_id)  # raise on unknown ids
    if select:
        chosen = [rule for rule in chosen if rule.meta.id in select]
    if disable:
        chosen = [rule for rule in chosen if rule.meta.id not in disable]
    return chosen

