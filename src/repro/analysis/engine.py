"""Lint engine: collect files, run rules, apply inline suppressions.

The engine is deliberately dependency-free and deterministic: files are
discovered in sorted order (by repo-relative POSIX path *string*, so
the order is byte-stable across filesystems and OSes), findings are
sorted by (path, line, col, rule), and the JSON report round-trips
byte-identically for identical inputs — the same property the
simulators guarantee, applied to the tool that polices it.

Analysis runs in two phases over every discovered file, cold on every
run:

1. **Per file** — parse, suppression pragmas, and every active
   per-file rule.
2. **Whole program** — the equation table, the call graph and its
   :class:`~repro.analysis.callgraph.ModuleSummary` inputs, effect
   propagation, and every rule's ``finalize`` pass, all built from the
   modules parsed in phase 1.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.eqmap import EqTable, build_table
from repro.analysis.findings import Finding
from repro.analysis.registry import (
    ModuleInfo,
    ProjectInfo,
    Rule,
    select_rules,
)
from repro.analysis.suppressions import Suppressions, parse_suppressions
from repro.errors import ConfigurationError

__all__ = [
    "LintResult",
    "run_lint",
    "build_eq_table",
    "discover_files",
    "default_repo_root",
    "check_source",
    "check_project",
]

#: The tree linted by default, relative to the repo root.
DEFAULT_TARGET = "src/repro"


def default_repo_root() -> Path:
    """The repository root (the directory holding ``src/`` and PAPER.md).

    Resolved from this file's location in a source checkout; falls back
    to the current working directory for installed packages.
    """
    candidate = Path(__file__).resolve().parents[3]
    if (candidate / "src" / "repro").is_dir():
        return candidate
    return Path.cwd()


def discover_files(root: Path, targets: Sequence[str]) -> List[str]:
    """Resolve lint targets to sorted repo-relative POSIX paths.

    Every ``*.py`` regular file under a directory target is included —
    type-stub-only modules and empty ``__init__.py`` files too; the
    rules decide what matters, discovery never filters by content. The
    result is deduplicated and sorted by path *string* (not by
    ``Path``, whose component-wise ordering puts ``engine/soe.py``
    before ``engine.py``), so findings order is identical on every
    platform and filesystem.
    """
    relpaths: Set[str] = set()
    for target in targets:
        path = root / target
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if candidate.is_file():
                    relpaths.add(candidate.relative_to(root).as_posix())
        elif path.is_file():
            relpaths.add(path.relative_to(root).as_posix())
        else:
            raise ConfigurationError(f"lint target not found: {target}")
    return sorted(relpaths)


@dataclass
class LintResult:
    """Everything one lint run produced."""

    #: The assembled project view; not serialized.
    project: ProjectInfo = field(repr=False)
    #: Findings no inline pragma suppresses: each one fails the run.
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    eq_table: Optional[EqTable] = None
    files_checked: int = 0
    rules_run: List[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def to_json(self) -> Dict[str, object]:
        return {
            "version": 2,
            "summary": {
                "files_checked": self.files_checked,
                "rules_run": self.rules_run,
                "findings": len(self.findings),
                "suppressed": len(self.suppressed),
                "by_rule": self.by_rule(),
            },
            "findings": [
                {
                    "rule": f.rule,
                    "path": f.path,
                    "line": f.line,
                    "col": f.col,
                    "message": f.message,
                }
                for f in self.findings
            ],
            "eq_coverage": self.eq_table.to_json() if self.eq_table else None,
        }


def _load_module(path: Path, relpath: str) -> ModuleInfo:
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        raise ConfigurationError(f"cannot parse {relpath}: {exc}") from exc
    return ModuleInfo(relpath=relpath, tree=tree, source=source)


def _load_modules(root: Path, targets: Sequence[str]) -> List[ModuleInfo]:
    return [
        _load_module(root / relpath, relpath)
        for relpath in discover_files(root, targets)
    ]


def _eq_table(root: Path, modules: List[ModuleInfo]) -> Optional[EqTable]:
    paper_path = root / "PAPER.md"
    if not paper_path.exists():
        return None
    return build_table(modules, paper_path.read_text())


def build_eq_table(
    repo_root: Optional[Path] = None,
    targets: Sequence[str] = (DEFAULT_TARGET,),
) -> Optional[EqTable]:
    """The equation table :func:`run_lint` would report for ``targets``,
    built from the docstring scan alone: no rule and no whole-program
    pass runs. None when the repo has no PAPER.md."""
    root = (repo_root or default_repo_root()).resolve()
    return _eq_table(root, _load_modules(root, targets))


def _run_rules(
    project: ProjectInfo, rules: Sequence[Rule], finalize: bool = True
) -> Tuple[List[Finding], List[Finding]]:
    """Run ``rules`` over ``project``; return (kept, suppressed) findings.

    Each rule's per-file pass runs on every module in its scope, then,
    with ``finalize``, its project-wide pass; each file's inline
    pragmas decide which findings are suppressed.
    """
    raw: List[Finding] = []
    for module in project.modules:
        for rule in rules:
            if rule.meta.applies_to(module.relpath):
                raw.extend(rule.check_module(module))
    if finalize:
        for rule in rules:
            raw.extend(rule.finalize(project))
    kept: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in raw:
        suppressions = project.suppressions.get(finding.path)
        if suppressions is not None and suppressions.is_suppressed(finding):
            suppressed.append(finding)
        else:
            kept.append(finding)
    return kept, suppressed


def _pragmas(modules: Sequence[ModuleInfo]) -> Dict[str, Suppressions]:
    return {module.relpath: parse_suppressions(module.source) for module in modules}


def run_lint(
    repo_root: Optional[Path] = None,
    targets: Sequence[str] = (DEFAULT_TARGET,),
    select: Sequence[str] = (),
    disable: Sequence[str] = (),
) -> LintResult:
    """Lint ``targets`` (repo-relative files or directories) end to end."""
    root = (repo_root or default_repo_root()).resolve()
    modules = _load_modules(root, targets)
    active_rules: List[Rule] = select_rules(select, disable)
    eq_table = _eq_table(root, modules)
    project = ProjectInfo(
        modules=modules,
        eq_table=eq_table,
        repo_root=root,
        suppressions=_pragmas(modules),
    )
    kept, suppressed = _run_rules(project, active_rules)
    return LintResult(
        project=project,
        findings=sorted(kept),
        suppressed=sorted(suppressed),
        eq_table=eq_table,
        files_checked=len(modules),
        rules_run=[rule.meta.id for rule in active_rules],
    )


def check_source(
    rule: Rule,
    source: str,
    relpath: str = "src/repro/synthetic.py",
) -> List[Finding]:
    """Run one rule over an in-memory snippet (test helper).

    Suppressions in the snippet are honoured; scope (``meta.paths``) is
    honoured too, so pass a ``relpath`` inside the rule's scope.
    """
    modules = [ModuleInfo(relpath=relpath, tree=ast.parse(source), source=source)]
    project = ProjectInfo(modules=modules, suppressions=_pragmas(modules))
    return sorted(_run_rules(project, [rule], finalize=False)[0])


def check_project(rule: Rule, sources: Mapping[str, str]) -> List[Finding]:
    """Run one rule over an in-memory multi-file project (test helper).

    ``sources`` maps repo-relative paths to Python source. Runs the
    rule's per-module pass (scope honoured) and its ``finalize`` pass,
    then applies each file's inline suppressions.
    """
    modules = [
        ModuleInfo(
            relpath=relpath, tree=ast.parse(sources[relpath]), source=sources[relpath]
        )
        for relpath in sorted(sources)
    ]
    project = ProjectInfo(modules=modules, suppressions=_pragmas(modules))
    return sorted(_run_rules(project, [rule])[0])
