"""RL005: paper-equation traceability.

Two checks, both driven by :mod:`repro.analysis.eqmap`:

* per docstring — every ``Eq. N`` reference must name an equation that
  PAPER.md actually cites (the registry); a typo'd number is a broken
  link to the paper;
* project-wide — every registry equation must be **claimed** by exactly
  one function (a docstring whose first line is ``Eq. N: ...``). Zero
  claims means part of the paper's math has no canonical
  implementation; two claims means the traceability table can no longer
  answer "where is Eq. N implemented?". An equation the linted targets
  leave unclaimed is looked up in the whole package before it is
  reported, so linting part of ``src/repro`` does not flag equations
  implemented in the rest of it.

The same scan renders the Eq.->function table shown by
``repro lint --eq-table`` and embedded in docs/STATIC_ANALYSIS.md.
"""

from __future__ import annotations

from typing import Iterator, Optional, Set

from repro.analysis.engine import DEFAULT_TARGET
from repro.analysis.eqmap import scan_module
from repro.analysis.findings import Finding
from repro.analysis.registry import ProjectInfo, Rule, RuleMeta, register

__all__ = ["EquationTraceability"]


def _package_claims(project: ProjectInfo) -> Set[int]:
    """Equation numbers claimed anywhere in the package on disk (empty
    for an in-memory project)."""
    root = project.repo_root
    if root is None or not (root / DEFAULT_TARGET).is_dir():
        return set()
    numbers: Set[int] = set()
    for path in sorted((root / DEFAULT_TARGET).rglob("*.py")):
        module = project.find_module(path.relative_to(root).as_posix())
        if module is not None:
            numbers.update(claim.number for claim in scan_module(module)[0])
    return numbers


@register
class EquationTraceability(Rule):
    """RL005: Eq. references resolve; each equation has one owner."""

    meta = RuleMeta(
        id="RL005",
        name="paper-eq-traceability",
        rationale=(
            "Docstring Eq. references are the reproduction's audit trail "
            "back to the paper; they must point at real equations and "
            "every equation must have exactly one canonical "
            "implementation."
        ),
    )

    def finalize(self, project: ProjectInfo) -> Iterator[Finding]:
        table = project.eq_table
        if table is None:
            # No PAPER.md available (e.g. linting a bare checkout subset);
            # nothing to cross-reference against.
            return
        known = set(table.registry)
        for mention in table.mentions:
            if mention.number not in known:
                yield self.finding(
                    mention.relpath,
                    mention.line,
                    f"docstring references Eq. {mention.number}, which "
                    "PAPER.md does not cite (registry: "
                    f"{min(known)}-{max(known)})" if known else
                    f"docstring references Eq. {mention.number}, but "
                    "PAPER.md cites no equations",
                )
        for claim in table.claims:
            if claim.number not in known:
                yield self.finding(
                    claim.relpath,
                    claim.line,
                    f"{claim.qualname} claims Eq. {claim.number}, which "
                    "PAPER.md does not cite",
                )
        claimed_elsewhere: Optional[Set[int]] = None
        for number in sorted(known):
            claimants = table.claimants(number)
            if not claimants:
                if claimed_elsewhere is None:
                    claimed_elsewhere = _package_claims(project)
                if number in claimed_elsewhere:
                    continue  # implemented outside the linted targets
                yield self.finding(
                    "PAPER.md",
                    1,
                    f"Eq. {number} ({table.registry[number]}) has no "
                    "canonical implementation: no docstring starts with "
                    f"'Eq. {number}:'",
                )
            elif len(claimants) > 1:
                others = ", ".join(
                    f"{c.qualname} ({c.location})" for c in claimants
                )
                for claimant in claimants:
                    yield self.finding(
                        claimant.relpath,
                        claimant.line,
                        f"Eq. {number} is claimed by {len(claimants)} "
                        f"functions ({others}); exactly one docstring may "
                        f"start with 'Eq. {number}:'",
                    )
