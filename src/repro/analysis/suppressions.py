"""Inline ``# repro-lint: disable=...`` suppression comments.

Three forms are recognized:

* same-line: ``x = risky()  # repro-lint: disable=RL004 - reason`` —
  suppresses the listed rules on that line only;
* next-line: a comment-only line suppresses the listed rules on the
  following source line (for statements too long to share a line with
  the pragma). When the following lines are decorators, the pragma
  skips past them to the ``def``/``class`` line itself, so a pragma
  placed above a decorated definition suppresses findings anchored at
  the definition (where rules report them), not at the decorator;
* file-level: ``# repro-lint: disable-file=RL002 - reason`` anywhere in
  the file suppresses the rules for the whole file.

The free-text reason after ``-`` is encouraged (the docs require one in
review) but not enforced mechanically. Suppressions are parsed from raw
source lines, not the AST, so they work on any line including
decorators and comments.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set

from repro.analysis.findings import Finding

__all__ = ["Suppressions", "parse_suppressions"]

_PRAGMA = re.compile(
    r"#\s*repro-lint:\s*(disable|disable-file)\s*=\s*"
    r"([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)


@dataclass
class Suppressions:
    """Parsed suppression pragmas of one file."""

    #: line number -> rule ids suppressed on that line
    by_line: Dict[int, Set[str]] = field(default_factory=dict)
    #: rule ids suppressed for the whole file
    file_level: Set[str] = field(default_factory=set)

    def is_suppressed(self, finding: Finding) -> bool:
        return self.silences(finding.rule, finding.line)

    def silences(self, rule: str, line: int) -> bool:
        """Whether a finding of ``rule`` at ``line`` is suppressed."""
        return rule in self.file_level or rule in self.by_line.get(line, set())

    @property
    def rules_used(self) -> FrozenSet[str]:
        used: Set[str] = set(self.file_level)
        for rules in self.by_line.values():
            used |= rules
        return frozenset(used)


def _skip_decorators(lines: List[str], target: int) -> int:
    """Advance a next-line pragma target past decorator lines.

    Findings on decorated defs anchor at the ``def`` line, so a pragma
    above ``@decorator`` must reach past it. Decorator argument lists
    may span lines; bracket depth tracks where each one ends. Falls
    back to the original target for malformed input.
    """
    index = target
    while index <= len(lines) and lines[index - 1].lstrip().startswith("@"):
        depth = 0
        while index <= len(lines):
            code = lines[index - 1].split("#", 1)[0]
            depth += (
                code.count("(") + code.count("[") + code.count("{")
                - code.count(")") - code.count("]") - code.count("}")
            )
            index += 1
            if depth <= 0:
                break
    return index if index <= len(lines) else target


def parse_suppressions(source: str) -> Suppressions:
    """Extract every pragma from raw source text."""
    suppressions = Suppressions()
    lines: List[str] = source.splitlines()
    for index, line in enumerate(lines, start=1):
        match = _PRAGMA.search(line)
        if match is None:
            continue
        kind = match.group(1)
        rules = {part.strip() for part in match.group(2).split(",")}
        if kind == "disable-file":
            suppressions.file_level |= rules
            continue
        stripped = line[: match.start()].strip()
        if stripped:
            # Pragma shares the line with code: suppress this line.
            target = index
        else:
            # Comment-only pragma: suppress the next line (skipping any
            # decorators so the pragma lands on the def itself).
            target = _skip_decorators(lines, index + 1)
        suppressions.by_line.setdefault(target, set()).update(rules)
    return suppressions
