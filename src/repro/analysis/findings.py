"""The finding type shared by every lint rule.

A :class:`Finding` is one diagnostic at one source location. Findings
are value objects: rules yield them, the engine sorts/filters them, the
CLI renders them. Every finding that no inline pragma suppresses fails
the lint.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic produced by one rule at one location."""

    path: str  #: repo-relative POSIX path of the offending file
    line: int  #: 1-based line number
    col: int  #: 0-based column offset
    rule: str  #: rule id, e.g. ``"RL004"``
    message: str

    def render(self) -> str:
        """``path:line:col: RLxxx message`` (one terminal line)."""
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"
