"""Paper-equation traceability: registry, claims, mentions, tables.

The reproduction's contract with the paper is carried by docstrings:
a function whose docstring *starts* with ``Eq. N:`` **claims** to be
the canonical implementation of that equation; any other ``Eq. N``
appearing in a docstring is a **mention** (context, cross-reference).
References to *other* papers' numbering -- ``Eq. N of <Source>`` /
``Eq. N in <Source>``, with a capitalized source -- are neither.
This module extracts both, builds the equation registry from the
numbers PAPER.md actually cites (Equations 1-10 and 11-13 for this
paper), and renders the coverage map — as terminal text with an ASCII
mention histogram (``repro lint --eq-table``), and as Markdown for
``docs/STATIC_ANALYSIS.md``.

Rule RL005 consumes the same data: every registry equation must be
claimed by exactly one function, and every mentioned number must exist
in the registry.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.registry import ModuleInfo

__all__ = [
    "EQUATION_TITLES",
    "EqClaim",
    "EqMention",
    "EqTable",
    "parse_paper_equations",
    "scan_module",
    "build_table",
]

#: Curated one-line statements of the paper's equations (Gabor, Weiss,
#: Mendelson, MICRO 2006), matching docs/MECHANISM.md's derivations.
EQUATION_TITLES: Dict[int, str] = {
    1: "single-thread IPC: IPC_ST = IPM / (CPM + L)",
    2: "unenforced per-thread SOE IPC: IPM_j / sum_k (CPM_k + S)",
    3: "per-thread speedup: IPC_SOE_j / IPC_ST_j",
    4: "fairness: min(speedups) / max(speedups)",
    5: "unenforced fairness closed form: min (CPM_j + L) / (CPM_k + L)",
    6: "enforced per-thread SOE IPC: IPSw_j / sum_k (CPSw_k + S)",
    7: "speedup-ratio derivation: IPSw_j proportional to IPC_ST_j",
    8: "worst-case speedup ratio admitted by a target: 1 / F",
    9: "instruction quota: IPSw_j = min(IPM_j, IPC_ST_j (CPM_min + L) / F)",
    10: "total SOE throughput: sum_j IPC_SOE_j",
    11: "IPM estimate from counters: Instrs / max(Misses, 1)",
    12: "CPM estimate from counters: Cycles / max(Misses, 1)",
    13: "runtime IPC_ST estimate: Eq. 1 on the Eq. 11/12 estimates",
}

#: ``Eq. 4`` / ``Eqs. 11-12`` / ``Equations 1-10`` (hyphen or en dash).
_EQ_REF = re.compile(r"(?:Eqs?\.|Equations?)\s*(\d+)(?:\s*[-–]\s*(\d+))?")

#: ``Eq. N of <Source>`` / ``Eq. N in <Source>`` cites *another* paper's
#: numbering (the source starts with a capital letter, optionally after
#: a quote or parenthesis), so it is neither a claim nor a mention of
#: this paper's equations. Plain prose like ``Eq. 1 in the limit`` is
#: lowercase and still counts.
_EXTERNAL_SOURCE = re.compile(r"\s+(?:of|in)\s+['\"(]?[A-Z]")

#: A docstring whose first line reads ``Eq. N: ...`` claims equation N.
_EQ_CLAIM = re.compile(r"^Eq\.\s*(\d+)\s*:")

#: Sanity cap when expanding ``Equations A-B`` ranges.
_MAX_RANGE = 50


@dataclass(frozen=True)
class EqClaim:
    """A function declaring itself the canonical implementation."""

    number: int
    qualname: str  #: dotted name within the module, e.g. ``SoeModel.quotas``
    relpath: str
    line: int

    @property
    def location(self) -> str:
        return f"{self.relpath}:{self.line}"


@dataclass(frozen=True)
class EqMention:
    """A non-claiming ``Eq. N`` reference inside a docstring."""

    number: int
    relpath: str
    line: int


def _iter_numbers(text: str) -> Iterator[Tuple[int, int]]:
    """Yield ``(number, match_start)`` for every reference, ranges expanded."""
    for match in _EQ_REF.finditer(text):
        if _EXTERNAL_SOURCE.match(text, match.end()):
            continue  # cites another paper's equation numbering
        first = int(match.group(1))
        last = int(match.group(2)) if match.group(2) else first
        if last < first or last - first > _MAX_RANGE:
            last = first
        for number in range(first, last + 1):
            yield number, match.start()


def parse_paper_equations(paper_text: str) -> List[int]:
    """The equation numbers PAPER.md cites (the registry's domain)."""
    return sorted({number for number, _ in _iter_numbers(paper_text)})


def _docstring_node(node: ast.AST) -> Optional[ast.Expr]:
    body = getattr(node, "body", None)
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        return body[0]
    return None


def scan_module(module: ModuleInfo) -> Tuple[List[EqClaim], List[EqMention]]:
    """Extract every claim and mention from one file's docstrings."""
    claims: List[EqClaim] = []
    mentions: List[EqMention] = []

    def visit(node: ast.AST, prefix: str) -> None:
        doc_node = _docstring_node(node)
        if doc_node is not None:
            text = doc_node.value.value  # type: ignore[attr-defined]
            line = doc_node.lineno
            claimed_at: Optional[int] = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                claim = _EQ_CLAIM.match(text.lstrip())
                if claim:
                    number = int(claim.group(1))
                    qualname = f"{prefix}{node.name}" if prefix else node.name
                    claims.append(EqClaim(number, qualname, module.relpath, line))
                    claimed_at = text.find(claim.group(0))
            for number, start in _iter_numbers(text):
                if claimed_at is not None and start <= claimed_at + 4:
                    continue  # the claim itself is not also a mention
                mentions.append(EqMention(number, module.relpath, line))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, prefix)
            elif not isinstance(child, ast.expr):
                # Plain statements may nest defs (e.g. under `if`);
                # expressions never do, so they are not walked.
                visit_children_only(child, prefix)

    def visit_children_only(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, prefix)
            elif not isinstance(child, ast.expr):
                visit_children_only(child, prefix)

    visit(module.tree, "")
    return claims, mentions


@dataclass
class EqTable:
    """The full traceability cross-reference."""

    registry: Dict[int, str]
    claims: List[EqClaim] = field(default_factory=list)
    mentions: List[EqMention] = field(default_factory=list)

    def claimants(self, number: int) -> List[EqClaim]:
        return sorted(
            (c for c in self.claims if c.number == number),
            key=lambda c: (c.relpath, c.line),
        )

    def mention_count(self, number: int) -> int:
        return sum(1 for m in self.mentions if m.number == number)

    @property
    def is_complete(self) -> bool:
        """Every registry equation claimed by exactly one function."""
        return all(len(self.claimants(n)) == 1 for n in self.registry)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render_text(self, chart: bool = True) -> str:
        from repro.metrics.ascii_chart import bar_chart

        lines = ["Paper-equation traceability (PAPER.md -> src/repro)", ""]
        header = f"{'Eq.':>4}  {'implemented by':40} {'mentions':>8}  title"
        lines.append(header)
        lines.append("-" * len(header))
        for number in sorted(self.registry):
            claimants = self.claimants(number)
            if not claimants:
                owner = "(unclaimed)"
            elif len(claimants) == 1:
                owner = f"{claimants[0].qualname} ({claimants[0].location})"
            else:
                owner = f"CONFLICT: {', '.join(c.qualname for c in claimants)}"
            lines.append(
                f"{number:>4}  {owner:40} {self.mention_count(number):>8}  "
                f"{self.registry[number]}"
            )
        claimed = sum(1 for n in self.registry if len(self.claimants(n)) == 1)
        lines.append("")
        lines.append(
            f"coverage: {claimed}/{len(self.registry)} equations claimed by "
            f"exactly one function; {len(self.mentions)} docstring mentions"
        )
        if chart and self.registry:
            lines.append("")
            lines.append("docstring mentions per equation:")
            lines.append(
                bar_chart(
                    {
                        f"Eq. {number:>2}": float(self.mention_count(number))
                        for number in sorted(self.registry)
                    },
                    width=40,
                )
            )
        return "\n".join(lines)

    def render_markdown(self) -> str:
        lines = [
            "| Eq. | Statement | Implemented by | Mentions |",
            "| --- | --- | --- | --- |",
        ]
        for number in sorted(self.registry):
            claimants = self.claimants(number)
            if not claimants:
                owner = "*(unclaimed)*"
            else:
                owner = "; ".join(
                    f"`{c.qualname}` ({c.location})" for c in claimants
                )
            lines.append(
                f"| {number} | {self.registry[number]} | {owner} "
                f"| {self.mention_count(number)} |"
            )
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        return {
            "registry": {
                str(number): title for number, title in sorted(self.registry.items())
            },
            "claims": [
                {
                    "eq": claim.number,
                    "function": claim.qualname,
                    "path": claim.relpath,
                    "line": claim.line,
                }
                for claim in sorted(
                    self.claims, key=lambda c: (c.number, c.relpath, c.line)
                )
            ],
            "mention_counts": {
                str(number): self.mention_count(number)
                for number in sorted(self.registry)
            },
            "complete": self.is_complete,
        }


def build_table(
    modules: List[ModuleInfo], paper_text: str
) -> EqTable:
    """Scan every module and cross-reference against PAPER.md's registry."""
    claims: List[EqClaim] = []
    mentions: List[EqMention] = []
    for module in modules:
        module_claims, module_mentions = scan_module(module)
        claims.extend(module_claims)
        mentions.extend(module_mentions)
    registry = {
        number: EQUATION_TITLES.get(number, "(no curated statement)")
        for number in parse_paper_equations(paper_text)
    }
    return EqTable(registry=registry, claims=claims, mentions=mentions)
