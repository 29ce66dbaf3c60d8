"""RL004: no exact float equality in fairness/throughput math.

The ``truncated_fairness`` bug (a measured fairness a few ulps above
1.0 rejected by an exact range check) shipped because nothing flagged
exact comparisons on float-valued expressions. This rule flags
``==``/``!=`` where either operand is *statically recognizable* as a
float: a float literal, a true-division result, a ``float(...)`` call,
a ``math`` constant, a name or ``self.<field>`` annotated ``float``.

The detector is deliberately a heuristic — unannotated intermediate
values escape it — but it catches the dominant pattern (comparisons
against float literals and annotated quantities). Exact *sentinel*
comparisons (e.g. ``fairness_target == 0.0`` where 0.0 is an exact,
validated input) are legitimate and should carry an inline
``# repro-lint: disable=RL004 - <reason>`` suppression.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.analysis.findings import Finding
from repro.analysis.registry import ModuleInfo, Rule, RuleMeta, register

__all__ = ["NoFloatEquality"]

_MATH_FLOAT_CONSTANTS = {"inf", "nan", "pi", "e", "tau"}


def _is_float_annotation(annotation: Optional[ast.expr]) -> bool:
    if isinstance(annotation, ast.Name):
        return annotation.id == "float"
    if isinstance(annotation, ast.Constant):  # string annotation
        return annotation.value == "float"
    if isinstance(annotation, ast.Subscript):
        # Optional[float] / Union[float, ...] style annotations.
        for child in ast.walk(annotation):
            if isinstance(child, ast.Name) and child.id == "float":
                return True
    return False


@register
class NoFloatEquality(Rule):
    """RL004: use ``math.isclose`` or an explicit tolerance instead."""

    meta = RuleMeta(
        id="RL004",
        name="float-eq",
        rationale=(
            "Exact == / != on floating-point quantities breaks on ulp "
            "noise (the truncated_fairness clamp bug); fairness and "
            "throughput math must compare with math.isclose or an "
            "explicit tolerance, or suppress with a reason for exact "
            "sentinels."
        ),
        paths=(
            "src/repro/core/",
            "src/repro/metrics/",
            "src/repro/experiments/",
        ),
    )

    def _annotated_floats(self, tree: ast.Module) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.arg) and _is_float_annotation(node.annotation):
                names.add(node.arg)
            elif (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and _is_float_annotation(node.annotation)
            ):
                names.add(node.target.id)
        return names

    def _float_fields(self, tree: ast.Module) -> Set[str]:
        """Class-level ``x: float`` fields (dataclass style), module-wide."""
        fields: Set[str] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for statement in node.body:
                if (
                    isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)
                    and _is_float_annotation(statement.annotation)
                ):
                    fields.add(statement.target.id)
        return fields

    def _is_floatish(
        self, node: ast.expr, names: Set[str], fields: Set[str]
    ) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.Name):
            return node.id in names
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "math"
                and node.attr in _MATH_FLOAT_CONSTANTS
            ):
                return True
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return node.attr in fields
            return False
        if isinstance(node, ast.Call):
            return isinstance(node.func, ast.Name) and node.func.id == "float"
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return True
            return self._is_floatish(node.left, names, fields) or self._is_floatish(
                node.right, names, fields
            )
        if isinstance(node, ast.UnaryOp):
            return self._is_floatish(node.operand, names, fields)
        return False

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        names = self._annotated_floats(module.tree)
        fields = self._float_fields(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(self._is_floatish(op, names, fields) for op in operands):
                yield self.finding(
                    module,
                    node,
                    "exact float equality; use math.isclose(...) or an "
                    "explicit tolerance (suppress with a reason for exact "
                    "sentinel values)",
                )
