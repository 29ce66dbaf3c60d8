"""Experiment runners: one module per table/figure of the paper.

See :mod:`repro.experiments.registry` for the id -> runner map and
``DESIGN.md`` for the experiment index.
"""

from repro.experiments.common import (
    EvalConfig,
    PairResult,
    format_table,
)
from repro.experiments.registry import (
    Experiment,
    experiment_ids,
    get_experiment,
)
from repro.experiments.runner import (
    ExecutionSettings,
    GridOutcome,
    ResultCache,
    execution,
    parallel_map,
    run_grid,
)

__all__ = [
    "EvalConfig",
    "ExecutionSettings",
    "Experiment",
    "GridOutcome",
    "PairResult",
    "ResultCache",
    "execution",
    "experiment_ids",
    "format_table",
    "get_experiment",
    "parallel_map",
    "run_grid",
]
