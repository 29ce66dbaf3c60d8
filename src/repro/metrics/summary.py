"""Small statistics helpers shared by the experiment runners."""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import ConfigurationError

__all__ = ["mean", "stdev"]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean."""
    if not values:
        raise ConfigurationError("mean of an empty sequence")
    return sum(values) / len(values)


def stdev(values: Sequence[float]) -> float:
    """Sample standard deviation (0.0 for a single value)."""
    if not values:
        raise ConfigurationError("stdev of an empty sequence")
    if len(values) == 1:
        return 0.0
    m = mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (len(values) - 1))
