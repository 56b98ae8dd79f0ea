"""Core value types: uniformly sampled time series and probability levels."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ProbabilityLevel:
    """A probability in [0, 1], used as a quantile level."""

    p: float

    def __post_init__(self):
        p = float(self.p)
        if not math.isfinite(p) or not 0.0 <= p <= 1.0:
            raise ValueError(f"probability level must lie in [0, 1], got {self.p!r}")
        object.__setattr__(self, "p", p)

    def __float__(self) -> float:
        return self.p


def frozen_array(x, dtype=float) -> np.ndarray:
    """A read-only copy of x as a C-order array of dtype: how the value types
    store their arrays."""
    array = np.array(x, dtype=dtype, order="C")
    array.setflags(write=False)
    return array


def as_level(level: float | ProbabilityLevel) -> ProbabilityLevel:
    if isinstance(level, ProbabilityLevel):
        return level
    return ProbabilityLevel(float(level))


@dataclass(frozen=True)
class TimeSeries:
    """Ordered real-valued observations on a uniform grid; all lag arithmetic
    is done in observation steps."""

    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        values = frozen_array(as_values(self.values))
        if values.size < 2:
            raise ValueError(f"a time series needs at least 2 observations, got {values.size}")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.values.size)


def as_values(x: TimeSeries | np.ndarray | list) -> np.ndarray:
    """Coerce a TimeSeries or array-like to a 1-d float array: the one rule
    for a series, which TimeSeries validates through too.

    Raises ValueError("empty input") for empty inputs so callers get the
    documented error without constructing a TimeSeries first.
    """
    if isinstance(x, TimeSeries):
        return x.values
    values = np.asarray(x, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"expected a one-dimensional series, got shape {values.shape}")
    if values.size == 0:
        raise ValueError("empty input")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must all be finite")
    return values
