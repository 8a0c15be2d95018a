"""Bounded mixed real/integer search domains.

Points are always represented as continuous vectors, even on integer
dimensions; integers are materialized (rounded) only at objective-evaluation
and reporting boundaries.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

REAL = "real"
INTEGER = "integer"


class ConfigError(ValueError):
    """An invalid config value or setting, raised by the check that reads it; the
    CLI exits 2 on this type alone."""


def check_size(name: str, value, least: int):
    """Raise ConfigError unless `value` is an integer (numbers.Integral) with
    `least <= value <= sys.maxsize`, a size numpy can index; NaN fails both comparisons."""
    if not value >= least:
        got = "" if value < -sys.maxsize else f", got {value!r}"  # repr fails past 4,300 digits
        raise ConfigError(f"{name} must be at least {least}{got}")
    if not value <= sys.maxsize:  # no value in the message, for the same reason
        raise ConfigError(f"{name} must be at most {sys.maxsize}")
    if not isinstance(value, numbers.Integral):  # 40.0 would fail in range() or a shape
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def check_finite(name: str, value):
    """Raise ConfigError unless `0 <= value < inf`; NaN fails."""
    if not 0.0 <= value < math.inf:
        raise ConfigError(f"{name} must be finite and non-negative, got {value!r}")


class DimensionMismatchError(ValueError):
    def __init__(self, expected, got):
        super().__init__(f"point has {got} coordinates, space has {expected} dimensions")
        self.expected = expected
        self.got = got

    def __reduce__(self):  # rebuilt from its arguments, so it crosses a process pool
        return type(self), (self.expected, self.got)


@dataclass(frozen=True)
class Dimension:
    """One bounded dimension, either continuous or integer-valued."""

    name: str
    kind: str  # REAL or INTEGER
    lower: float
    upper: float

    def __post_init__(self):
        if self.kind not in (REAL, INTEGER):
            raise ConfigError(f"dimension {self.name!r}: unknown kind {self.kind!r}")


@dataclass(frozen=True)
class SearchSpace:
    """Ordered list of bounded dimensions defining the optimization domain; validated when built."""

    dims: tuple[Dimension, ...]
    lower: np.ndarray = field(init=False, repr=False, compare=False)
    upper: np.ndarray = field(init=False, repr=False, compare=False)
    ranges: np.ndarray = field(init=False, repr=False, compare=False)  # upper - lower

    def __init__(self, dims):
        object.__setattr__(self, "dims", tuple(dims))
        if not self.dims:
            raise ConfigError("search space has no dimensions")
        names = [d.name for d in self.dims]
        if len(set(names)) != len(names):
            raise ConfigError("dimension names must be unique")
        for d in self.dims:
            if not d.lower < d.upper:
                raise ConfigError(f"dimension {d.name!r}: lower bound must be strictly below upper bound")
            if not math.isfinite(float(d.upper) - float(d.lower)):  # an inf bound or an overflowing range
                raise ConfigError(f"dimension {d.name!r}: bounds and upper - lower must be finite, "
                                  f"got [{d.lower!r}, {d.upper!r}]")
            if d.kind == INTEGER and math.floor(d.upper) < math.ceil(d.lower):
                raise ConfigError(f"integer dimension {d.name!r}: no integer inside its bounds")
        object.__setattr__(self, "lower", np.array([d.lower for d in self.dims], dtype=float))
        object.__setattr__(self, "upper", np.array([d.upper for d in self.dims], dtype=float))
        object.__setattr__(self, "ranges", self.upper - self.lower)

    @property
    def dim(self) -> int:
        return len(self.dims)

    def integer_mask(self) -> np.ndarray:
        return np.array([d.kind == INTEGER for d in self.dims], dtype=bool)


def _check_len(space: SearchSpace, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != space.dim:
        raise DimensionMismatchError(space.dim, x.shape[-1])
    return x


def sample_uniform(space: SearchSpace, rng: np.random.Generator) -> np.ndarray:
    """Draw one point uniformly inside the box bounds."""
    return rng.uniform(space.lower, space.upper)


def clamp(space: SearchSpace, x: np.ndarray) -> np.ndarray:
    """Coordinate-wise projection onto the box. Idempotent."""
    x = _check_len(space, x)
    return np.clip(x, space.lower, space.upper)


def _round_half_away(v: np.ndarray) -> np.ndarray:
    # np.round ties to even; half-away-from-zero keeps results platform-independent
    # and matches the documented contract. `+ 0.0` maps -0.0 (from (-0.5, 0)) to 0.0.
    return np.sign(v) * np.floor(np.abs(v) + 0.5) + 0.0


def materialize(space: SearchSpace, x: np.ndarray) -> np.ndarray:
    """Round integer coordinates to the nearest feasible integer.

    Real coordinates pass through unchanged. Idempotent.
    """
    x = _check_len(space, x)
    out = np.array(x, dtype=float, copy=True)
    mask = space.integer_mask()
    if mask.any():
        rounded = _round_half_away(out[..., mask])
        lo = np.ceil(space.lower[mask])
        hi = np.floor(space.upper[mask])
        out[..., mask] = np.clip(rounded, lo, hi)
    return out
