"""Sampled functions on uniform 1-D grids and trapezoid quadrature.

Everything downstream (weight-class estimators, one-sided operators,
norm-ratio experiments) runs on the carrier defined here: a function
sampled at ``n`` equispaced nodes of a finite window ``[x_lo, x_hi]``.
Functions on the whole line are truncated to such a window; every
experiment reports the window so truncation effects stay auditable.

Numerical contract
------------------
* Quadrature is composite trapezoid on the native grid.  It is exact on
  piecewise-linear data, which matches the representation; higher-order
  rules gain nothing on sampled inputs.
* Interval integrals run between grid nodes (no partial cells), so the
  cell partition is exact and only the float additions round.
* Grid nodes are built from the convex combination
  ``x_i = ((n-1-i) x_lo + i x_hi) / (n-1)`` so that the node set of the
  reflected window ``[-x_hi, -x_lo]`` is exactly ``-x_{n-1-i}``.
* ``grid_nodes`` and ``cumulative_trapezoid`` work in place, with the
  operations and order of the plain expressions (bit-identical), so a
  grid costs two arrays and its running sums one.
* A request whose estimated working set passes WORKING_BYTES_LIMIT
  (4 GiB) is refused up front (``check_working_bytes``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "SampledFunction",
    "dual_exponent",
    "grid_node",
    "grid_nodes",
    "resample",
]

WORKING_BYTES_LIMIT = 4 * 2 ** 30


def check_working_bytes(nbytes: int, what: str) -> None:
    """ConfigError, stating the bytes, when ``what`` would hold more than the limit."""
    if nbytes > WORKING_BYTES_LIMIT:
        raise ConfigError(f"{what} would hold about {nbytes:.3g} bytes at once, "
                          f"over the {WORKING_BYTES_LIMIT / 2 ** 30:g} GiB budget")


def grid_node(x_lo: float, x_hi: float, n: int, i):
    """Node ``i`` of the n-node grid of [x_lo, x_hi]: a float for an int
    ``i``; a float64 index array is overwritten with its nodes."""
    m = float(n - 1)
    hi_part = i * x_hi
    x = np.subtract(m, i, out=i if isinstance(i, np.ndarray) else None)
    x *= x_lo
    x += hi_part
    x /= m
    return x if isinstance(i, np.ndarray) else float(x)


def grid_nodes(x_lo: float, x_hi: float, n: int) -> np.ndarray:
    """Uniform nodes of [x_lo, x_hi], endpoint-exact and reflection-symmetric."""
    return grid_node(x_lo, x_hi, n, np.arange(n, dtype=np.float64))


def trapezoid_cells(values: np.ndarray, spacing: float) -> np.ndarray:
    """Trapezoid areas of the cells between neighbouring samples (last axis)."""
    return spacing * (values[..., :-1] + values[..., 1:]) / 2.0


def cumulative_trapezoid(values: np.ndarray, spacing: float) -> np.ndarray:
    """Running cell sums with a leading zero, formed in the result: entry i
    integrates from node 0 to node i, so an interval integral is a difference."""
    out = np.empty(values.shape, dtype=np.result_type(spacing, values))
    cells = np.add(values[..., :-1], values[..., 1:], out=out[..., 1:])
    np.multiply(spacing, cells, out=cells)
    cells /= 2.0
    out[..., 0] = 0.0
    np.cumsum(cells, axis=-1, out=cells)
    return out


@dataclass(frozen=True)
class SampledFunction:
    """A complex-valued function sampled on a uniform grid.

    Real-valued functions carry zero imaginary parts.  Instances are
    immutable; all operations return new objects, so sharing across
    threads is safe.
    """

    x_lo: float
    x_hi: float
    n: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not -math.inf < self.x_lo < self.x_hi < math.inf:
            raise DomainError(f"need finite x_lo < x_hi, got [{self.x_lo}, {self.x_hi}]")
        if self.n < 2:
            raise DomainError(f"need n >= 2, got n={self.n}")
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.n,):
            raise DomainError(f"values must have exactly n={self.n} entries, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise DomainError("values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def spacing(self) -> float:
        return (self.x_hi - self.x_lo) / (self.n - 1)

    def nodes(self) -> np.ndarray:
        return grid_nodes(self.x_lo, self.x_hi, self.n)

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.values.imag == 0.0))

    def check_covers(self, x_lo: float, x_hi: float) -> None:
        """DomainError unless [x_lo, x_hi] lies in the window (up to 1e-9 relative)."""
        tol = 1e-9 * max(self.x_hi - self.x_lo, 1.0)
        if x_lo < self.x_lo - tol or x_hi > self.x_hi + tol:
            raise DomainError(f"target window [{x_lo}, {x_hi}] escapes source "
                              f"[{self.x_lo}, {self.x_hi}]")

    def same_grid(self, other: "SampledFunction") -> bool:
        return self.x_lo == other.x_lo and self.x_hi == other.x_hi and self.n == other.n

    def with_values(self, values: np.ndarray) -> "SampledFunction":
        return SampledFunction(self.x_lo, self.x_hi, self.n, values)

    def reflected(self) -> "SampledFunction":
        """The function x -> f(-x), sampled on the mirrored window."""
        return SampledFunction(-self.x_hi, -self.x_lo, self.n, self.values[::-1].copy())

    @staticmethod
    def from_callable(fn, x_lo: float, x_hi: float, n: int) -> "SampledFunction":
        x = grid_nodes(x_lo, x_hi, n)
        return SampledFunction(x_lo, x_hi, n, np.asarray(fn(x), dtype=np.complex128))


def dual_exponent(p: float) -> float:
    """1 - p', the exponent of the dual weight w^{1-p'}, for a Lebesgue
    exponent 1 < p < inf with conjugate p' = p / (p - 1)."""
    if not (1.0 < p < math.inf):
        raise DomainError(f"need p in (1, inf), got {p}")
    return 1.0 - p / (p - 1.0)


def resample(f: SampledFunction, x_lo: float, x_hi: float, n: int) -> SampledFunction:
    """Linear interpolation of ``f`` onto a new grid inside its window."""
    f.check_covers(x_lo, x_hi)
    if x_lo == f.x_lo and x_hi == f.x_hi and n == f.n:
        return SampledFunction(x_lo, x_hi, n, f.values.copy())
    x_new = grid_nodes(x_lo, x_hi, n)
    x_old = f.nodes()
    re = np.interp(x_new, x_old, f.values.real)
    im = np.interp(x_new, x_old, f.values.imag)
    return SampledFunction(x_lo, x_hi, n, re + 1j * im)
