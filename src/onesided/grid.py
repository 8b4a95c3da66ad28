"""Sampled functions on uniform 1-D grids, trapezoid quadrature, and
weighted L^p norms.

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
* Integration endpoints snap to the nearest grid node (no partial
  cells), so splitting an integral at an interior node loses nothing:
  the cell partition is exact and only the final float addition rounds.
* Interval sums use ``math.fsum`` (correctly rounded, summation-order
  independent), which makes mirror-image computations bit-identical.
* Grid nodes are built from the convex combination
  ``x_i = ((n-1-i) x_lo + i x_hi) / (n-1)`` so that the node set of the
  reflected window ``[-x_hi, -x_lo]`` is exactly ``-x_{n-1-i}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GridMismatchError

__all__ = [
    "SampledFunction",
    "ExponentPair",
    "grid_nodes",
    "integrate",
    "lp_weighted_norm",
    "resample",
]


def grid_nodes(x_lo: float, x_hi: float, n: int) -> np.ndarray:
    """Uniform nodes of [x_lo, x_hi], endpoint-exact and reflection-symmetric."""
    i = np.arange(n, dtype=np.float64)
    m = float(n - 1)
    return ((m - i) * x_lo + i * x_hi) / m


def trapezoid_cells(values: np.ndarray, spacing: float) -> np.ndarray:
    """Trapezoid areas of the cells between neighbouring samples (last axis)."""
    return spacing * (values[..., :-1] + values[..., 1:]) / 2.0


def cumulative_trapezoid(values: np.ndarray, spacing: float) -> np.ndarray:
    """Running cell sums with a leading zero: entry i integrates from node
    0 to node i, so any interval integral is a difference of two entries."""
    cells = trapezoid_cells(values, spacing)
    zero = np.zeros(cells.shape[:-1] + (1,), dtype=cells.dtype)
    return np.concatenate([zero, np.cumsum(cells, axis=-1)], axis=-1)


def _cfsum(values: np.ndarray) -> complex:
    """Correctly rounded sum of a complex array (fsum per component)."""
    if np.iscomplexobj(values):
        return complex(math.fsum(values.real), math.fsum(values.imag))
    return complex(math.fsum(values), 0.0)


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
        if not (self.x_lo < self.x_hi):
            raise DomainError(f"need x_lo < x_hi, got [{self.x_lo}, {self.x_hi}]")
        if self.n < 2:
            raise DomainError(f"need n >= 2, got n={self.n}")
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.n,):
            raise DomainError(f"values must have exactly n={self.n} entries, got shape {vals.shape}")
        if not np.all(np.isfinite(vals.real)) or not np.all(np.isfinite(vals.imag)):
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

    def snap_index(self, a: float) -> int:
        """Index of the grid node nearest to ``a`` (must be inside the window)."""
        span = self.x_hi - self.x_lo
        tol = 1e-9 * max(span, 1.0)
        if a < self.x_lo - tol or a > self.x_hi + tol:
            raise DomainError(f"point {a} outside window [{self.x_lo}, {self.x_hi}]")
        t = (a - self.x_lo) / span
        return int(min(max(round(t * (self.n - 1)), 0), self.n - 1))

    def cell_areas(self) -> np.ndarray:
        """Trapezoid areas of the n-1 grid cells."""
        return trapezoid_cells(self.values, self.spacing)


@dataclass(frozen=True)
class ExponentPair:
    """A Lebesgue exponent 1 < p < inf together with its conjugate p'."""

    p: float
    p_conj: float = 0.0  # derived in __post_init__ when left at 0

    def __post_init__(self):
        if not (1.0 < self.p < math.inf):
            raise DomainError(f"need p in (1, inf), got {self.p}")
        conj = self.p / (self.p - 1.0)
        if self.p_conj == 0.0:
            object.__setattr__(self, "p_conj", conj)
        if abs(1.0 / self.p + 1.0 / self.p_conj - 1.0) > 1e-12:
            raise DomainError(f"1/p + 1/p' = 1 violated for p={self.p}, p'={self.p_conj}")


def integrate(f: SampledFunction, a: float, b: float) -> complex:
    """Composite-trapezoid value of the integral of ``f`` over [a, b].

    Endpoints snap to the nearest grid nodes; callers choose
    grid-aligned endpoints when they need exact interval arithmetic.
    """
    if a > b:
        raise DomainError(f"need a <= b, got a={a}, b={b}")
    ia, ib = f.snap_index(a), f.snap_index(b)
    if ib <= ia:
        return 0j
    return _cfsum(f.cell_areas()[ia:ib])


def lp_weighted_norm(f: SampledFunction, w: SampledFunction, p: float) -> float:
    """The weighted norm (integral of |f|^p w over the window)^(1/p)."""
    if p < 1.0:
        raise DomainError(f"need p >= 1, got {p}")
    if not f.same_grid(w):
        raise GridMismatchError(
            f"grids differ: [{f.x_lo},{f.x_hi}]x{f.n} vs [{w.x_lo},{w.x_hi}]x{w.n}")
    if not w.is_real or np.any(w.values.real < 0):
        raise DomainError("weight must be real and nonnegative")
    integrand = np.abs(f.values) ** p * w.values.real
    total = math.fsum(trapezoid_cells(integrand, f.spacing))
    return float(total ** (1.0 / p))


def resample(f: SampledFunction, x_lo: float, x_hi: float, n: int) -> SampledFunction:
    """Linear interpolation of ``f`` onto a new grid inside its window."""
    tol = 1e-9 * max(f.x_hi - f.x_lo, 1.0)
    if x_lo < f.x_lo - tol or x_hi > f.x_hi + tol:
        raise DomainError(
            f"target window [{x_lo}, {x_hi}] escapes source [{f.x_lo}, {f.x_hi}]")
    if x_lo == f.x_lo and x_hi == f.x_hi and n == f.n:
        return SampledFunction(x_lo, x_hi, n, f.values.copy())
    x_new = grid_nodes(x_lo, x_hi, n)
    x_old = f.nodes()
    re = np.interp(x_new, x_old, f.values.real)
    im = np.interp(x_new, x_old, f.values.imag)
    return SampledFunction(x_lo, x_hi, n, re + 1j * im)
