"""Interpolation of operators with change of measures (Stein-Weiss).

Given a sublinear operator bounded L^{p0}(v0) -> L^{p0}(u0) with
constant C0 and L^{p1}(v1) -> L^{p1}(u1) with constant C1, the
interpolated bound lives on the geometric compromise

    1/p = theta/p0 + (1-theta)/p1,
    u = u0^{p theta / p0} u1^{p (1-theta) / p1}   (v likewise),
    C <= C0^theta C1^{1-theta}.

The verifier exercises the bound on pointwise multiplication operators
S: f -> g f, whose weighted operator norms are exact nodewise suprema
sup |g| (u/v)^{1/p}; with exact endpoint norms the interpolated
inequality becomes a machine-checkable assertion (it reduces to a
pointwise Hoelder identity), which is the point of using multipliers
rather than estimated maximal/singular norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grid import SampledFunction
from .weights import WeightSpec, weight_power, weight_product

__all__ = [
    "InterpolationEndpoints",
    "MultiplierReport",
    "interpolate_weights",
    "verify_on_multiplier",
]

_VERIFY_TOL = 1e-9   # relative slack of the multiplier check for float rounding


@dataclass(frozen=True)
class InterpolationEndpoints:
    """Endpoint data: exponents, weight pairs (target u, source v), and
    the interpolation parameter."""

    p0: float
    p1: float
    u0: WeightSpec
    v0: WeightSpec
    u1: WeightSpec
    v1: WeightSpec
    theta: float

    def __post_init__(self):
        for name, p in (("p0", self.p0), ("p1", self.p1)):
            if not 1.0 < p < math.inf:
                raise DomainError(f"{name} must lie in (1, inf), got {p}")
        if not 0.0 < self.theta < 1.0:
            raise DomainError(f"theta must lie in (0, 1), got {self.theta}")


def interpolate_weights(e: InterpolationEndpoints, c0: float, c1: float):
    """The interpolated exponent, weights, and constant bound
    (p, u, v, c0^theta c1^(1-theta)) for endpoint constants c0, c1."""
    if not (0.0 < c0 < math.inf and 0.0 < c1 < math.inf):
        raise DomainError(f"endpoint constants must lie in (0, inf), got {c0}, {c1}")
    p = 1.0 / (e.theta / e.p0 + (1.0 - e.theta) / e.p1)
    e0 = p * e.theta / e.p0
    e1 = p * (1.0 - e.theta) / e.p1
    u = weight_product(weight_power(e.u0, e0), weight_power(e.u1, e1))
    v = weight_product(weight_power(e.v0, e0), weight_power(e.v1, e1))
    return p, u, v, c0 ** e.theta * c1 ** (1.0 - e.theta)


@dataclass(frozen=True)
class MultiplierReport:
    """Outcome of the multiplier verification."""

    exact_norm: float
    c_bound: float
    passed: bool


def multiplier_norm(g: SampledFunction, u: WeightSpec, v: WeightSpec,
                    p: float) -> float:
    """Exact weighted operator norm of f -> g f from L^p(v) to L^p(u):
    the nodewise supremum of |g| (u/v)^{1/p}."""
    uu = u.realize(g.x_lo, g.x_hi, g.n)
    vv = v.realize(g.x_lo, g.x_hi, g.n)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf weight: an inf or NaN norm,
        return float(np.max(np.abs(g.values) * (uu / vv) ** (1.0 / p)))    # which callers refuse


def verify_on_multiplier(g: SampledFunction, e: InterpolationEndpoints) -> MultiplierReport:
    """Check the interpolated bound on the multiplication operator
    f -> g f, with the exact endpoint norms as the endpoint constants
    (the hypothesis under which the bound is sharp enough to assert),
    up to a relative _VERIFY_TOL."""
    p, u, v, c_bound = interpolate_weights(e, multiplier_norm(g, e.u0, e.v0, e.p0),
                                           multiplier_norm(g, e.u1, e.v1, e.p1))
    norm = multiplier_norm(g, u, v, p)
    return MultiplierReport(norm, c_bound, norm <= c_bound * (1.0 + _VERIFY_TOL))
