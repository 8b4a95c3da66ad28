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

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .grid import SampledFunction
from .weights import WeightSpec, weight_power, weight_product

__all__ = [
    "InterpolationEndpoints",
    "MultiplierReport",
    "interpolate_weights",
    "verify_on_multiplier",
    "weighted_decay_combination",
]


@dataclass(frozen=True)
class InterpolationEndpoints:
    """Endpoint data: exponents, weight pairs (target u, source v),
    endpoint operator constants, and the interpolation parameter."""

    p0: float
    p1: float
    u0: WeightSpec
    v0: WeightSpec
    u1: WeightSpec
    v1: WeightSpec
    c0: float
    c1: float
    theta: float

    def __post_init__(self):
        for name, p in (("p0", self.p0), ("p1", self.p1)):
            if not 1.0 < p < math.inf:
                raise DomainError(f"{name} must lie in (1, inf), got {p}")
        if not 0.0 < self.theta < 1.0:
            raise DomainError(f"theta must lie in (0, 1), got {self.theta}")
        if self.c0 <= 0 or self.c1 <= 0:
            raise DomainError("endpoint constants must be positive")


def interpolate_weights(e: InterpolationEndpoints):
    """The interpolated exponent, weights, and constant bound
    (p, u, v, c_bound)."""
    p = 1.0 / (e.theta / e.p0 + (1.0 - e.theta) / e.p1)
    e0 = p * e.theta / e.p0
    e1 = p * (1.0 - e.theta) / e.p1
    u = weight_product(weight_power(e.u0, e0), weight_power(e.u1, e1))
    v = weight_product(weight_power(e.v0, e0), weight_power(e.v1, e1))
    c_bound = e.c0 ** e.theta * e.c1 ** (1.0 - e.theta)
    return p, u, v, c_bound


@dataclass(frozen=True)
class MultiplierReport:
    """Outcome of the multiplier verification."""

    exact_norm: float
    c_bound: float
    passed: bool
    p: float

    def to_json_str(self) -> str:
        return json.dumps({"exact_norm": self.exact_norm, "c_bound": self.c_bound,
                           "pass": self.passed, "p": self.p}, sort_keys=True)


def multiplier_norm(g: SampledFunction, u: WeightSpec, v: WeightSpec,
                    p: float) -> float:
    """Exact weighted operator norm of f -> g f from L^p(v) to L^p(u):
    the nodewise supremum of |g| (u/v)^{1/p}."""
    uu = u.realize(g.x_lo, g.x_hi, g.n)
    vv = v.realize(g.x_lo, g.x_hi, g.n)
    return float(np.max(np.abs(g.values) * (uu / vv) ** (1.0 / p)))


def verify_on_multiplier(g: SampledFunction, e: InterpolationEndpoints,
                         tol: float = 1e-9) -> MultiplierReport:
    """Check the interpolated bound on the multiplication operator
    f -> g f, with endpoint constants replaced by the exact endpoint
    norms (the hypothesis under which the bound is sharp enough to
    assert)."""
    c0 = multiplier_norm(g, e.u0, e.v0, e.p0)
    c1 = multiplier_norm(g, e.u1, e.v1, e.p1)
    exact = InterpolationEndpoints(e.p0, e.p1, e.u0, e.v0, e.u1, e.v1,
                                   c0, c1, e.theta)
    p, u, v, c_bound = interpolate_weights(exact)
    norm = multiplier_norm(g, u, v, p)
    return MultiplierReport(norm, c_bound, norm <= c_bound * (1.0 + tol), p)


def weighted_decay_combination(unweighted_norms, weighted_norms, theta: float):
    """Interpolated per-piece bounds c_j = a_j^theta b_j^{1-theta}: the
    quantitative skeleton turning unweighted geometric decay plus a
    weighted uniform bound into weighted geometric decay."""
    a = np.asarray(unweighted_norms, dtype=float)
    b = np.asarray(weighted_norms, dtype=float)
    if a.shape != b.shape:
        raise ConfigError("norm sequences must have equal length")
    if np.any(a <= 0) or np.any(b <= 0):
        raise ConfigError("norm sequences must be positive")
    if not 0.0 < theta < 1.0:
        raise ConfigError("theta must lie in (0, 1)")
    return a ** theta * b ** (1.0 - theta)
