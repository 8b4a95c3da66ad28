"""Weight catalog and estimators for one-sided weight-class constants.

The catalog covers the closed forms ``scale * |x|^alpha * exp(c x)``
(constants, powers, exponentials, and their products) plus arbitrary
sampled weights.  The closed family is stable under every operation the
theory needs: dual exponents ``w -> w^{1-p'}``, factorizations
``w1 * w2^{1-p}``, dilations ``w -> w(lambda x)``, reflections, and
power bumps ``w -> w^{1+eps}``.

Estimators compute discrete suprema over lattices of anchored intervals
(anchors spread over grid indices, interval lengths log-spaced and
snapped to whole cells), so every reported constant is a lower bound of
the true supremum.  All interval estimators share one lattice evaluator
(anchors x per-column integer cell offsets), and comparisons across
estimators reuse identical lattices, which turns the analytic identities
(duality power law, dilation invariance, reflection symmetry) into
near-bit-level test assertions.  Interval integrals are prefix
differences of running trapezoid sums, except in ``ap_general_constant``
and ``gamma_fourpoint_constant``: they sum each interval's cells with
``math.fsum``, whose correctly rounded result does not depend on where
the interval sits, so the duality law (acceptance criterion 2) and the
exact reflection tests hold to the last bit.

A search never raises on divergence: values above the configured
ceiling (or overflow to non-finite) are reported with
``finite_flag=False``, because "not in the class" is a legitimate
answer the experiments need.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import operators as _ops
from .errors import ConfigError, DomainError, GridMismatchError
from .grid import (ExponentPair, SampledFunction, cumulative_trapezoid,
                   grid_nodes, resample, trapezoid_cells)

__all__ = [
    "WeightSpec",
    "TripleSearchConfig",
    "ConstantReport",
    "BumpSearchResult",
    "ap_plus_constant",
    "ap_minus_constant",
    "ap_both_constant",
    "ap_general_constant",
    "a1_constant",
    "rh_plus_constant",
    "rh_infty_constant",
    "dual_weight",
    "factor_weight",
    "weight_product",
    "dilate",
    "reflect",
    "weight_power",
    "power_bump_search",
    "gamma_fourpoint_constant",
]

DIVERGENCE_CEILING = 1.0e6  # default cap; estimators flag rather than raise


# ---------------------------------------------------------------------------
# weight catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightSpec:
    """A positive weight, either catalog-closed or sampled.

    Closed forms are stored canonically as (scale, alpha, c) for
    ``scale * |x|^alpha * exp(c x)``; the ``form`` tag records the most
    specific catalog name for reporting.
    """

    form: str                      # constant | power | exponential | product | sampled
    params: tuple = ()
    samples: Optional[SampledFunction] = None

    def __post_init__(self):
        if self.form == "sampled":
            if self.samples is None:
                raise DomainError("sampled weight requires samples")
            v = self.samples.values
            if not self.samples.is_real or np.any(v.real <= 0):
                raise DomainError("sampled weight must be real and strictly positive")
        elif self.form not in ("constant", "power", "exponential", "product"):
            raise DomainError(f"unknown weight form {self.form!r}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))

    # -- constructors -------------------------------------------------
    @staticmethod
    def constant(c: float) -> "WeightSpec":
        if c <= 0:
            raise DomainError("constant weight must be positive")
        return WeightSpec("constant", (c,))

    @staticmethod
    def power(alpha: float) -> "WeightSpec":
        return WeightSpec("power", (alpha,))

    @staticmethod
    def exponential(c: float) -> "WeightSpec":
        return WeightSpec("exponential", (c,))

    @staticmethod
    def product(scale: float, alpha: float, c: float) -> "WeightSpec":
        if scale <= 0:
            raise DomainError("product scale must be positive")
        if alpha == 0.0 and c == 0.0:
            return WeightSpec.constant(scale)
        if scale == 1.0 and c == 0.0:
            return WeightSpec.power(alpha)
        if scale == 1.0 and alpha == 0.0:
            return WeightSpec.exponential(c)
        return WeightSpec("product", (scale, alpha, c))

    @staticmethod
    def sampled(samples: SampledFunction) -> "WeightSpec":
        return WeightSpec("sampled", (), samples)

    # -- views ---------------------------------------------------------
    def canonical(self) -> tuple:
        """(scale, alpha, c) of a closed-form weight."""
        if self.form == "constant":
            return (self.params[0], 0.0, 0.0)
        if self.form == "power":
            return (1.0, self.params[0], 0.0)
        if self.form == "exponential":
            return (1.0, 0.0, self.params[0])
        if self.form == "product":
            return self.params
        raise DomainError("sampled weight has no closed form")

    def label(self) -> str:
        if self.form == "sampled":
            return f"sampled[n={self.samples.n}]"
        return f"{self.form}({','.join(repr(p) for p in self.params)})"

    def realize(self, x_lo: float, x_hi: float, n: int) -> np.ndarray:
        """Strictly positive node values on the given grid.

        A node sitting exactly at x = 0 would make power forms vanish or
        blow up; that node is evaluated half a cell to the right, which
        keeps the integrable singularity's contribution finite and is
        symmetric under reflection.  Overflow to +inf is allowed here
        (estimators translate it into finite_flag=False); underflow to
        zero violates the positivity invariant and raises.
        """
        x = grid_nodes(x_lo, x_hi, n)
        if self.form == "sampled":
            vals = resample(self.samples, x_lo, x_hi, n).values.real.copy()
        else:
            scale, alpha, c = self.canonical()
            ax = np.abs(x)
            if alpha != 0.0:
                d = (x_hi - x_lo) / (n - 1)
                ax = np.where(ax == 0.0, d / 2.0, ax)
            with np.errstate(over="ignore", under="ignore"):
                vals = scale * ax ** alpha * np.exp(c * x)
        if np.any(np.isnan(vals)) or np.any(vals <= 0.0):
            raise DomainError(f"weight {self.label()} not strictly positive on the window")
        return vals

    def as_sampled(self, x_lo: float, x_hi: float, n: int) -> SampledFunction:
        return SampledFunction(x_lo, x_hi, n, self.realize(x_lo, x_hi, n))

    # -- serialization ---------------------------------------------------
    def to_json(self) -> dict:
        if self.form == "sampled":
            s = self.samples
            return {"form": "sampled", "x_lo": s.x_lo, "x_hi": s.x_hi,
                    "n": s.n, "values": s.values.real.tolist()}
        return {"form": self.form, "params": list(self.params)}

    @staticmethod
    def from_json(obj: dict) -> "WeightSpec":
        form = obj.get("form")
        if form == "sampled":
            sf = SampledFunction(obj["x_lo"], obj["x_hi"], obj["n"],
                                 np.asarray(obj["values"], dtype=float))
            return WeightSpec.sampled(sf)
        params = obj.get("params", [])
        if form == "constant":
            return WeightSpec.constant(*params)
        if form == "power":
            return WeightSpec.power(*params)
        if form == "exponential":
            return WeightSpec.exponential(*params)
        if form == "product":
            return WeightSpec.product(*params)
        raise ConfigError(f"weight.form: unknown tag {form!r}")


def weight_power(w: WeightSpec, e: float) -> WeightSpec:
    """The pointwise power w^e, catalog-closed for closed forms."""
    if w.form == "sampled":
        s = w.samples
        return WeightSpec.sampled(s.with_values(s.values.real ** e))
    scale, alpha, c = w.canonical()
    return WeightSpec.product(scale ** e, alpha * e, c * e)


def dual_weight(w: WeightSpec, p: float) -> WeightSpec:
    """The dual-exponent weight w^{1-p'} pairing A_p^+ with A_{p'}^-."""
    pair = ExponentPair(p)
    return weight_power(w, 1.0 - pair.p_conj)


def weight_product(w1: WeightSpec, w2: WeightSpec) -> WeightSpec:
    """The pointwise product w1 * w2, catalog-closed for closed forms; a
    sampled factor carries its grid, on which the other is realized."""
    if w1.form != "sampled" and w2.form != "sampled":
        s1, a1, c1 = w1.canonical()
        s2, a2, c2 = w2.canonical()
        return WeightSpec.product(s1 * s2, a1 + a2, c1 + c2)
    if w1.form == "sampled" and w2.form == "sampled":
        if not w1.samples.same_grid(w2.samples):
            raise GridMismatchError("sampled factors live on different grids")
        return WeightSpec.sampled(
            w1.samples.with_values(w1.samples.values.real * w2.samples.values.real))
    sf = w1.samples if w1.form == "sampled" else w2.samples
    other = w2 if w1.form == "sampled" else w1
    vals = other.realize(sf.x_lo, sf.x_hi, sf.n)
    return WeightSpec.sampled(sf.with_values(sf.values.real * vals))


def factor_weight(w1: WeightSpec, w2: WeightSpec, p: float) -> WeightSpec:
    """The product w1 * w2^{1-p} from the A_1-factorization of A_p^+."""
    ExponentPair(p)
    return weight_product(w1, weight_power(w2, 1.0 - p))


def dilate(w: WeightSpec, lam: float) -> WeightSpec:
    """The dilated weight x -> w(lambda x)."""
    if lam <= 0:
        raise DomainError("dilation factor must be positive")
    if w.form == "sampled":
        s = w.samples
        # w(lambda x) sampled at x_i/lambda carries the same values
        return WeightSpec.sampled(SampledFunction(
            s.x_lo / lam, s.x_hi / lam, s.n, s.values.copy()))
    scale, alpha, c = w.canonical()
    return WeightSpec.product(scale * lam ** alpha, alpha, c * lam)


def reflect(w: WeightSpec) -> WeightSpec:
    """The reflected weight x -> w(-x)."""
    if w.form == "sampled":
        return WeightSpec.sampled(w.samples.reflected())
    scale, alpha, c = w.canonical()
    return WeightSpec.product(scale, alpha, -c)


# ---------------------------------------------------------------------------
# search configuration and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TripleSearchConfig:
    """Interval lattice for the sup-searches.

    Anchors are spread uniformly over grid indices; interval lengths are
    log-spaced in [h_min, h_max] and snapped to whole cells.  ``n_grid``
    fixes the quadrature resolution and ``ceiling`` the divergence cap.
    """

    window: tuple
    n_anchor: int = 65
    n_h: int = 16
    h_min: float = 0.05
    h_max: float = 0.0          # 0 -> half the window span
    gamma: float = 0.25
    n_grid: int = 4096
    ceiling: float = DIVERGENCE_CEILING

    def __post_init__(self):
        lo, hi = self.window
        if not lo < hi:
            raise ConfigError(f"window: need lo < hi, got {self.window}")
        object.__setattr__(self, "window", (float(lo), float(hi)))
        if self.h_max == 0.0:
            object.__setattr__(self, "h_max", (hi - lo) / 2.0)
        if not 0 < self.h_min < self.h_max:
            raise ConfigError(f"need 0 < h_min < h_max, got {self.h_min}, {self.h_max}")
        if self.h_max > hi - lo:
            raise ConfigError("h_max exceeds the window span")
        if not 0 < self.gamma <= 0.5:
            raise ConfigError(f"gamma must lie in (0, 1/2], got {self.gamma}")
        if self.n_anchor < 2 or self.n_h < 1 or self.n_grid < 4:
            raise ConfigError("degenerate search lattice")
        if self.ceiling <= 0:
            raise ConfigError("ceiling must be positive")

    @property
    def spacing(self) -> float:
        return (self.window[1] - self.window[0]) / (self.n_grid - 1)

    def scaled(self, lam: float) -> "TripleSearchConfig":
        """The lattice for the dilated weight w(lambda x)."""
        lo, hi = self.window
        return TripleSearchConfig((lo / lam, hi / lam), self.n_anchor, self.n_h,
                                  self.h_min / lam, self.h_max / lam,
                                  self.gamma, self.n_grid, self.ceiling)

    def reflected(self) -> "TripleSearchConfig":
        lo, hi = self.window
        return TripleSearchConfig((-hi, -lo), self.n_anchor, self.n_h,
                                  self.h_min, self.h_max, self.gamma,
                                  self.n_grid, self.ceiling)

    def to_json(self) -> dict:
        return {"window": list(self.window), "n_anchor": self.n_anchor,
                "n_h": self.n_h, "h_min": self.h_min, "h_max": self.h_max,
                "gamma": self.gamma, "n_grid": self.n_grid, "ceiling": self.ceiling}

    @staticmethod
    def from_json(obj: dict) -> "TripleSearchConfig":
        try:
            return TripleSearchConfig(tuple(obj["window"]), **{
                k: obj[k] for k in
                ("n_anchor", "n_h", "h_min", "h_max", "gamma", "n_grid", "ceiling")
                if k in obj})
        except KeyError as exc:
            raise ConfigError(f"search config missing field {exc}") from exc


@dataclass(frozen=True)
class ConstantReport:
    """Result of a sup-search: the estimated constant, the witness
    configuration attaining it, and the resolution used."""

    constant: float
    witness: Optional[dict]
    resolution: TripleSearchConfig
    finite_flag: bool

    def to_json(self) -> dict:
        return {"constant": self.constant, "witness": self.witness,
                "finite_flag": self.finite_flag,
                "resolution": self.resolution.to_json()}

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


@dataclass(frozen=True)
class BumpSearchResult:
    """Outcome of the self-improvement bisection for w^{1+eps}."""

    epsilon: float
    found: bool
    constant_at_epsilon: float


# ---------------------------------------------------------------------------
# the interval lattice
# ---------------------------------------------------------------------------

def _length_cells(cfg: TripleSearchConfig) -> np.ndarray:
    """Interval lengths snapped to whole cells, ascending, deduplicated."""
    d = cfg.spacing
    if cfg.h_min < d:
        raise ConfigError(f"h_min={cfg.h_min} below grid spacing {d}")
    hs = np.geomspace(cfg.h_min, cfg.h_max, cfg.n_h)
    return np.unique(np.clip(np.rint(hs / d).astype(np.int64), 1, cfg.n_grid - 1))


def _realize_pair(w: WeightSpec, p: float, cfg: TripleSearchConfig):
    """Node values of w and of its dual power w^{1-p'}, plus the spacing."""
    lo, hi = cfg.window
    pair = ExponentPair(p)
    wv = w.realize(lo, hi, cfg.n_grid)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        sv = wv ** (1.0 - pair.p_conj)
    return wv, sv, cfg.spacing


class _Lattice:
    """Anchors x columns of anchored intervals.

    Anchors are node indices spread uniformly in index space
    (window-independent, hence exactly mirror-symmetric).  ``offsets``
    maps each named point to its integer cell offset from the anchor, one
    per column; ``ok`` marks the entries whose points all lie in the
    window and whose column is ``valid``.  Entries are enumerated by
    anchor, then by column.
    """

    def __init__(self, cfg: TripleSearchConfig, offsets: dict, valid=True):
        j = np.arange(cfg.n_anchor, dtype=np.float64)
        idx = np.rint(j * (cfg.n_grid - 1) / (cfg.n_anchor - 1)).astype(np.int64)
        self.anchors = np.unique(idx)
        self.offsets = {k: np.asarray(v, dtype=np.int64) for k, v in offsets.items()}
        self.ok = np.asarray(valid, dtype=bool)
        for name in self.offsets:
            pt = self.at(name)
            self.ok = self.ok & (pt >= 0) & (pt <= cfg.n_grid - 1)

    def at(self, name: str) -> np.ndarray:
        """Node index of the named point at every entry."""
        return self.anchors[:, None] + self.offsets[name][None, :]


def _integrals(vals: np.ndarray, d: float, lat: _Lattice, lo: str, hi: str,
               exact: bool = False) -> np.ndarray:
    """Trapezoid integral of ``vals`` from point ``lo`` to point ``hi`` at
    every entry; NaN where the entry is not ok.

    The default takes prefix differences of the running cell sums.  With
    ``exact`` the cells of each distinct interval are summed once by
    ``math.fsum``, which is correctly rounded and hence independent of
    where the interval sits.
    """
    i, j = lat.at(lo)[lat.ok], lat.at(hi)[lat.ok]
    out = np.full(lat.ok.shape, np.nan)
    if exact:
        n = len(vals)
        keys, inv = np.unique(i * n + j, return_inverse=True)
        cells = trapezoid_cells(vals, d).tolist()
        sums = [math.fsum(cells[k // n:k % n]) for k in keys.tolist()]
        out[lat.ok] = np.asarray(sums, dtype=float)[inv]
    else:
        cum = cumulative_trapezoid(vals, d)
        out[lat.ok] = cum[j] - cum[i]
    return out


def _averages(vals: np.ndarray, d: float, lat: _Lattice, lo: str, hi: str) -> np.ndarray:
    return _integrals(vals, d, lat, lo, hi) / ((lat.offsets[hi] - lat.offsets[lo]) * d)


def _witness(lat: _Lattice, cfg: TripleSearchConfig, fields: Optional[dict] = None):
    """Flat entry index -> witness dict.  ``fields`` maps each name to a
    pair (point, shift): the node at the point plus the shift's offset
    times the spacing, starting from 0 without a point and adding nothing
    without a shift.  By default every point is reported as its node."""
    fields = fields or {name: (name, None) for name in lat.offsets}
    nodes = grid_nodes(*cfg.window, cfg.n_grid)

    def build(arg):
        i, c = divmod(arg, lat.ok.shape[1])
        out = {}
        for name, (point, shift) in fields.items():
            v = float(nodes[lat.anchors[i] + lat.offsets[point][c]]) if point else 0.0
            out[name] = v + float(lat.offsets[shift][c] * cfg.spacing) if shift else v
        return out

    return build


def _gamma_lattice(cfg: TripleSearchConfig, strict: bool) -> _Lattice:
    """Points (0, m, M-m, M) of a < b <= c < d (b < c if ``strict``), with
    M the snapped lengths and m = round(gamma M) >= 1, so that
    b-a = d-c = gamma (d-a) up to snapping."""
    ks = _length_cells(cfg)
    m = np.rint(cfg.gamma * ks).astype(np.int64)
    apart = m < ks - m if strict else m <= ks - m
    return _Lattice(cfg, {"a": 0 * ks, "b": m, "c": ks - m, "d": ks}, (m >= 1) & apart)


def _report(values: np.ndarray, witnesses, cfg: TripleSearchConfig,
            admissible=True,
            at_least_one: str = "search lattice admits no interval") -> ConstantReport:
    """Deterministic argmax report: first maximum in enumeration order
    wins (enumeration is ordered by anchor, then by lengths).

    ``admissible`` marks lattice entries that fit the window; a
    non-finite value at an admissible entry is overflow evidence and
    clears finite_flag instead of raising.
    """
    flat = np.asarray(values, dtype=float).ravel()
    adm = np.broadcast_to(admissible, np.shape(values)).ravel()
    if not np.any(adm):
        raise ConfigError(at_least_one)
    usable = adm & np.isfinite(flat)
    overflowed = bool(np.any(adm & ~np.isfinite(flat)))
    if not np.any(usable):
        return ConstantReport(math.inf, None, cfg, False)
    masked = np.where(usable, flat, -math.inf)
    arg = int(np.argmax(masked))
    best = float(masked[arg])
    flag = bool((not overflowed) and best <= cfg.ceiling)
    return ConstantReport(best, witnesses(arg), cfg, flag)


# ---------------------------------------------------------------------------
# A_p-type estimators: Sawyer pairs (prefix sums), three- and four-point
# forms (fsum sums)
# ---------------------------------------------------------------------------

def _sawyer_constant(w: WeightSpec, p: float, cfg: TripleSearchConfig,
                     w_start: int) -> ConstantReport:
    """sup over anchors a and lengths h of (avg of w over the h-interval
    starting w_start * h from a) (avg of w^{1-p'} over (a, a+h))^{p-1}.

    Column 0 is the h -> 0+ limit w(a) w(a)^{(1-p')(p-1)} = 1, so the
    estimate is >= 1 (up to rounding), matching the class lower bound.
    """
    wv, sv, d = _realize_pair(w, p, cfg)
    ks = np.concatenate([[0], _length_cells(cfg)])
    lat = _Lattice(cfg, {"w0": w_start * ks, "w1": (w_start + 1) * ks,
                         "a": 0 * ks, "h": ks})
    with np.errstate(all="ignore"):
        avg_w = np.where(ks > 0, _averages(wv, d, lat, "w0", "w1"), wv[lat.anchors, None])
        avg_s = np.where(ks > 0, _averages(sv, d, lat, "a", "h"), sv[lat.anchors, None])
        vals = avg_w * avg_s ** (p - 1.0)
    witness = _witness(lat, cfg, {"a": ("a", None), "h": (None, "h")})
    return _report(vals, witness, cfg, lat.ok)


def ap_plus_constant(w: WeightSpec, p: float, cfg: TripleSearchConfig) -> ConstantReport:
    """Sawyer A_p^+ constant estimate:

        sup_{a,h} (1/h int_{a-h}^{a} w) (1/h int_{a}^{a+h} w^{1-p'})^{p-1}

    over the configured (anchor, length) lattice, together with the
    h -> 0+ limit value w(a) w(a)^{-1} = 1 at every anchor.  Including
    that limit keeps the estimate >= 1, matching the class lower bound.
    """
    return _sawyer_constant(w, p, cfg, -1)


def ap_minus_constant(w: WeightSpec, p: float, cfg: TripleSearchConfig) -> ConstantReport:
    """Sawyer A_p^- constant estimate; the exact mirror image of
    ap_plus_constant, computed as such."""
    rep = ap_plus_constant(reflect(w), p, cfg.reflected())
    wit = None
    if rep.witness is not None:
        wit = {"a": -rep.witness["a"], "h": rep.witness["h"]}
    return ConstantReport(rep.constant, wit, cfg, rep.finite_flag)


def ap_both_constant(w: WeightSpec, p: float, cfg: TripleSearchConfig) -> ConstantReport:
    """Both-sided Muckenhoupt A_p estimate over the same kind of lattice:
    intervals I = (a, a+h), value (avg_I w)(avg_I w^{1-p'})^{p-1}."""
    return _sawyer_constant(w, p, cfg, 0)


def ap_general_constant(w: WeightSpec, p: float, side: str,
                        cfg: TripleSearchConfig) -> ConstantReport:
    """General three-point A_p^{+/-} estimate

        plus:  sup_{a<b<c} (c-a)^{-p} int_a^b w (int_b^c w^{1-p'})^{p-1}
        minus: sup_{a<b<c} (c-a)^{-p} int_b^c w (int_a^b w^{1-p'})^{p-1}

    Triples are anchored at the middle point b with both lengths drawn
    from the same snapped set, so the two sides (and the dual-exponent
    estimator) enumerate identical triples.
    """
    if side not in ("plus", "minus"):
        raise ConfigError(f"side must be plus or minus, got {side!r}")
    wv, sv, d = _realize_pair(w, p, cfg)
    ks = _length_cells(cfg)
    k1, k2 = np.repeat(ks, len(ks)), np.tile(ks, len(ks))
    lat = _Lattice(cfg, {"a": -k1, "b": 0 * k1, "c": k2})
    w_at, s_at = (("a", "b"), ("b", "c")) if side == "plus" else (("b", "c"), ("a", "b"))
    with np.errstate(all="ignore"):
        vals = (_integrals(wv, d, lat, *w_at, exact=True)
                * _integrals(sv, d, lat, *s_at, exact=True) ** (p - 1.0)
                / ((k1 + k2) * d) ** p)
    witness = _witness(lat, cfg, {"a": ("b", "a"), "b": ("b", None), "c": ("b", "c")})
    return _report(vals, witness, cfg, lat.ok)


def gamma_fourpoint_constant(w: WeightSpec, p: float, cfg: TripleSearchConfig) -> ConstantReport:
    """Gamma-constrained four-point estimate

        sup (b-a)^{-p} int_a^b w (int_c^d w^{1-p'})^{p-1}

    over a < b < c < d with b-a = d-c = gamma (d-a)."""
    if not 0.0 < cfg.gamma < 0.5:
        raise ConfigError("this form needs gamma in (0, 1/2)")
    wv, sv, d = _realize_pair(w, p, cfg)
    lat = _gamma_lattice(cfg, strict=True)
    with np.errstate(all="ignore"):
        vals = (_integrals(wv, d, lat, "a", "b", exact=True)
                * _integrals(sv, d, lat, "c", "d", exact=True) ** (p - 1.0)
                / (lat.offsets["b"] * d) ** p)
    return _report(vals, _witness(lat, cfg), cfg, lat.ok,
                   "gamma lattice admits no 4-point configuration")


# ---------------------------------------------------------------------------
# A_1 and reverse Holder
# ---------------------------------------------------------------------------

def a1_constant(w: WeightSpec, side: str, cfg: TripleSearchConfig) -> ConstantReport:
    """A_1^{+/-} constant: sup_x M^{-}w(x)/w(x) (plus side) or
    M^{+}w(x)/w(x) (minus side), maximal functions taken on the grid."""
    if side not in ("plus", "minus"):
        raise ConfigError(f"side must be plus or minus, got {side!r}")
    lo, hi = cfg.window
    wf = w.as_sampled(lo, hi, cfg.n_grid)
    m = _ops.m_minus(wf) if side == "plus" else _ops.m_plus(wf)
    return _report(m.values.real / wf.values.real,
                   lambda arg: {"x": float(wf.nodes()[arg])}, cfg)


def rh_infty_constant(w: WeightSpec, cfg: TripleSearchConfig) -> ConstantReport:
    """RH_infty^+ constant: sup_x w(x)/m^{+}w(x) with the one-sided
    minimal operator m^{+}."""
    lo, hi = cfg.window
    wf = w.as_sampled(lo, hi, cfg.n_grid)
    m = _ops.m_plus_min(wf).values.real
    if np.any(m == 0.0):
        raise DomainError("m^+ w vanishes at a node")
    return _report(wf.values.real / m, lambda arg: {"x": float(wf.nodes()[arg])}, cfg)


# variant -> cell offsets of the points a, b, c[, d] in units of the length
_RH_VARIANT_CELLS = {1: (0, 1), 2: (0, 2, 3), 3: (0, 2, 3, 4), 4: (0, 1, 2)}


def _local_maximal(vals: np.ndarray, d: float, lat: _Lattice) -> np.ndarray:
    """M^-(w chi_(a,b))(b) at every ok entry: the largest average of
    ``vals`` over (b - j, b) for j = 1 .. b - a cells."""
    cum = cumulative_trapezoid(vals, d)
    b, k = lat.at("b"), lat.offsets["b"]
    out = np.full(lat.ok.shape, np.nan)
    for i, c in zip(*np.nonzero(lat.ok)):
        j = np.arange(1, k[c] + 1)
        out[i, c] = np.max((cum[b[i, c]] - cum[b[i, c] - j]) / (j * d))
    return out


def rh_plus_constant(w: WeightSpec, r: float, variant: int,
                     cfg: TripleSearchConfig) -> ConstantReport:
    """One-sided reverse Holder RH_r^+ constant, in any of the five
    equivalent forms.  ``variant`` selects the interval pattern:

      1: int_a^b w^r <= C (M(w chi_(a,b))(b))^{r-1} int_a^b w
      2: avg_(a,b) w^r <= C (avg_(b,c) w)^r,  b-a = 2(c-b)
      3: avg_(a,b) w^r <= C (avg_(c,d) w)^r,  b-a = d-b = 2(d-c)
      4: avg_(a,b) w^r <= C (avg_(b,c) w)^r,  b-a = c-b
      5: avg_(a,b) w^r <= C (avg_(c,d) w)^r,  b-a = d-c = gamma (d-a)

    The returned constant is the max over the lattice of LHS/RHS; the
    equivalence constants of the five forms need not agree, only their
    finiteness does.
    """
    if not 1.0 < r < math.inf:
        raise DomainError(f"need 1 < r < inf, got {r}")
    if variant not in (1, 2, 3, 4, 5):
        raise ConfigError(f"variant must be 1..5, got {variant}")
    lo, hi = cfg.window
    wv = w.realize(lo, hi, cfg.n_grid)
    d = cfg.spacing
    if variant == 5:
        lat = _gamma_lattice(cfg, strict=False)
    else:
        ks = _length_cells(cfg)
        lat = _Lattice(cfg, {name: c * ks for name, c in
                             zip("abcd", _RH_VARIANT_CELLS[variant])})
    rhs_at = list(lat.offsets)[-2:]       # (b, c) or (c, d)
    with np.errstate(all="ignore"):
        wr = wv ** r
        if variant == 1:
            vals = _integrals(wr, d, lat, "a", "b") / (
                _local_maximal(wv, d, lat) ** (r - 1.0) * _integrals(wv, d, lat, "a", "b"))
        else:
            vals = _averages(wr, d, lat, "a", "b") / _averages(wv, d, lat, *rhs_at) ** r
    return _report(vals, _witness(lat, cfg), cfg, lat.ok,
                   "variant lattice admits no configuration")


# ---------------------------------------------------------------------------
# power bump search
# ---------------------------------------------------------------------------

def power_bump_search(w: WeightSpec, p: float, cfg: TripleSearchConfig,
                      ceiling: float, tol: float = 1e-3) -> BumpSearchResult:
    """Largest eps in (0, 1] with ap_plus_constant(w^{1+eps}) <= ceiling.

    Bisection to ``tol``; a catalog A_p^+ weight always admits some
    eps > 0 (one-sided weights self-improve), so a not-found outcome signals
    either non-membership at this resolution or a too-tight ceiling.
    """
    base = ap_plus_constant(w, p, cfg)
    if not base.finite_flag:
        raise DomainError("power bump requires a finite base A_p^+ estimate")

    def constant_at(eps: float) -> tuple:
        rep = ap_plus_constant(weight_power(w, 1.0 + eps), p, cfg)
        return rep.finite_flag and rep.constant <= ceiling, rep.constant

    ok_hi, c_hi = constant_at(1.0)
    if ok_hi:
        return BumpSearchResult(1.0, True, c_hi)
    ok_lo, c_lo = constant_at(tol)
    if not ok_lo:
        return BumpSearchResult(0.0, False, c_lo)
    lo_e, hi_e, c_at = tol, 1.0, c_lo
    while hi_e - lo_e > tol:
        mid = (lo_e + hi_e) / 2.0
        ok, c = constant_at(mid)
        if ok:
            lo_e, c_at = mid, c
        else:
            hi_e = mid
    return BumpSearchResult(lo_e, True, c_at)
