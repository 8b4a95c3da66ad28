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
differences of running trapezoid sums, formed block by block and kept
only at the lattice points, except in ``ap_general_constant`` and
``gamma_fourpoint_constant``: there error-free extraction splits the
cells into levels whose running sums are exact, and each interval's sum
is rounded once, correctly.  That result does not depend on where the
interval sits, so the duality law (acceptance criterion 2) and the exact
reflection tests hold to the last bit.  Both paths, ``_lattice_integrals``
and ``_exact_integrals``, take (w, cfg, lat, intervals): the weight, the
search config, the lattice and a list of (exponent, from point, to point).

A search never raises on divergence: values above the configured
ceiling (or overflow to non-finite) are reported with
``finite_flag=False``, because "not in the class" is a legitimate
answer the experiments need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import operators as _ops
from .errors import ConfigError, DomainError, GridMismatchError, read, read_fields, read_object
from .grid import (SampledFunction, check_working_bytes, cumulative_trapezoid, dual_exponent,
                   grid_node, trapezoid_cells)

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
    "weight_product",
    "dilate",
    "reflect",
    "weight_power",
    "power_bump_search",
    "gamma_fourpoint_constant",
]

DIVERGENCE_CEILING = 1.0e6  # default cap; estimators flag rather than raise
_BUMP_TOL = 1e-3            # width at which power_bump_search stops bisecting
_BLOCK_NODES = 2 ** 14      # grid nodes realized and summed at a time by _lattice_integrals


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
            if v.dtype != np.float64 or not np.all(v > 0.0):
                raise DomainError("sampled weight must be real and strictly positive")
        elif self.form not in ("constant", "power", "exponential", "product"):
            raise DomainError(f"unknown weight form {self.form!r}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if not all(map(math.isfinite, self.params)):
            raise DomainError(f"{self.form} weight params must be finite, got {list(self.params)}")

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
        return next(self._node_blocks(x_lo, x_hi, n, n))

    def _node_blocks(self, x_lo: float, x_hi: float, n: int, size: int):
        """``realize``'s node values ``size`` at a time, by its operations (so its bits)."""
        if self.form == "sampled":
            s = self.samples
            s.check_covers(x_lo, x_hi)
            x_old = s.nodes()       # np.interp gives a sample at its own node as it is
        for start in range(0, n, size):
            x = np.arange(start, min(start + size, n), dtype=np.float64)   # nodes, by grid_node
            if self.form == "sampled":
                vals = np.interp(grid_node(x_lo, x_hi, n, x), x_old, s.values)
            else:
                # in place; 1.0 * and * exp(0 x) are exact identities, so skipped
                scale, alpha, c = self.canonical()
                vals = np.abs(grid_node(x_lo, x_hi, n, x), out=None if c else x)
                if alpha != 0.0:
                    vals[vals == 0.0] = (x_hi - x_lo) / (n - 1) / 2.0
                # inf x 0 where the power overflows and the exponential
                # underflows is NaN, which the check below turns into DomainError
                with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                    vals **= alpha
                    if scale != 1.0:
                        vals *= scale
                    if c != 0.0:
                        x *= c
                        vals *= np.exp(x, out=x)
            if not np.all(vals > 0.0):          # NaN fails the comparison too
                raise DomainError(f"weight {self.label()} not strictly positive on the window")
            yield vals

    # -- serialization ---------------------------------------------------
    def to_json(self) -> dict:
        if self.form == "sampled":
            s = self.samples
            return {"form": "sampled", "x_lo": s.x_lo, "x_hi": s.x_hi,
                    "n": s.n, "values": s.values.tolist()}
        return {"form": self.form, "params": list(self.params)}

    @staticmethod
    def from_json(obj: dict, path: str = "weight") -> "WeightSpec":
        form = read(obj, "form", str, path=path)
        if form == "sampled":
            _, *grid, values = read_object(obj, {"form": str, "x_lo": float, "x_hi": float,
                                                 "n": int, "values": [float]}, path)
            return WeightSpec.sampled(SampledFunction(*grid, values))
        arity = {"constant": 1, "power": 1, "exponential": 1, "product": 3}.get(form)
        if arity is None:
            raise ConfigError(f"{path}.form: unknown tag {form!r}")
        _, params = read_object(obj, {"form": str, "params": [float]}, path)
        if len(params) != arity:
            raise ConfigError(f"{path}.params: {form} takes {arity}, got {len(params)}")
        return getattr(WeightSpec, form)(*params)


def weight_power(w: WeightSpec, e: float) -> WeightSpec:
    """The pointwise power w^e, catalog-closed for closed forms."""
    if w.form == "sampled":
        s = w.samples
        with np.errstate(over="ignore"):    # a power past the float range is inf, which is refused
            vals = s.values ** e
        try:
            return WeightSpec.sampled(s.with_values(vals))
        except DomainError as exc:
            raise DomainError(f"sampled weight to the power {e!r}: {exc}") from None
    scale, alpha, c = w.canonical()
    with np.errstate(over="ignore"):    # a scale past the float range is inf, which is refused
        return WeightSpec.product(np.float64(scale) ** e, alpha * e, c * e)


def dual_weight(w: WeightSpec, p: float) -> WeightSpec:
    """The dual-exponent weight w^{1-p'} pairing A_p^+ with A_{p'}^-."""
    return weight_power(w, dual_exponent(p))


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
        return WeightSpec.sampled(w1.samples.with_values(w1.samples.values * w2.samples.values))
    sf = w1.samples if w1.form == "sampled" else w2.samples
    other = w2 if w1.form == "sampled" else w1
    vals = other.realize(sf.x_lo, sf.x_hi, sf.n)
    return WeightSpec.sampled(sf.with_values(sf.values * vals))


def dilate(w: WeightSpec, lam: float) -> WeightSpec:
    """The dilated weight x -> w(lambda x)."""
    if lam <= 0:
        raise DomainError("dilation factor must be positive")
    if w.form == "sampled":
        s = w.samples
        # w(lambda x) sampled at x_i/lambda carries the same values
        return WeightSpec.sampled(SampledFunction(s.x_lo / lam, s.x_hi / lam, s.n, s.values))
    scale, alpha, c = w.canonical()
    with np.errstate(over="ignore"):    # as in weight_power
        return WeightSpec.product(scale * np.float64(lam) ** alpha, alpha, c * lam)


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
        if not -math.inf < lo < hi < math.inf:
            raise ConfigError(f"window: need finite lo < hi, got {self.window}")
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
        check_working_bytes(self.working_bytes(), f"the search (n_grid={self.n_grid}, "
                            f"{self.n_anchor} anchors x {self.n_h ** 2} columns)")

    def working_bytes(self) -> int:
        """Estimated bytes a search holds at once: about eight float64
        arrays over the grid (node values, dual power, cells, running
        sums; the Sawyer and RH variant 2-5 sums hold a few blocks) and ten
        over the largest lattice, the three-point form's anchors x n_h^2 columns."""
        return 8 * (8 * self.n_grid + 10 * self.n_anchor * self.n_h ** 2)

    @property
    def spacing(self) -> float:
        return (self.window[1] - self.window[0]) / (self.n_grid - 1)

    def scaled(self, lam: float) -> "TripleSearchConfig":
        """The lattice for the dilated weight w(lambda x)."""
        lo, hi = self.window
        return replace(self, window=(lo / lam, hi / lam), h_min=self.h_min / lam,
                       h_max=self.h_max / lam)

    def reflected(self) -> "TripleSearchConfig":
        lo, hi = self.window
        return replace(self, window=(-hi, -lo))

    @staticmethod
    def from_json(obj: dict, path: str = "search") -> "TripleSearchConfig":
        return read_fields(TripleSearchConfig, obj, {
            "window": (float, float), "n_anchor": int, "n_h": int, "h_min": float,
            "h_max": float, "gamma": float, "n_grid": int, "ceiling": float}, path)


@dataclass(frozen=True)
class ConstantReport:
    """Result of a sup-search: the estimated constant, the witness
    configuration attaining it, and the resolution used."""

    constant: float
    witness: Optional[dict]
    resolution: TripleSearchConfig
    finite_flag: bool


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


def _exact_integrals(w: WeightSpec, cfg: TripleSearchConfig, lat: _Lattice, intervals):
    """For each (e, lo, hi) in ``intervals``: the correctly rounded trapezoid
    integral of w^e from point lo to hi at every entry (NaN where not ok),
    ``_exact_sums`` once per distinct interval, so it does not depend on
    where the interval sits."""
    wv, n = w.realize(*cfg.window, cfg.n_grid), cfg.n_grid
    out = np.full((len(intervals),) + lat.ok.shape, np.nan)
    with np.errstate(all="ignore"):
        for row, (e, lo, hi) in zip(out, intervals):
            # no names for the index arrays: they would outlive their interval
            keys = lat.at(lo)[lat.ok] * n + lat.at(hi)[lat.ok]
            keys, inv = np.unique(keys, return_inverse=True)
            cells = trapezoid_cells(wv if e == 1.0 else wv ** e, cfg.spacing)
            row[lat.ok] = _exact_sums(cells, keys // n, keys % n)[inv]
    return out


def _exact_sums(cells: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Correctly rounded sum of the nonnegative ``cells[s:e]`` for every
    pair (s, e) with s <= e; +inf where the sum passes the float range or
    the interval holds a non-finite cell.

    Error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31,
    2008) splits the cells into levels: hi = (sigma + r) - sigma, with sigma
    = 2^e > 2^(bitlen(n) + 1) max|r|, has exact running sums, and r - hi is
    exact, the next level's r.  Read at the interval ends, they give each
    interval its level sums exactly; carrying each level into the one above
    leaves a nonoverlapping expansion, rounded once as math.fsum rounds its
    partials (half-even).  Where sigma would overflow a level works at 2^-s,
    and an interval rounds at the scale of its top nonzero level.
    """
    finite = np.isfinite(cells)
    r = np.where(finite, cells, 0.0)
    h = np.zeros(len(cells) + 1)      # h[1:] takes a level's hi, then h its running sums
    b = len(cells).bit_length() + 1
    sums = []                          # (e, s, the intervals' level sums, scaled by 2^-s)
    while (top := max(r.max(initial=0.0), -r.min(initial=0.0))) > 0.0:
        e = math.frexp(top)[1] + b
        s = max(0, e - 1023)
        sigma, hi = 2.0 ** (e - s), np.ldexp(r, -s, out=h[1:])
        hi += sigma
        hi -= sigma
        if s:   # only cells that extract nothing lose bits at 2^-s; they stay whole in r
            r = np.where(hi == 0.0, r, np.ldexp(np.ldexp(r, -s) - hi, s))
        else:
            r -= hi
        np.cumsum(h, out=h)
        sums.append((e, s, h[ends] - h[starts]))
    k = len(starts)
    for (e, s, up), (_, s_low, low) in zip(sums[-2::-1], sums[:0:-1]):   # bottom up
        sigma = 3.0 * 2.0 ** (e - 2 - s)     # 1.5 sigma: the carry is a multiple of 2^(e-53)
        carry = np.ldexp(low, s_low - s) + sigma - sigma
        low -= np.ldexp(carry, s - s_low)    # |low| <= 2^(e-54) now
        up += carry
    t, sign, below = np.zeros(k, dtype=np.int64), np.zeros(k), []
    for _, s, v in reversed(sums):
        below.append(sign)                   # sign of the expansion below this level
        t = np.where(v != 0.0, s, t)
        sign = np.where(v != 0.0, np.sign(v), sign)
    hi, lo, tail = np.zeros(k), np.zeros(k), np.zeros(k)
    for (_, s, v), under in zip(sums, reversed(below)):
        y = np.ldexp(v, s - t)
        x, hi = hi, np.where(lo == 0.0, hi + y, hi)
        tail = np.where(lo == 0.0, under, tail)
        lo = np.where(lo == 0.0, y - (hi - x), lo)
    y = 2.0 * lo                             # a half-ulp lo goes the tail's way
    x = hi + y
    hi = np.where((lo * tail > 0.0) & (x - hi == y), x, hi)
    with np.errstate(over="ignore"):
        out = np.ldexp(hi, t)
    bad = np.flatnonzero(~finite)
    out[np.searchsorted(bad, ends) > np.searchsorted(bad, starts)] = math.inf
    return out


def _lattice_integrals(w: WeightSpec, cfg: TripleSearchConfig, lat: _Lattice, intervals):
    """For each (e, lo, hi) in ``intervals``: w^e at the anchors and its integral
    from point lo to hi at every entry (NaN where not ok), summed _BLOCK_NODES
    nodes at a time in one whole-grid cumsum's order (so its bits), kept at the points."""
    k, n, d, size = len(intervals), cfg.n_grid, cfg.spacing, _BLOCK_NODES
    pt = {name: lat.at(name)[lat.ok] for _, *ends in intervals for name in ends}
    at = np.concatenate([pt[name] for _, *ends in intervals for name in ends]).reshape(k, -1)
    anchors, runs = lat.anchors, [[0, len(pts)] for pts in (lat.anchors, *at)]
    if n > size:    # block b reads pts[run[b]:run[b + 1]] of the sorted points, as offsets
        order = np.argsort(at, axis=1)
        at = np.take_along_axis(at, order, 1)
        runs = [[0, *np.searchsorted(pts, range(size, n, size)).tolist(), len(pts)]
                for pts in (anchors, *at)]
        anchors, at = anchors % size, at % size
    vals, sums, prev, carry = np.empty((k, len(anchors))), np.empty(at.shape), [0.0] * k, [0.0] * k
    with np.errstate(all="ignore"):
        for b, block in enumerate(w._node_blocks(*cfg.window, n, size)):
            a0, a1 = runs[0][b:b + 2]
            for q, (e, _, _) in enumerate(intervals):
                v = block if e == 1.0 else block ** e
                cum = trapezoid_cells(np.concatenate(([prev[q]], v)), d)  # cells into each node
                cum[0] = cum[0] + carry[q] if b else 0.0
                np.cumsum(cum, out=cum)
                prev[q], carry[q] = v[-1], cum[-1]
                p0, p1 = runs[q + 1][b:b + 2]
                vals[q, a0:a1], sums[q, p0:p1] = v[anchors[a0:a1]], cum[at[q, p0:p1]]
        if n > size:
            np.put_along_axis(sums, order, sums.copy(), 1)
        out, m = np.full((k,) + lat.ok.shape, np.nan), at.shape[1] // 2
        for row, s in zip(out, sums):
            row[lat.ok] = s[m:] - s[:m]
    return vals, out


def _witness(lat: _Lattice, cfg: TripleSearchConfig, fields: Optional[dict] = None):
    """Flat entry index -> witness dict.  ``fields`` maps each name to a
    pair (point, shift): the node at the point plus the shift's offset
    times the spacing, starting from 0 without a point and adding nothing
    without a shift.  By default every point is reported as its node."""
    fields = fields or {name: (name, None) for name in lat.offsets}

    def build(arg):
        i, c = divmod(arg, lat.ok.shape[1])
        out = {}
        for name, (point, shift) in fields.items():
            v = grid_node(*cfg.window, cfg.n_grid,
                          int(lat.anchors[i] + lat.offsets[point][c])) if point else 0.0
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
# forms (exact sums)
# ---------------------------------------------------------------------------

def _sawyer_constant(w: WeightSpec, p: float, cfg: TripleSearchConfig,
                     w_start: int) -> ConstantReport:
    """sup over anchors a and lengths h of (avg of w over the h-interval
    starting w_start * h from a) (avg of w^{1-p'} over (a, a+h))^{p-1}.

    Column 0 is the h -> 0+ limit w(a) w(a)^{(1-p')(p-1)} = 1, so the
    estimate is >= 1 (up to rounding), matching the class lower bound.
    """
    dual = dual_exponent(p)
    ks = np.concatenate([[0], _length_cells(cfg)])
    lat = _Lattice(cfg, {"w0": w_start * ks, "w1": (w_start + 1) * ks,
                         "a": 0 * ks, "h": ks})
    (wv, sv), (iw, is_) = _lattice_integrals(w, cfg, lat, [(1.0, "w0", "w1"), (dual, "a", "h")])
    with np.errstate(all="ignore"):
        avg_w = np.where(ks > 0, iw / (ks * cfg.spacing), wv[:, None])
        avg_s = np.where(ks > 0, is_ / (ks * cfg.spacing), sv[:, None])
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
    dual = dual_exponent(p)
    ks = _length_cells(cfg)
    k1, k2 = np.repeat(ks, len(ks)), np.tile(ks, len(ks))
    lat = _Lattice(cfg, {"a": -k1, "b": 0 * k1, "c": k2})
    w_at, s_at = (("a", "b"), ("b", "c")) if side == "plus" else (("b", "c"), ("a", "b"))
    iw, is_ = _exact_integrals(w, cfg, lat, [(1.0, *w_at), (dual, *s_at)])
    with np.errstate(all="ignore"):
        vals = iw * is_ ** (p - 1.0) / ((k1 + k2) * cfg.spacing) ** p
    witness = _witness(lat, cfg, {"a": ("b", "a"), "b": ("b", None), "c": ("b", "c")})
    return _report(vals, witness, cfg, lat.ok)


def gamma_fourpoint_constant(w: WeightSpec, p: float, cfg: TripleSearchConfig) -> ConstantReport:
    """Gamma-constrained four-point estimate

        sup (b-a)^{-p} int_a^b w (int_c^d w^{1-p'})^{p-1}

    over a < b < c < d with b-a = d-c = gamma (d-a)."""
    if not 0.0 < cfg.gamma < 0.5:
        raise ConfigError("this form needs gamma in (0, 1/2)")
    dual = dual_exponent(p)
    lat = _gamma_lattice(cfg, strict=True)
    iw, is_ = _exact_integrals(w, cfg, lat, [(1.0, "a", "b"), (dual, "c", "d")])
    with np.errstate(all="ignore"):
        vals = iw * is_ ** (p - 1.0) / (lat.offsets["b"] * cfg.spacing) ** p
    return _report(vals, _witness(lat, cfg), cfg, lat.ok,
                   "gamma lattice admits no 4-point configuration")


# ---------------------------------------------------------------------------
# A_1 and reverse Holder
# ---------------------------------------------------------------------------

def _pointwise_constant(w: WeightSpec, cfg: TripleSearchConfig, ratio) -> ConstantReport:
    """sup over the grid nodes of ``ratio(wv, spacing)``; a weight that
    overflows on the window is not in the class (finite_flag=False, no witness)."""
    lo, hi = cfg.window
    wv = w.realize(lo, hi, cfg.n_grid)
    if not np.all(np.isfinite(wv)):
        return ConstantReport(math.inf, None, cfg, False)
    return _report(ratio(wv, cfg.spacing),
                   lambda arg: {"x": grid_node(lo, hi, cfg.n_grid, int(arg))}, cfg)


def a1_constant(w: WeightSpec, side: str, cfg: TripleSearchConfig) -> ConstantReport:
    """A_1^{+/-} constant: sup_x M^{-}w(x)/w(x) (plus side) or
    M^{+}w(x)/w(x) (minus side), maximal functions taken on the grid."""
    if side not in ("plus", "minus"):
        raise ConfigError(f"side must be plus or minus, got {side!r}")
    maximal = (_ops.backward_extremal_averages if side == "plus"
               else _ops.forward_extremal_averages)
    return _pointwise_constant(w, cfg, lambda wv, d: maximal(wv, d) / wv)


def rh_infty_constant(w: WeightSpec, cfg: TripleSearchConfig) -> ConstantReport:
    """RH_infty^+ constant: sup_x w(x)/m^{+}w(x) with the one-sided
    minimal operator m^{+}."""
    def ratio(wv, d):
        m = _ops.forward_extremal_averages(wv, d, minimum=True)
        if np.any(m == 0.0):
            raise DomainError("m^+ w vanishes at a node")
        return wv / m
    return _pointwise_constant(w, cfg, ratio)


# variant -> cell offsets of the points a, b, c[, d] in units of the length
_RH_VARIANT_CELLS = {1: (0, 1), 2: (0, 2, 3), 3: (0, 2, 3, 4), 4: (0, 1, 2)}


def _local_maximal(vals: np.ndarray, d: float, lat: _Lattice) -> np.ndarray:
    """M^-(w chi_(a,b))(b) at every ok entry: the largest average of
    ``vals`` over (b - j, b) for j = 1 .. b - a cells, taken per column
    for blocks of anchors that hold at most about n_grid averages."""
    cum = cumulative_trapezoid(vals, d)
    b, k = lat.at("b"), lat.offsets["b"]
    out = np.full(lat.ok.shape, np.nan)
    for c, kc in enumerate(k.tolist()):
        rows, j, step = np.flatnonzero(lat.ok[:, c]), np.arange(1, kc + 1), len(cum) // kc
        back = np.lib.stride_tricks.sliding_window_view(cum[::-1], kc)  # cum[b - j] by j
        for i in (rows[r0:r0 + step] for r0 in range(0, len(rows), step)):
            bi = b[i, c]
            out[i, c] = np.max((cum[bi, None] - back[len(cum) - bi]) / (j * d), axis=1)
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
    if variant == 5:
        lat = _gamma_lattice(cfg, strict=False)
    else:
        ks = _length_cells(cfg)
        lat = _Lattice(cfg, {name: c * ks for name, c in
                             zip("abcd", _RH_VARIANT_CELLS[variant])})
    rhs = list(lat.offsets)[-2:]       # (a, b), (b, c) or (c, d)
    _, (ir, iw) = _lattice_integrals(w, cfg, lat, [(r, "a", "b"), (1.0, *rhs)])
    with np.errstate(all="ignore"):
        if variant == 1:
            wv = w.realize(*cfg.window, cfg.n_grid)     # the local maximal's whole grid
            vals = ir / (_local_maximal(wv, cfg.spacing, lat) ** (r - 1.0) * iw)
        else:
            lr, lw = ((lat.offsets[hi] - lat.offsets[lo]) * cfg.spacing for lo, hi in ("ab", rhs))
            vals = ir / lr / (iw / lw) ** r
    return _report(vals, _witness(lat, cfg), cfg, lat.ok,
                   "variant lattice admits no configuration")


# ---------------------------------------------------------------------------
# power bump search
# ---------------------------------------------------------------------------

def power_bump_search(w: WeightSpec, p: float, cfg: TripleSearchConfig,
                      ceiling: float) -> BumpSearchResult:
    """Largest eps in (0, 1] with ap_plus_constant(w^{1+eps}) <= ceiling.

    Bisection to _BUMP_TOL; a catalog A_p^+ weight always admits some
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
    ok_lo, c_lo = constant_at(_BUMP_TOL)
    if not ok_lo:
        return BumpSearchResult(0.0, False, c_lo)
    lo_e, hi_e, c_at = _BUMP_TOL, 1.0, c_lo
    while hi_e - lo_e > _BUMP_TOL:
        mid = (lo_e + hi_e) / 2.0
        ok, c = constant_at(mid)
        if ok:
            lo_e, c_at = mid, c
        else:
            hi_e = mid
    return BumpSearchResult(lo_e, True, c_at)
