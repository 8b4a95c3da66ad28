"""One-sided operators: maximal and minimal averages, one-sided
Calderon-Zygmund singular integrals, oscillatory integrals with real
polynomial phase, and their dyadic decomposition.

Principal values are realized by epsilon-truncation at a whole number of
grid cells; the honest discrete analogue of the epsilon -> 0+ limit is
the Cauchy behaviour of those truncations, so operators optionally
report a convergence estimate obtained by halving epsilon on refined
grids.  Infinite upper limits are replaced by the window edge; norm
experiments keep the data supported well inside the window so the
discarded tail is exactly zero.

Quadrature of the oscillatory factor is done per cell on the linear
interpolant of (kernel x sample) data: cells whose phase is linear in y
are integrated in closed form (exact moments, stable for arbitrarily
fast oscillation), all other cells are subdivided until the local phase
increment per subcell is at most pi/8.  With zero phase the moment
formula degenerates to plain composite trapezoid, bit for bit, so the
singular operator is literally the oscillatory code path with phase 0.

Per-node outputs are independent; everything here is pure and
deterministic (fixed summation order), so concurrent evaluation of
nodes or family members is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DomainError
from .grid import SampledFunction, cumulative_trapezoid, grid_nodes, resample

__all__ = [
    "KernelSpec",
    "PolynomialPhase",
    "PVConfig",
    "OperatorResult",
    "oscillating_log_kernel",
    "truncated_power_kernel",
    "m_plus",
    "m_minus",
    "m_plus_min",
    "singular_one_sided",
    "oscillatory_one_sided",
    "oscillatory_ranged",
    "oscillatory_apply_batch",
    "dyadic_piece",
    "dyadic_band_cells",
    "kernel_cancellation_sup",
    "normalize_phase",
    "scaling_identity_check",
    "forward_extremal_averages",
]

_PHASE_RESOLUTION = math.pi / 8.0   # max phase increment per quadrature cell


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """A one-sided Calderon-Zygmund kernel catalog entry.

    ``side`` fixes the support half-line: "plus" kernels live on
    t < 0 (they drive T^+ operators integrating over y > x), "minus"
    kernels on t > 0; "both" is a two-sided variant used by
    cancellation tests only.  ``size_const`` and ``smooth_const`` are
    the declared bounds for the size and smoothness conditions
    |K(t)| <= C/|t| and |K(t-s)-K(t)| <= C|s|/t^2 (for |t| > 2|s|);
    ``check_size_condition`` / ``check_smoothness_condition`` sample
    them.
    """

    tag: str                  # oscillating-log | truncated-power
    side: str                 # plus | minus | both
    params: tuple
    size_const: float
    smooth_const: float

    def __post_init__(self):
        if self.tag not in ("oscillating-log", "truncated-power"):
            raise DomainError(f"unknown kernel tag {self.tag!r}")
        if self.side not in ("plus", "minus", "both"):
            raise DomainError(f"unknown kernel side {self.side!r}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))

    # -- evaluation -----------------------------------------------------
    def evaluate(self, t: np.ndarray) -> np.ndarray:
        """K(t), zero off the support side and at t = 0."""
        t = np.asarray(t, dtype=np.float64)
        if self.side == "plus":
            mask = t < 0.0
        elif self.side == "minus":
            mask = t > 0.0
        else:
            mask = t != 0.0
        out = np.zeros_like(t)
        ts = t[mask]
        if self.tag == "oscillating-log":
            lam, sign = self.params
            u = ts / lam
            out[mask] = sign * np.sin(np.log(np.abs(u))) / (2.0 * u)
        else:
            r_lo, r_hi, lam, sign = self.params
            u = ts / lam
            out[mask] = sign * _bump(np.abs(u), r_lo, r_hi) / u
        return out

    def dilated(self, lam: float) -> "KernelSpec":
        """The kernel K_lambda(t) = K(t / lambda) (same declared bounds
        scale out of the size/smoothness conditions)."""
        if self.tag == "oscillating-log":
            l0, sign = self.params
            return KernelSpec(self.tag, self.side, (l0 * lam, sign),
                              self.size_const, self.smooth_const)
        r_lo, r_hi, l0, sign = self.params
        return KernelSpec(self.tag, self.side, (r_lo, r_hi, l0 * lam, sign),
                          self.size_const, self.smooth_const)

    def reflected(self) -> "KernelSpec":
        """The kernel t -> K(-t) on the opposite half-line."""
        side = {"plus": "minus", "minus": "plus", "both": "both"}[self.side]
        if self.tag == "oscillating-log":
            lam, sign = self.params
            return KernelSpec(self.tag, side, (lam, -sign),
                              self.size_const, self.smooth_const)
        r_lo, r_hi, lam, sign = self.params
        return KernelSpec(self.tag, side, (r_lo, r_hi, lam, -sign),
                          self.size_const, self.smooth_const)

    def support_radii(self) -> tuple:
        """(inner, outer) |t| radii outside which K vanishes (outer may
        be inf)."""
        if self.tag == "truncated-power":
            r_lo, r_hi, lam, _ = self.params
            return (r_lo * lam, r_hi * lam)
        return (0.0, math.inf)

    # -- declared-bound samplers -----------------------------------------
    def _sample_t(self, rng, count: int) -> np.ndarray:
        inner, outer = self.support_radii()
        lo = max(inner, 1e-4) if inner > 0 else 1e-4
        hi = outer if math.isfinite(outer) else 10.0
        mag = np.exp(rng.uniform(np.log(lo * 0.5) if inner > 0 else np.log(lo),
                                 np.log(hi), count))
        if self.side == "plus":
            return -mag
        if self.side == "minus":
            return mag
        return mag * rng.choice([-1.0, 1.0], count)

    def check_size_condition(self, count: int = 10_000, seed: int = 0) -> float:
        """Worst |K(t)| |t| / size_const over ``count`` random support
        points (<= 1 means the declared bound holds)."""
        rng = np.random.default_rng(seed)
        t = self._sample_t(rng, count)
        return float(np.max(np.abs(self.evaluate(t)) * np.abs(t)) / self.size_const)

    def check_smoothness_condition(self, count: int = 10_000, seed: int = 0) -> float:
        """Worst |K(t-s)-K(t)| t^2 / (|s| smooth_const) over ``count``
        random pairs with |t| > 2|s|."""
        rng = np.random.default_rng(seed)
        t = self._sample_t(rng, count)
        s = t * rng.uniform(-0.5, 0.5, count) * (1.0 - 1e-12)
        num = np.abs(self.evaluate(t - s) - self.evaluate(t)) * t ** 2
        return float(np.max(num / (np.abs(s) * self.smooth_const)))

    def to_json(self) -> dict:
        return {"kernel": {"tag": self.tag, "side": self.side,
                           "params": list(self.params),
                           "size_const": self.size_const,
                           "smooth_const": self.smooth_const}}

    @staticmethod
    def from_json(obj: dict) -> "KernelSpec":
        k = obj["kernel"] if "kernel" in obj else obj
        return KernelSpec(k["tag"], k["side"], tuple(k["params"]),
                          k.get("size_const", 1.0), k.get("smooth_const", 2.0))


def _bump(u: np.ndarray, r_lo: float, r_hi: float) -> np.ndarray:
    """Smooth compactly supported profile on [r_lo, r_hi], max 1."""
    z = (2.0 * u - (r_hi + r_lo)) / (r_hi - r_lo)
    out = np.zeros_like(u)
    inside = np.abs(z) < 1.0
    zi = z[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - zi * zi))
    return out


def oscillating_log_kernel(side: str = "plus") -> KernelSpec:
    """The default test kernel sin(ln|t|) / (2t).

    The half amplitude keeps the declared constants honest: the size
    bound holds with C = 1 (actual 1/2) and the smoothness bound with
    C = 2 (actual ~1.39; the unit-amplitude kernel would need ~2.78).
    Truncated integrals telescope to cosine differences, so they stay
    bounded by 1 for every 0 < eps < N, though their eps -> 0 limit
    does not exist (the cosine keeps oscillating).
    """
    return KernelSpec("oscillating-log", side, (1.0, 1.0), 1.0, 2.0)


def truncated_power_kernel(side: str = "plus", r_lo: float = 0.5,
                           r_hi: float = 3.5) -> KernelSpec:
    """K(t) = eta(|t|)/t with a smooth bump profile supported on
    r_lo <= |t| <= r_hi (declared smoothness bound measured, padded)."""
    if not 0 < r_lo < r_hi:
        raise DomainError("need 0 < r_lo < r_hi")
    smooth = 16.0 * max(1.0, r_hi / (r_hi - r_lo))
    return KernelSpec("truncated-power", side, (r_lo, r_hi, 1.0, 1.0), 1.0, smooth)


# ---------------------------------------------------------------------------
# polynomial phases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolynomialPhase:
    """The real polynomial P(x, y) as a sparse coefficient map.

    ``terms`` is a sorted tuple of ((deg_x, deg_y), coefficient) with
    zero coefficients dropped.  k and l are the maximal degrees in x
    and y; a_kl (possibly 0) is the coefficient of x^k y^l.
    """

    terms: tuple

    def __post_init__(self):
        clean = tuple(sorted(((int(a), int(b)), float(v))
                             for (a, b), v in self.terms if v != 0.0))
        for (a, b), _ in clean:
            if a < 0 or b < 0:
                raise DomainError("phase degrees must be nonnegative")
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def from_coeffs(coeffs: dict) -> "PolynomialPhase":
        return PolynomialPhase(tuple(coeffs.items()))

    @staticmethod
    def monomial(k: int, l: int, a: float) -> "PolynomialPhase":
        return PolynomialPhase((((k, l), a),))

    @staticmethod
    def zero() -> "PolynomialPhase":
        return PolynomialPhase(())

    @property
    def coeffs(self) -> dict:
        return dict(self.terms)

    @property
    def k(self) -> int:
        return max((a for (a, _), _ in self.terms), default=0)

    @property
    def l(self) -> int:
        return max((b for (_, b), _ in self.terms), default=0)

    @property
    def total_degree(self) -> int:
        return max((a + b for (a, b), _ in self.terms), default=0)

    @property
    def leading_coefficient(self) -> float:
        return self.coeffs.get((self.k, self.l), 0.0)

    def is_zero(self) -> bool:
        return not self.terms

    def y_degree_at_most_one(self) -> bool:
        return self.l <= 1

    def evaluate(self, x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        out = np.zeros(np.broadcast(x, y).shape)
        for (a, b), v in self.terms:
            out += v * x ** a * y ** b
        return out

    def partial_y(self, x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        out = np.zeros(np.broadcast(x, y).shape)
        for (a, b), v in self.terms:
            if b >= 1:
                out += v * b * x ** a * y ** (b - 1)
        return out

    def linear_parts(self, x: np.ndarray):
        """A(x), B(x) with P(x, y) = A(x) + B(x) y (requires l <= 1)."""
        if not self.y_degree_at_most_one():
            raise DomainError("phase is not linear in y")
        A = np.zeros_like(x)
        B = np.zeros_like(x)
        for (a, b), v in self.terms:
            if b == 0:
                A += v * x ** a
            else:
                B += v * x ** a
        return A, B

    def reflected(self) -> "PolynomialPhase":
        """P(-x, -y)."""
        return PolynomialPhase(tuple(
            ((a, b), v * (-1.0) ** (a + b)) for (a, b), v in self.terms))

    def add_x_polynomial(self, coeffs: dict) -> "PolynomialPhase":
        """P + g(x) for a polynomial g in x alone (modulus-invariance tests)."""
        c = self.coeffs
        for a, v in coeffs.items():
            c[(a, 0)] = c.get((a, 0), 0.0) + v
        return PolynomialPhase.from_coeffs(c)

    def to_json(self) -> dict:
        return {"phase": {"coeffs": [[a, b, v] for (a, b), v in self.terms]}}

    @staticmethod
    def from_json(obj: dict) -> "PolynomialPhase":
        ph = obj["phase"] if "phase" in obj else obj
        return PolynomialPhase(tuple(((a, b), v) for a, b, v in ph["coeffs"]))


@dataclass(frozen=True)
class PVConfig:
    """Epsilon-truncation policy: eps = eps_cells * spacing, plus the
    number of eps-halvings (on refined grids) used for the convergence
    report."""

    eps_cells: int = 1
    refine_checks: int = 0

    def __post_init__(self):
        if self.eps_cells < 1:
            raise ConfigError("eps_cells must be >= 1")
        if self.refine_checks < 0:
            raise ConfigError("refine_checks must be >= 0")


@dataclass(frozen=True)
class OperatorResult:
    """An operator output plus principal-value diagnostics."""

    function: SampledFunction
    pv_convergence: Optional[float] = None
    empty_range: bool = False


# ---------------------------------------------------------------------------
# maximal / minimal operators
# ---------------------------------------------------------------------------

def forward_extremal_averages(values: np.ndarray, spacing: float,
                              minimum: bool = False) -> np.ndarray:
    """Row-wise sup (or inf) over h of forward averages of |values|.

    h runs over whole numbers of cells up to the window edge, together
    with the h -> 0+ limit, which on the grid is the point value
    itself.  Shape (m, n) in, shape (m, n) out.
    """
    a = np.abs(np.asarray(values))
    if a.ndim == 1:
        return forward_extremal_averages(a[None, :], spacing, minimum)[0]
    n = a.shape[1]
    cum = cumulative_trapezoid(a, spacing)
    out = a.astype(np.float64).copy()
    pick = np.minimum if minimum else np.maximum
    for k in range(1, n):
        avg = (cum[:, k:] - cum[:, :-k]) / (k * spacing)
        out[:, :n - k] = pick(out[:, :n - k], avg)
    return out


def m_plus(f: SampledFunction) -> SampledFunction:
    """One-sided maximal function sup_{h>0} (1/h) int_x^{x+h} |f|."""
    vals = forward_extremal_averages(np.abs(f.values), f.spacing)
    return f.with_values(vals.astype(np.complex128))


def m_minus(f: SampledFunction) -> SampledFunction:
    """Mirror image of m_plus (backward averages)."""
    rev = m_plus(f.with_values(f.values[::-1].copy()))
    return f.with_values(rev.values[::-1].copy())


def m_plus_min(f: SampledFunction) -> SampledFunction:
    """One-sided minimal function inf_{h>0} (1/h) int_x^{x+h} |f|."""
    vals = forward_extremal_averages(np.abs(f.values), f.spacing, minimum=True)
    return f.with_values(vals.astype(np.complex128))


# ---------------------------------------------------------------------------
# oscillatory quadrature core
# ---------------------------------------------------------------------------

def _filon_moments(beta: np.ndarray):
    """Moments m0 = int_0^1 (1-t) e^{i beta t} dt, m1 = int_0^1 t e^{i beta t} dt.

    Series for small |beta| (exact 1/2 at beta = 0), closed form else.
    """
    beta = np.asarray(beta, dtype=np.float64)
    m0 = np.empty(beta.shape, dtype=np.complex128)
    m1 = np.empty(beta.shape, dtype=np.complex128)
    small = np.abs(beta) < 0.5
    ib = 1j * beta[small]
    s0 = np.full(ib.shape, 0.5, dtype=np.complex128)
    s1 = np.full(ib.shape, 0.5, dtype=np.complex128)
    pw = np.ones(ib.shape, dtype=np.complex128)
    fact = 1.0
    for k in range(1, 13):
        pw = pw * ib
        fact *= k
        s0 += pw / (fact * (k + 1) * (k + 2))
        s1 += pw / (fact * (k + 2))
    m0[small], m1[small] = s0, s1
    bl = beta[~small]
    ibl = 1j * bl
    E = np.exp(ibl)
    v1 = E / ibl - (E - 1.0) / ibl ** 2
    m0[~small] = (E - 1.0) / ibl - v1
    m1[~small] = v1
    return m0, m1


def _row_weights_general(x_i: float, y: np.ndarray, kv: np.ndarray,
                         phase: PolynomialPhase, lo: int, hi: int,
                         d: float) -> np.ndarray:
    """Quadrature weights of one output row for a phase nonlinear in y:
    each cell is subdivided until the phase increment per subcell is at
    most pi/8, with the (kernel x sample) product interpolated linearly."""
    w = np.zeros(y.shape, dtype=np.complex128)
    centers = (y[lo:hi] + y[lo + 1:hi + 1]) / 2.0
    dpdy = np.abs(phase.partial_y(np.full(centers.shape, x_i), centers))
    rs = np.maximum(1, np.ceil(dpdy * d / _PHASE_RESOLUTION).astype(np.int64))
    for r in np.unique(rs):
        idx = lo + np.nonzero(rs == r)[0]
        theta = np.arange(r + 1) / r
        tw = np.full(r + 1, d / r)
        tw[0] = tw[-1] = d / (2 * r)
        ys = y[idx][:, None] + theta[None, :] * d
        ph = np.exp(1j * phase.evaluate(np.full(ys.shape, x_i), ys))
        left = ph @ (tw * (1.0 - theta))
        right = ph @ (tw * theta)
        np.add.at(w, idx, kv[idx] * left)
        np.add.at(w, idx + 1, kv[idx + 1] * right)
    return w


def _apply_plan(F: np.ndarray, x_lo: float, x_hi: float, kernel: KernelSpec,
                phase: PolynomialPhase, eps_cells: int,
                band_cells: Optional[tuple]) -> np.ndarray:
    """Core evaluator: out[q, i] = sum_j W[i, j] F[q, j] for the plus
    direction, rows chunked to bound memory."""
    m, n = F.shape
    x = grid_nodes(x_lo, x_hi, n)
    d = (x_hi - x_lo) / (n - 1)
    if band_cells is None:
        lo_c, hi_c = eps_cells, n - 1
        start = np.minimum(np.arange(n) + eps_cells, n - 1)
        stop = np.full(n, n - 1)
    else:
        lo_c, hi_c = band_cells
        start = np.minimum(np.arange(n) + lo_c, n - 1)
        stop = np.minimum(np.arange(n) + hi_c, n - 1)
    if eps_cells >= n - 1:
        raise ConfigError("eps_cells exceeds the window")
    out = np.zeros((m, n), dtype=np.complex128)
    linear = phase.y_degree_at_most_one()
    chunk = max(1, int(4_000_000 // n))
    Ft = F.T
    for c0 in range(0, n, chunk):
        rows = np.arange(c0, min(c0 + chunk, n))
        rows = rows[start[rows] < stop[rows]]
        if rows.size == 0:
            continue
        jlo = int(start[rows].min())
        jhi = int(stop[rows].max())
        yv = x[jlo:jhi + 1][None, :]
        t = x[rows][:, None] - yv
        kv = kernel.evaluate(t)
        W = np.zeros((rows.size, jhi + 1 - jlo), dtype=np.complex128)
        if linear:
            A, B = phase.linear_parts(x[rows])
            beta = B * d
            m0, m1 = _filon_moments(beta)
            Ecell = np.exp(1j * (A[:, None] + B[:, None] * yv))[:, :-1]
            cellmask = ((np.arange(jlo, jhi)[None, :] >= start[rows][:, None]) &
                        (np.arange(jlo, jhi)[None, :] < stop[rows][:, None]))
            W[:, :-1] += np.where(cellmask, d * m0[:, None] * Ecell * kv[:, :-1], 0.0)
            W[:, 1:] += np.where(cellmask, d * m1[:, None] * Ecell * kv[:, 1:], 0.0)
        else:
            for q, i in enumerate(rows):
                W[q] = _row_weights_general(x[i], x[jlo:jhi + 1], kv[q],
                                            phase, start[i] - jlo,
                                            stop[i] - jlo, d)
        out[:, rows] = (W @ Ft[jlo:jhi + 1, :]).T
    return out


def oscillatory_apply_batch(F: np.ndarray, x_lo: float, x_hi: float,
                            kernel: KernelSpec, phase: PolynomialPhase,
                            pv: PVConfig,
                            band_cells: Optional[tuple] = None) -> np.ndarray:
    """Apply the one-sided oscillatory operator to a batch of sampled
    functions (rows of F).  Direction follows kernel.side; the minus
    side is evaluated as the exact mirror image of the plus side."""
    if kernel.side == "minus":
        # contiguous copy: BLAS rounding must match a caller-side
        # reflected computation bit for bit
        Fr = np.ascontiguousarray(F[:, ::-1])
        out = _apply_plan(Fr, -x_hi, -x_lo, kernel.reflected(),
                          phase.reflected(), pv.eps_cells, band_cells)
        return np.ascontiguousarray(out[:, ::-1])
    if kernel.side == "both":
        raise ConfigError("one-sided operators need a one-sided kernel")
    return _apply_plan(F, x_lo, x_hi, kernel, phase, pv.eps_cells, band_cells)


def oscillatory_ranged(f: SampledFunction, kernel: KernelSpec,
                       phase: PolynomialPhase, pv: PVConfig,
                       lo_cells: int, hi_cells: int) -> SampledFunction:
    """Oscillatory integral restricted to y - x in (lo_cells, hi_cells]
    grid cells; the dyadic pieces and their summation identity live
    here."""
    out = oscillatory_apply_batch(f.values[None, :], f.x_lo, f.x_hi,
                                  kernel, phase, pv, (lo_cells, hi_cells))
    return f.with_values(out[0])


def _refined_convergence(f: SampledFunction, kernel: KernelSpec,
                         phase: PolynomialPhase, pv: PVConfig,
                         base: np.ndarray) -> float:
    conv = 0.0
    prev = base
    for level in range(1, pv.refine_checks + 1):
        n2 = (f.n - 1) * 2 ** level + 1
        f2 = resample(f, f.x_lo, f.x_hi, n2)
        out2 = oscillatory_apply_batch(f2.values[None, :], f.x_lo, f.x_hi,
                                       kernel, phase, pv)[0]
        cur = out2[::2 ** level]
        conv = max(conv, float(np.max(np.abs(cur - prev))))
        prev = cur
    return conv


def oscillatory_one_sided(f: SampledFunction, kernel: KernelSpec,
                          phase: PolynomialPhase, pv: PVConfig) -> OperatorResult:
    """p.v. integral of e^{iP(x,y)} K(x-y) f(y) over the kernel's side,
    truncated at eps = eps_cells * spacing and at the window edge."""
    out = oscillatory_apply_batch(f.values[None, :], f.x_lo, f.x_hi,
                                  kernel, phase, pv)[0]
    conv = None
    if pv.refine_checks > 0:
        conv = _refined_convergence(f, kernel, phase, pv, out)
    return OperatorResult(f.with_values(out), conv)


def singular_one_sided(f: SampledFunction, kernel: KernelSpec,
                       pv: PVConfig) -> OperatorResult:
    """One-sided Calderon-Zygmund integral: the oscillatory operator
    with phase 0 (same code path, hence bit-identical by construction)."""
    return oscillatory_one_sided(f, kernel, PolynomialPhase.zero(), pv)


# ---------------------------------------------------------------------------
# dyadic decomposition
# ---------------------------------------------------------------------------

def dyadic_band_cells(spacing: float, j: int, eps_cells: int) -> tuple:
    """Cell-count band of the j-th dyadic piece.

    The unit range is k0 = round(1/spacing) cells and doubles exactly:
    piece 0 covers (eps, k0], piece j >= 1 covers (k0 2^{j-1}, k0 2^j].
    Doubling in whole cells keeps the pointwise bound
    |T_j f| <= 2 C M^+ f exact on the grid.
    """
    k0 = max(1, int(round(1.0 / spacing)))
    if j == 0:
        return (eps_cells, k0)
    return (k0 * 2 ** (j - 1), k0 * 2 ** j)


def dyadic_piece(f: SampledFunction, kernel: KernelSpec,
                 phase: PolynomialPhase, j: int, pv: PVConfig) -> OperatorResult:
    """The piece T_j of the dyadic decomposition T = T_0 + sum_j T_j."""
    if j < 0:
        raise DomainError("need j >= 0")
    lo_c, hi_c = dyadic_band_cells(f.spacing, j, pv.eps_cells)
    if lo_c >= f.n - 1:
        return OperatorResult(f.with_values(np.zeros(f.n, dtype=np.complex128)),
                              None, empty_range=True)
    out = oscillatory_ranged(f, kernel, phase, pv, lo_c, hi_c)
    return OperatorResult(out, None, False)


# ---------------------------------------------------------------------------
# kernel cancellation and phase normalization
# ---------------------------------------------------------------------------

def kernel_cancellation_sup(kernel: KernelSpec, eps_grid, N_grid,
                            n_u: int = 8192) -> float:
    """max over the (eps, N) grid of |int_{eps<|t|<N} K(t) dt|.

    The integrand lives on exponential scales, so the quadrature runs
    on log-spaced nodes (fine trapezoid in u = ln|t|).
    """
    eps_grid = [float(e) for e in eps_grid]
    N_grid = [float(N) for N in N_grid]
    if min(eps_grid) <= 0 or min(N_grid) <= 0:
        raise DomainError("truncation radii must be positive")
    pairs = [(e, N) for e in eps_grid for N in N_grid if e < N]
    if not pairs:
        raise DomainError("no admissible pair with eps < N")
    u_lo, u_hi = math.log(min(eps_grid)), math.log(max(N_grid))
    u = np.linspace(u_lo, u_hi, n_u)
    s = np.exp(u)
    du = (u_hi - u_lo) / (n_u - 1)
    best = 0.0
    sides = []
    if kernel.side in ("plus", "both"):
        sides.append(-1.0)
    if kernel.side in ("minus", "both"):
        sides.append(1.0)
    # int_{eps<|t|<N} K over the side sg is int_eps^N K(sg s) s du in
    # u = ln s coordinates (the negative side's orientation flip cancels
    # against dt = -ds)
    integ = {sg: kernel.evaluate(sg * s) * s for sg in sides}
    for e, N in pairs:
        mask = (s >= e) & (s <= N)
        total = 0.0
        for sg in sides:
            g = np.where(mask, integ[sg], 0.0)
            total += float(np.sum((g[:-1] + g[1:]) / 2.0) * du)
        best = max(best, abs(total))
    return best


def normalize_phase(phase: PolynomialPhase):
    """lambda = |a_kl|^{1/(k+l)} and Q with Q(lambda x, lambda y) = P(x, y)."""
    a_kl = phase.leading_coefficient
    if a_kl == 0.0:
        raise DomainError("leading coefficient a_kl vanishes")
    k, l = phase.k, phase.l
    if k + l < 1:
        raise DomainError("need total degree >= 1 to normalize")
    lam = abs(a_kl) ** (1.0 / (k + l))
    q = PolynomialPhase(tuple(((a, b), v * lam ** (-(a + b)))
                              for (a, b), v in phase.terms))
    return lam, q


def scaling_identity_check(f: SampledFunction, kernel: KernelSpec,
                           phase: PolynomialPhase, pv: PVConfig) -> float:
    """Max nodewise discrepancy of the exact change of variables

        T^+ f(x) = lambda^{-1} T^+_lambda(f(./lambda))(lambda x),

    with T_lambda built from K(t/lambda) and the normalized phase Q.
    The dilated data f(./lambda) is carried on the stretched grid
    [lambda x_lo, lambda x_hi] with unchanged samples, so both sides
    run node-aligned quadratures and the discrepancy is pure float
    noise.
    """
    lam, q = normalize_phase(phase)
    lhs = oscillatory_apply_batch(f.values[None, :], f.x_lo, f.x_hi,
                                  kernel, phase, pv)[0]
    rhs = oscillatory_apply_batch(f.values[None, :], lam * f.x_lo,
                                  lam * f.x_hi, kernel.dilated(lam), q, pv)[0]
    return float(np.max(np.abs(lhs - rhs / lam)))
