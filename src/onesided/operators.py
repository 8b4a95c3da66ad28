"""One-sided operators: maximal and minimal averages, one-sided
Calderon-Zygmund singular integrals, oscillatory integrals with real
polynomial phase, and their dyadic decomposition.

``OperatorSpec.apply_batch`` is the one operator dispatch: the only code
that picks an evaluator by operator kind, the dyadic band and the
empty-piece rule included; a spec refuses the fields its kind ignores.
``oscillatory_apply_batch`` is the one apply entry: it checks its
arguments, mirrors the minus side and picks one of the paths below.
``m_plus`` and ``m_minus`` apply a spec to one ``SampledFunction``.

The one-sided maximal and minimal functions follow F. Riesz's rising-sun
lemma: the best forward average from a node is the steepest chord to
the running sums c right of it, which ends on their upper (lower) convex
hull, so one monotone-stack pass costs O(n) per row.  It walks only the
live span [Q, P) between the flat ends c[:Q + 1] == c[0] and c[P:] ==
c[n - 1], and averages only the nodes it walked.  Every flat chord
averages +0.0: from the suffix every chord is flat, and from the prefix
the inf's chord to the next node is, so the sup keeps |f| on the suffix
and the inf is 0 on both ends.  The sup's prefix tangents lie on the one
chain the stack holds after node Q, guessed from where its edges cross
the prefix line.  The walk's own comparisons confirm each node with two
chords at its stop, plus the steps of the at most |chain| nodes whose
stop moved; a confirmed node's chord is its average, and the walk
resumes at the first node that fails.  The output is the full pass's,
bit for bit.

Principal values are realized by epsilon-truncation at a whole number of
grid cells.  Infinite upper limits are replaced by the window edge; norm
experiments keep the data supported well inside the window so the
discarded tail is exactly zero.

Quadrature of the oscillatory factor is done per cell on the linear
interpolant of (kernel x sample) data: cells whose phase is linear in y
are integrated in closed form (exact moments, stable for arbitrarily
fast oscillation), all other cells are subdivided until the local phase
increment per subcell is at most pi/8.  With zero phase the moment
formula degenerates to plain composite trapezoid, so the singular
operator is literally the oscillatory code path with phase 0.

The phase picks one of three evaluation paths, by its terms alone:

* fft-chirp: P = A(x) + (b0 + b1 x) y, which covers phase 0, a xy and
  any added b y or g(x).  Bluestein's factorisation
  e^{i b1 x y} = e^{i b1 x^2/2} e^{i b1 y^2/2} e^{-i b1 (x-y)^2/2}
  makes the Filon matrix diagonal x Toeplitz x diagonal, so one FFT
  correlation per row, over its own sample hull (h nodes) and the rows
  that reach it, costs O((h + L) log(h + L)) for a band of L taps; the
  two cell ends each drop one end tap, an O(h) correction.  A row where
  no nonzero sample sits on a nonzero tap is exactly 0, as in the dense
  sum.  A batch row whose largest value does not stand well clear of the
  normwise FFT rounding (_FFT_NOISE, plus the phase's) is summed densely.
* dense-filon: other phases linear in y (x^2 y, ...), the same closed
  form on an explicit O(n^2) matrix.
* dense-subdivided: phases nonlinear in y (x y^2, ...).  e^{iP} is
  computed once per (row, node), turned to each cell's right end
  y_j + d by the exact difference of the two rounded phases; a
  subdivided cell adds only its interior points.

The dense paths sample the kernel once at the offsets k d and gather it
by k = j - i.  They build the matrix only over the cells that end on
the hull of the batch's nonzero nodes, for the rows whose band meets
them, in row chunks of _CHUNK_BYTES (8 MiB) of complex entries divided
by the chunk's own subcell bound, so a call's temporaries stay at a few
such chunks whatever n and the batch size.  That bound -- d / (pi/8)
times a triangle bound on |dP/dy| over the chunk's rows and nodes, 1
for a phase linear in y -- over all the cells built, times their count,
is the request's cost: above _SUBCELL_LIMIT (2e9 subcells, one to a few
minutes on two cores) the request is refused up front with a
ConfigError that states the estimate.

Everything here is pure and deterministic (fixed summation order), so
concurrent evaluation of family members is safe.  On the fft-chirp path
a row's output does not depend on the other rows of its batch, bit for
bit; on the dense paths it does only through BLAS's summation order,
which follows the product's shape (the batch's size and sample hull).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConfigError, DomainError, read
from .grid import SampledFunction, cumulative_trapezoid, grid_nodes

__all__ = [
    "KernelSpec",
    "PolynomialPhase",
    "PVConfig",
    "OperatorSpec",
    "oscillating_log_kernel",
    "truncated_power_kernel",
    "m_plus",
    "m_minus",
    "oscillatory_apply_batch",
    "dyadic_band_cells",
    "kernel_cancellation_sup",
    "normalize_phase",
    "scaling_identity_check",
    "forward_extremal_averages",
    "backward_extremal_averages",
]

_PHASE_RESOLUTION = math.pi / 8.0   # max phase increment per quadrature cell
_CHUNK_BYTES = 8 << 20              # W per dense row chunk, times the subcell bound
_SUBCELL_LIMIT = 2e9                # dense requests estimated above this are refused
_FFT_NOISE = 1e-13                  # fft-chirp rounding allowed relative to a row's peak
_CONDITION_SAMPLES = 10_000         # random points of the size / smoothness checks
_CANCEL_NODES = 8192                # log-spaced nodes of the cancellation quadrature
_EPS = float(np.finfo(np.float64).eps)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """A one-sided Calderon-Zygmund kernel catalog entry.

    ``side`` fixes the support half-line: "plus" kernels live on
    t < 0 (they drive T^+ operators integrating over y > x), "minus"
    kernels on t > 0.  ``params`` is (lambda, sign) for
    "oscillating-log" and (r_lo, r_hi, lambda, sign) for
    "truncated-power", with lambda > 0 the dilation, 0 < r_lo < r_hi the
    support radii of |t| / lambda and sign the amplitude.
    ``size_const`` and ``smooth_const`` (both > 0) are the declared
    bounds for the size and smoothness conditions |K(t)| <= C/|t| and
    |K(t-s)-K(t)| <= C|s|/t^2 (for |t| > 2|s|);
    ``check_size_condition`` / ``check_smoothness_condition`` sample
    them.  Every number is finite.
    """

    tag: str                  # oscillating-log | truncated-power
    side: str                 # plus | minus
    params: tuple
    size_const: float
    smooth_const: float

    def __post_init__(self):
        names = {"oscillating-log": ("lambda", "sign"),
                 "truncated-power": ("r_lo", "r_hi", "lambda", "sign")}.get(self.tag)
        if names is None:
            raise DomainError(f"unknown kernel tag {self.tag!r}")
        if self.side not in ("plus", "minus"):
            raise DomainError(f"unknown kernel side {self.side!r}, expected plus or minus")
        p = tuple(float(v) for v in self.params)
        object.__setattr__(self, "params", p)
        if len(p) != len(names):
            raise DomainError(f"{self.tag} kernel params are ({', '.join(names)}), got {list(p)}")
        if not all(map(math.isfinite, (*p, self.size_const, self.smooth_const))):
            raise DomainError("kernel params and constants must be finite")
        if not p[-2] > 0.0:
            raise DomainError(f"kernel lambda must be > 0, got {p[-2]}")
        if self.tag == "truncated-power" and not 0.0 < p[0] < p[1]:
            raise DomainError(f"need 0 < r_lo < r_hi, got {p[0]}, {p[1]}")
        if not (self.size_const > 0.0 and self.smooth_const > 0.0):
            raise DomainError("kernel size_const and smooth_const must be > 0")

    # -- evaluation -----------------------------------------------------
    def evaluate(self, t: np.ndarray) -> np.ndarray:
        """K(t), zero off the support side and at t = 0."""
        t = np.asarray(t, dtype=np.float64)
        mask = t < 0.0 if self.side == "plus" else t > 0.0
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
        scale out of the size/smoothness conditions).  The params of
        every tag end in (lambda, sign)."""
        return replace(self, params=self.params[:-2] + (self.params[-2] * lam,
                                                        self.params[-1]))

    def reflected(self) -> "KernelSpec":
        """The kernel t -> K(-t) on the opposite half-line."""
        side = "minus" if self.side == "plus" else "plus"
        return replace(self, side=side, params=self.params[:-1] + (-self.params[-1],))

    def support_radii(self) -> tuple:
        """(inner, outer) |t| radii outside which K vanishes (outer may
        be inf)."""
        if self.tag == "truncated-power":
            r_lo, r_hi, lam, _ = self.params
            return (r_lo * lam, r_hi * lam)
        return (0.0, math.inf)

    # -- declared-bound samplers -----------------------------------------
    def _sample_t(self, rng) -> np.ndarray:
        inner, outer = self.support_radii()
        lo = max(inner, 1e-4) if inner > 0 else 1e-4
        hi = outer if math.isfinite(outer) else 10.0
        mag = np.exp(rng.uniform(np.log(lo * 0.5) if inner > 0 else np.log(lo),
                                 np.log(hi), _CONDITION_SAMPLES))
        return -mag if self.side == "plus" else mag

    def check_size_condition(self, seed: int = 0) -> float:
        """Worst |K(t)| |t| / size_const over _CONDITION_SAMPLES random
        support points (<= 1 means the declared bound holds)."""
        rng = np.random.default_rng(seed)
        t = self._sample_t(rng)
        return float(np.max(np.abs(self.evaluate(t)) * np.abs(t)) / self.size_const)

    def check_smoothness_condition(self, seed: int = 0) -> float:
        """Worst |K(t-s)-K(t)| t^2 / (|s| smooth_const) over
        _CONDITION_SAMPLES random pairs with |t| > 2|s|."""
        rng = np.random.default_rng(seed)
        t = self._sample_t(rng)
        s = t * rng.uniform(-0.5, 0.5, t.size) * (1.0 - 1e-12)
        num = np.abs(self.evaluate(t - s) - self.evaluate(t)) * t ** 2
        return float(np.max(num / (np.abs(s) * self.smooth_const)))

    def to_json(self) -> dict:
        return {"tag": self.tag, "side": self.side, "params": list(self.params),
                "size_const": self.size_const, "smooth_const": self.smooth_const}

    @staticmethod
    def from_json(obj: dict, path: str = "kernel") -> "KernelSpec":
        """From ``{"tag", "side", "params", "size_const", "smooth_const"}``."""
        return KernelSpec(read(obj, "tag", str, path=path), read(obj, "side", str, path=path),
                          tuple(read(obj, "params", [float], path=path)),
                          read(obj, "size_const", float, 1.0, path),
                          read(obj, "smooth_const", float, 2.0, path))


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
    kernel = KernelSpec("truncated-power", side, (r_lo, r_hi, 1.0, 1.0), 1.0, 1.0)
    return replace(kernel, smooth_const=16.0 * max(1.0, r_hi / (r_hi - r_lo)))


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
        for (a, b), v in clean:
            if a < 0 or b < 0:
                raise DomainError("phase degrees must be nonnegative")
            if not math.isfinite(v):
                raise DomainError(f"phase coefficients must be finite, got {v}")
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
    def leading_coefficient(self) -> float:
        return self.coeffs.get((self.k, self.l), 0.0)

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
        """dP/dy, evaluated as the phase of the terms ((a, b - 1), b v)."""
        return PolynomialPhase(tuple(((a, b - 1), v * b) for (a, b), v in self.terms
                                     if b)).evaluate(x, y)

    def linear_parts(self, x: np.ndarray):
        """A(x), B(x) with P(x, y) = A(x) + B(x) y (requires l <= 1): the
        phases of the terms with b = 0 and b = 1, evaluated at y = 1."""
        if not self.y_degree_at_most_one():
            raise DomainError("phase is not linear in y")
        return tuple(PolynomialPhase(tuple(t for t in self.terms if t[0][1] == b)).evaluate(x, 1.0)
                     for b in (0, 1))

    def reflected(self) -> "PolynomialPhase":
        """P(-x, -y)."""
        return PolynomialPhase(tuple(
            ((a, b), v * (-1.0) ** (a + b)) for (a, b), v in self.terms))

    def to_json(self) -> dict:
        return {"coeffs": [[a, b, v] for (a, b), v in self.terms]}

    @staticmethod
    def from_json(obj: dict, path: str = "phase") -> "PolynomialPhase":
        """From ``{"coeffs": [[deg_x, deg_y, value], ...]}``."""
        coeffs = read(obj, "coeffs", [(int, int, float)], path=path)
        return PolynomialPhase(tuple(((a, b), v) for a, b, v in coeffs))


@dataclass(frozen=True)
class PVConfig:
    """Epsilon-truncation policy: eps = eps_cells * spacing."""

    eps_cells: int = 1

    def __post_init__(self):
        if self.eps_cells < 1:
            raise ConfigError("eps_cells must be >= 1")


# ---------------------------------------------------------------------------
# maximal / minimal operators
# ---------------------------------------------------------------------------

def _steepest_chords(c: list, d: float, stack: list, lo: int) -> np.ndarray:
    """For nodes i = stack[-1] - 1 down to lo (index i - lo) the j > i with
    the steepest chord (c[j] - c[i]) / ((j - i) d): the tangent from (i, c[i])
    to the upper hull right of it, which the right-to-left monotone ``stack``
    holds (left as after node lo).  Slopes are compared as quotients, so the
    comparison cannot overflow where the quotients are finite."""
    tangent = [0] * stack[-1]
    for i in range(stack[-1] - 1, lo - 1, -1):
        ci, top = c[i], stack[-1]
        q = (c[top] - ci) / ((top - i) * d)
        while len(stack) > 1:
            below = stack[-2]
            q_below = (c[below] - ci) / ((below - i) * d)
            if not q <= q_below:
                break
            stack.pop()
            top, q = below, q_below
        tangent[i] = top
        stack.append(i)
    del tangent[:lo]
    return np.fromiter(tangent, np.int64, len(tangent))


def _chain_stops(V: np.ndarray, cv: np.ndarray, i: np.ndarray) -> np.ndarray:
    """Where the walk from each (i, 0) stops on the concave chain V (values
    cv): past each edge whose line crosses 0 at or right of i."""
    with np.errstate(all="ignore"):
        cross = V[:-1] - cv[:-1] * np.diff(V) / np.diff(cv)
    return np.searchsorted(-cross, -i, side="right")


def _flat_prefix_chords(c: np.ndarray, d: float, V: np.ndarray, q: int):
    """The walk over the nodes i < q (c[:q + 1] == 0, V the stack after node
    q, top first) at the stops _chain_stops guesses, confirmed from node
    q - 1 down by the walk's own comparisons: the pop of node i + 1, and
    V[k] beating V[k + 1] at the stop k; the steps between are replayed
    only for the nodes whose stop moved, at most |V| of them.  Returns the
    tangents and chords (c[j] - c[i]) / ((j - i) d) of the nodes confirmed
    before the first that fails, in ascending i, and the stack the last of
    them left (None if every node holds)."""
    i, last = np.arange(q - 1, -1, -1), len(V) - 1
    k = np.maximum.accumulate(_chain_stops(V, c[V], i))
    start = np.concatenate(([0], k[:-1]))     # where the walk from i + 1 stopped
    moved = np.flatnonzero(k > start)
    size = k[moved] - start[moved] + 1
    w = np.repeat(moved, size)                # the moved nodes' steps along V
    first = np.cumsum(size) - size
    m = V[np.arange(w.size) - np.repeat(first - start[moved], size)]
    t, a = V[k], V[np.minimum(k + 1, last)]
    with np.errstate(all="ignore"):
        s = (c[t] - c[i]) / ((t - i) * d)
        ok = (k == last) | ~(s <= (c[a] - c[i]) / ((a - i) * d))
        sm = (c[m] - c[i[w]]) / ((m - i[w]) * d)
    # chords from the prefix are >= 0 or NaN, so the pop of node i + 1 fails
    # only on a NaN: at the stop if it did not move, else in the replay
    ok &= 0.0 <= s
    ok[w[:-1][(w[:-1] == w[1:]) & ~(sm[:-1] <= sm[1:])]] = False
    h = q if ok.all() else int(np.argmin(ok))     # nodes confirmed
    stack = None
    if h < q:                                     # resume at node q - 1 - h
        stack = V[start[h]:][::-1].tolist()
        if h:
            stack.append(q - h)
    return t[:h][::-1], s[:h][::-1], stack


def forward_extremal_averages(values: np.ndarray, spacing: float,
                              minimum: bool = False) -> np.ndarray:
    """Row-wise sup (or inf) over h of forward averages of |values|.

    h runs over whole numbers of cells up to the window edge, together
    with the h -> 0+ limit, which on the grid is the point value
    itself.  Shape (n,) or (m, n) in, the same shape out.

    Rising sun: the best h ends on the convex hull of the running sums
    (upper for the sup, lower for the inf), found by one O(n) stack pass
    per row, walked only between the flat ends of the running sums (the
    module docstring's span rule); its average is rounded as a scan over
    every h would round it.  A row costs its live span plus a few vector
    operations; the only (m, n) arrays are |values| and its running sums.
    """
    a = np.abs(np.asarray(values))
    if a.ndim not in (1, 2):
        raise DomainError(f"values must be 1-D or 2-D, got {a.ndim}-D")
    if not np.all(np.isfinite(a)):
        raise DomainError("values must be finite")
    rows = np.atleast_2d(a)
    n, d = rows.shape[1], float(spacing)
    if not 0.0 < d < math.inf:
        raise DomainError(f"spacing must be finite and > 0, got {spacing}")
    cum = cumulative_trapezoid(rows, spacing)
    out = rows.astype(np.float64, copy=False)   # np.abs made a fresh array
    pick = np.minimum if minimum else np.maximum
    for sums, o in zip(cum, out):
        # the running sums never decrease, so bisection finds their flat ends
        q = int(np.searchsorted(sums, 0.0, side="right")) - 1
        p = int(np.searchsorted(sums, sums[-1])) if math.isfinite(sums[-1]) else n - 1
        if minimum:             # every flat chord averages +0.0; the sup keeps |f|
            o[:q] = o[p:-1] = 0.0
        if q >= p:              # all flat
            continue
        c = -sums if minimum else sums
        cl = c[q:p + 1].tolist()    # c.tolist(), the flat ends copied from their ends
        cl[:0] = cl[:1] * q
        cl += cl[-1:] * (n - 1 - p)
        stack = [n - 1, p] if p < n - 1 else [n - 1]
        walked = [(q, _steepest_chords(cl, d, stack, q))]
        if q and not minimum:
            j, chord, stack = _flat_prefix_chords(c, d, np.array(stack[::-1]), q)
            np.maximum(o[q - j.size:q], chord, out=o[q - j.size:q])
            if stack:
                walked.append((0, _steepest_chords(cl, d, stack, 0)))
        for lo, j in walked:
            hi = lo + j.size
            avg = sums[j] - sums[lo:hi]
            avg /= (j - np.arange(lo, hi)) * d
            pick(o[lo:hi], avg, out=o[lo:hi])
    return out.reshape(a.shape)


def backward_extremal_averages(values: np.ndarray, spacing: float) -> np.ndarray:
    """Row-wise sup over h of backward averages of |values|: the mirror
    image of forward_extremal_averages, bit for bit."""
    return forward_extremal_averages(values[..., ::-1], spacing)[..., ::-1]


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


def _affine_y_coefficient(phase: PolynomialPhase) -> Optional[tuple]:
    """(b0, b1) when P = A(x) + (b0 + b1 x) y, else None."""
    if not phase.y_degree_at_most_one() or any(
            b == 1 and a > 1 for (a, b), _ in phase.terms):
        return None
    c = phase.coeffs
    return c.get((0, 1), 0.0), c.get((1, 1), 0.0)


def _apply_chirp(F: np.ndarray, x: np.ndarray, d: float, kernel: KernelSpec,
                 phase: PolynomialPhase, b0: float, b1: float,
                 lo: int, hi: int) -> np.ndarray:
    """The dense Filon sum for P = A(x) + (b0 + b1 x) y in O(n log n).

    With k = j - i and e^{i B(x_i) y_j} = e^{i(b1 x_i^2/2)} e^{i(b0 y_j
    + b1 y_j^2/2)} e^{-i b1 (k d)^2/2}, row i of the matrix is a row
    factor times the chirped samples G correlated with the Toeplitz taps
    T[t] = K(-k d) e^{-i b1 (k d)^2/2}, k = lo + t.  Cell [j, j+1] of row
    i weighs its left sample by d m0 and its right sample by d m1 e^{-i B d},
    over the band k in [lo, hi) (cells end at the last node).  Both come
    from C[i] = sum_{t <= L} T[t] G[i + lo + t]: right ends less T[0] G[i + lo],
    left ends less T[L] G[i + lo + L] and T[n - 1 - i - lo] G[n - 1] (no cell
    starts at the last node).  Each row is correlated over its own sample
    hull [a, b]: the corrections cost O(b - a), and the FFT size and bits
    depend on the row alone."""
    m, n = F.shape
    out = np.zeros((m, n), dtype=np.complex128)
    kd = np.arange(lo, min(hi, n - 1) + 1) * d
    K = kernel.evaluate(-kd)
    # cut the band to the cells with a nonzero tap
    cells = np.flatnonzero((K[:-1] != 0.0) | (K[1:] != 0.0))
    if cells.size == 0:
        return out
    first, last = int(cells[0]), int(cells[-1])
    kd, K = kd[first:last + 2], K[first:last + 2]
    lo, hi = lo + first, lo + last + 1
    L, live = hi - lo, n - 1 - lo     # live: rows i with a cell in their band
    A, B = phase.linear_parts(x[:live])
    m0, m1 = _filon_moments(B * d)
    w0 = d * np.exp(1j * (A + 0.5 * b1 * x[:live] * x[:live]))    # the row factor ...
    w0, w1 = w0 * m0, w0 * (m1 * np.exp(-1j * B * d))            # ... at either end
    T = K * np.exp(-0.5j * b1 * kd * kd)
    chirp = np.exp(1j * (b0 * x + 0.5 * b1 * x * x))
    taps = lo + np.flatnonzero(K)
    runs = np.split(taps, np.flatnonzero(np.diff(taps) > 1) + 1)
    nonzero = F != 0
    ends = np.argmax(nonzero, axis=1), n - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    hulls, reached_any = {}, np.zeros(m, dtype=bool)     # hulls: (a, b) -> its rows
    for q in np.flatnonzero(nonzero.any(axis=1) & (ends[1] >= lo)).tolist():
        hulls.setdefault((int(ends[0][q]), int(ends[1][q])), []).append(q)
    for (a, b), qs in hulls.items():
        i0, i1 = max(0, a - lo - L), min(live - 1, b - lo)    # the rows that reach [a, b]
        t0, t1 = max(0, a - lo - i1), min(L, b - lo - i0)     # ... and the taps they meet
        R, size = i1 - i0 + 1, 1 << (i1 - i0 + b - a).bit_length()
        G = F[qs, a:b + 1] * chirp[a:b + 1]
        # node j sits at j - a of the circular buffer, row i reads from node
        # i + lo + t0 on: size >= R + b - a keeps the wrap-around off the taps
        C = np.fft.fft(G, size)
        C *= np.fft.fft(T[t0:t1 + 1].conj(), size).conj()
        C = np.fft.ifft(C)[:, (np.arange(R) + i0 + lo + t0 - a) % size]
        C *= w0[i0:i1 + 1] + w1[i0:i1 + 1]
        for w, t in ((w1, 0), (w0, L)):
            s = i0 + lo + t - a       # row i0 + r meets node a + r + s on tap t
            r0, r1 = max(0, -s), min(R, b - a + 1 - s)
            if r0 < r1:
                C[:, r0:r1] -= w[i0 + r0:i0 + r1] * T[t] * G[:, r0 + s:r1 + s]
        if b == n - 1:                # the rows with n - 1 - i - lo < L
            i = np.arange(max(i0, n - lo - L), i1 + 1)
            C[:, R - i.size:] -= w0[i] * T[n - 1 - lo - i] * G[:, -1:]
        # a row where no nonzero sample sits on a nonzero tap is exactly 0 in the dense
        # sum, FFT round-off is not: count each run of nonzero taps off prefix sums
        seen = np.pad(np.cumsum(nonzero[qs, a:b + 1], axis=1), ((0, 0), (1, 0)))
        j = np.arange(i0, i1 + 1) - a  # row i meets node i + k, hull entry j + k, on tap k
        reached = np.any([seen[:, np.clip(j + run[-1] + 1, 0, b - a + 1)] >
                          seen[:, np.clip(j + run[0], 0, b - a + 1)] for run in runs], axis=0)
        C[~reached] = 0.0
        out[qs, i0:i1 + 1] = C
        reached_any[qs] = reached.any(axis=1)
    # FFT rounding is normwise: about eps d |F_q| |T| (2-norms) at every
    # node of row q, however small the row's values.  A row where that
    # is not small against its largest value, beside the phase's own
    # rounding eps Phi, is summed densely, one row at a time so that it
    # does not depend on the batch
    M = float(max(abs(x[0]), abs(x[-1])))
    try:
        phi = sum(abs(v) * M ** (a + b) for (a, b), v in phase.terms)
    except OverflowError:
        phi = math.inf
    scale = float(d * _EPS * np.linalg.norm(T) / (_FFT_NOISE + _EPS * phi))
    for q in np.flatnonzero(reached_any):
        if scale * math.sqrt(np.vdot(F[q], F[q]).real) > np.max(np.abs(out[q])):
            out[q] = _apply_dense(F[q:q + 1], x, d, kernel, phase, lo, hi)[0]
    return out


def _subcell_bound(x: np.ndarray, d: float, phase: PolynomialPhase, y: np.ndarray) -> float:
    """Upper bound on the subcells of any cell of rows x over nodes y:
    1 for a phase linear in y (closed-form cells), else
    d / (pi/8) times the triangle bound sum |a_ab| b Mx^a My^(b-1) of
    |dP/dy|, Mx and My the largest |x| and |y|; inf when that overflows."""
    if phase.y_degree_at_most_one():
        return 1
    Mx = max(abs(x[0]), abs(x[-1]))
    My = max(abs(y[0]), abs(y[-1]))
    try:
        slope = sum(abs(v) * b * Mx ** a * My ** (b - 1) for (a, b), v in phase.terms if b)
        return max(1, math.ceil(slope * d / _PHASE_RESOLUTION))
    except OverflowError:
        return math.inf


def _toeplitz(a: np.ndarray, n: int, r0: int, r1: int, j0: int, j1: int) -> np.ndarray:
    """The read-only view a[j - i + n - 1] for rows i in [r0, r1) and
    columns j in [j0, j1): offset taps gathered without a copy."""
    win = np.lib.stride_tricks.sliding_window_view(a, j1 - j0)
    return win[j0 - r1 + n:j0 - r0 + n][::-1]


def _apply_dense(F: np.ndarray, x: np.ndarray, d: float, kernel: KernelSpec,
                 phase: PolynomialPhase, lo: int, hi: int) -> np.ndarray:
    """out[q, i] = sum_j W[i, j] F[q, j] with the quadrature matrix W
    built row chunk by row chunk (closed-form Filon cells for a phase
    linear in y, subdivided cells otherwise).

    Row i has the cells [j, j + 1] with k = j - i in [lo, hi) and
    j < n - 1.  A cell's left end takes the tap K(-k d), its right end
    K(-(k + 1) d); taps off the band are 0, which zeroes the off-band
    cells of a chunk.  Only the cells [a - 1, b] that end on the hull [a, b]
    of the batch's nonzero nodes are built; other rows are 0, as in the full sum."""
    m, n = F.shape
    out = np.zeros((m, n), dtype=np.complex128)
    nonzero = np.flatnonzero(np.any(F != 0, axis=0))
    a, b = (int(nonzero[0]), int(nonzero[-1])) if nonzero.size else (n, -1)
    live = n - 1 - lo                 # rows i with a cell in their band
    r_lo, r_hi = max(0, a - hi), min(live, b - lo + 1)    # ... that meets [a - 1, b]
    if hi <= lo or r_hi <= r_lo:
        return out
    end = min(n - 1, b + 1)           # cells j < end

    def chunk(r0, c):                 # rows [r0, r1) over nodes [j0, j1): bound, bytes
        r1 = min(r0 + c, r_hi)
        j0, j1 = max(r0 + lo, a - 1), min(r1 - 1 + hi, end) + 1
        sub = _subcell_bound(x[r0:r1], d, phase, x[j0:j1])
        return r1, j0, j1, sub, 16 * (r1 - r0) * (j1 - j0) * sub

    i = np.arange(r_lo, r_hi)
    cells = int(np.sum(np.minimum(i + hi, end) - np.maximum(i + lo, a - 1)))
    sub = chunk(r_lo, r_hi - r_lo)[3]
    if cells * sub > _SUBCELL_LIMIT:
        raise ConfigError(f"the dense apply needs about {cells * sub:.3g} subcells "
                          f"({cells} cells x {sub} per cell), over the limit "
                          f"{_SUBCELL_LIMIT:.0e}; use fewer nodes or a smaller window")
    k = np.arange(1 - n, n)
    taps = kernel.evaluate(-k * d)    # t = (i - j) d, as on the fft-chirp path
    left = np.where((k >= lo) & (k < hi), taps, 0.0)
    right = np.where((k > lo) & (k <= hi), taps, 0.0)
    linear = phase.y_degree_at_most_one()
    if linear:
        A, B = phase.linear_parts(x[:live])
        m0, m1 = _filon_moments(B * d)
        dm0, dm1 = d * m0, d * m1
    r0 = r_lo
    while r0 < r_hi:
        # the most rows (at least one) whose W, times its own subcell bound, fits
        c = 1 + bisect.bisect(range(2, r_hi - r0 + 1), _CHUNK_BYTES, key=lambda c: chunk(r0, c)[4])
        r1, j0, j1 = chunk(r0, c)[:3]
        W = np.empty((r1 - r0, j1 - j0), dtype=np.complex128)
        cellw = W[:, :-1]             # cell [j, j + 1] weighs node j here ...
        if linear:
            np.multiply(B[r0:r1, None], x[j0:j1 - 1], out=cellw.imag)
            cellw.imag += A[r0:r1, None]
            np.cos(cellw.imag, out=cellw.real)
            np.sin(cellw.imag, out=cellw.imag)
            # dm * E, not E * dm: numpy's complex product need not commute
            ends = dm1[r0:r1, None] * cellw    # ... and node j + 1 here
            np.multiply(dm0[r0:r1, None], cellw, out=cellw)
        else:
            ends = _subdivided_weights(W, x, d, phase, r0, r1, j0, j1, lo, hi)
        tl = _toeplitz(left, n, r0, r1, j0, j1 - 1)
        tr = _toeplitz(right, n, r0, r1, j0 + 1, j1)
        cellw.real *= tl
        cellw.imag *= tl
        ends.real *= tr
        ends.imag *= tr
        W[:, -1] = 0.0
        W[:, 1:] += ends
        out[:, r0:r1] = (W @ F.T[j0:j1]).T
        r0 = r1
    return out


def _subdivided_weights(W: np.ndarray, x: np.ndarray, d: float,
                        phase: PolynomialPhase, r0: int, r1: int, j0: int,
                        j1: int, lo: int, hi: int) -> np.ndarray:
    """Subdivided cells of rows [r0, r1) over nodes [j0, j1): each cell
    gets r equal subcells with r the least count that keeps the phase
    increment per subcell at most pi/8 at the cell's centre, and the
    trapezoid rule on the linear interpolant.  Leaves each cell's
    left-end weight in W[:, :-1] and returns its right-end weights.

    e^{iP} is computed once per (row, node).  The subcells of cell
    [y_j, y_j + d] end at y_j + d, which can round apart from the node
    y_{j+1}, and a phase of size Phi moves by ~eps Phi between the two:
    the node value is turned by the difference of the two rounded
    phases (written where the right ends' sines go), exact and tiny, 0
    where the points agree, so e^{iP} at y_j + d costs no full-size
    sine.  Only the r - 1 interior points of each cell are added, cells
    grouped by r."""
    xr = x[r0:r1, None]
    arg = phase.evaluate(xr, x[j0:j1])
    np.cos(arg, out=W.real)
    np.sin(arg, out=W.imag)
    cellw = W[:, :-1]
    ends = np.empty_like(cellw)
    np.subtract(phase.evaluate(xr, x[j0:j1 - 1] + d), arg[:, 1:], out=ends.imag)
    del arg
    np.cos(ends.imag, out=ends.real)
    np.sin(ends.imag, out=ends.imag)
    ends *= W[:, 1:]
    # r and end in place: freed chunk-sized temporaries can stay in the
    # heap and raise a campaign's peak RSS (seen as +16 MB on osc_campaign)
    r = phase.partial_y(xr, (x[j0:j1 - 1] + x[j0 + 1:j1]) / 2.0)
    np.abs(r, out=r)
    r *= d
    r /= _PHASE_RESOLUTION
    np.ceil(r, out=r)
    np.maximum(1.0, r, out=r)
    q, c = np.nonzero(r > 1.0)
    band = (c - q >= lo - j0 + r0) & (c - q < hi - j0 + r0)    # k = j - i = c - q + j0 - r0
    q, c = q[band], c[band]
    counts = r[q, c].astype(np.int64)
    order = np.argsort(counts, kind="stable")
    groups = np.bincount(counts)
    end = r
    end *= 2.0
    np.divide(d, end, out=end)
    ends.real *= end
    ends.imag *= end
    cellw.real *= end
    cellw.imag *= end
    stop = np.cumsum(groups)
    for s in np.flatnonzero(groups):
        sel = order[stop[s] - groups[s]:stop[s]]
        qs, cs = q[sel], c[sel]
        theta = np.arange(1, s) / s
        wts = (d / s) * np.stack([1.0 - theta, theta], axis=1)
        arg = phase.evaluate(xr[qs], x[j0 + cs][:, None] + theta * d)
        re, im = np.cos(arg) @ wts, np.sin(arg) @ wts
        cellw.real[qs, cs] += re[:, 0]
        cellw.imag[qs, cs] += im[:, 0]
        ends.real[qs, cs] += re[:, 1]
        ends.imag[qs, cs] += im[:, 1]
    return ends


def _checked_batch(F: np.ndarray, x_lo: float, x_hi: float) -> np.ndarray:
    """F as an array, once it is a finite 2-D batch of >= 2 nodes on finite x_lo < x_hi."""
    F = np.asarray(F)
    if F.ndim != 2 or F.shape[1] < 2:
        raise DomainError(f"F must be 2-D with at least 2 nodes, got shape {F.shape}")
    if not np.all(np.isfinite(F)):
        raise DomainError("F must be finite")
    if not -math.inf < x_lo < x_hi < math.inf:
        raise DomainError(f"need finite x_lo < x_hi, got [{x_lo}, {x_hi}]")
    return F


def oscillatory_apply_batch(F: np.ndarray, x_lo: float, x_hi: float,
                            kernel: KernelSpec, phase: PolynomialPhase,
                            pv: PVConfig,
                            band_cells: Optional[tuple] = None) -> np.ndarray:
    """Apply the one-sided oscillatory operator to a batch of sampled
    functions (rows of F) over the cells k = j - i in ``band_cells``
    ([eps_cells, n - 1) by default).  Direction follows kernel.side; the
    minus side is evaluated as the exact mirror image of the plus side.
    The fft-chirp path when the phase allows it, else out[q, i] =
    sum_j W[i, j] F[q, j] with rows chunked to bound memory."""
    F = _checked_batch(F, x_lo, x_hi)
    if band_cells is not None and band_cells[0] < 0:
        raise DomainError(f"band cells must start at >= 0, got {band_cells}")
    n = F.shape[1]
    if pv.eps_cells >= n - 1:
        raise ConfigError("eps_cells exceeds the window")
    minus = kernel.side == "minus"
    if minus:
        # contiguous copy: the rounding must match a caller-side
        # reflected computation bit for bit
        F = np.ascontiguousarray(F[:, ::-1])
        x_lo, x_hi, kernel, phase = -x_hi, -x_lo, kernel.reflected(), phase.reflected()
    x = grid_nodes(x_lo, x_hi, n)
    d = (x_hi - x_lo) / (n - 1)
    lo, hi = (pv.eps_cells, n - 1) if band_cells is None else band_cells
    affine = _affine_y_coefficient(phase)
    if affine is not None:
        out = _apply_chirp(F, x, d, kernel, phase, *affine, lo, hi)
    else:
        out = _apply_dense(F, x, d, kernel, phase, lo, hi)
    return np.ascontiguousarray(out[:, ::-1]) if minus else out


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


# ---------------------------------------------------------------------------
# the operator dispatch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorSpec:
    """A named operator with its parameters, applied batch-wise."""

    kind: str                 # identity | m_plus | m_minus | singular | oscillatory | dyadic_piece
    kernel: Optional[KernelSpec] = None
    phase: Optional[PolynomialPhase] = None
    pv: PVConfig = PVConfig()
    j: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("identity", "m_plus", "m_minus", "singular",
                             "oscillatory", "dyadic_piece"):
            raise ConfigError(f"unknown operator kind {self.kind!r}")
        for name, kinds in (("kernel", ("singular", "oscillatory", "dyadic_piece")),
                            ("phase", ("oscillatory", "dyadic_piece")), ("j", ("dyadic_piece",))):
            given, taken = getattr(self, name) is not None, self.kind in kinds
            if given and not taken:
                raise ConfigError(f"{self.kind} takes no {name}")
            if taken and not given and name != "phase":     # a missing phase is 0
                raise ConfigError(f"{self.kind} needs {name}")

    def describe(self) -> str:
        if self.kind in ("identity", "m_plus", "m_minus"):
            return self.kind
        parts = [self.kind, self.kernel.tag, self.kernel.side]
        if self.kind == "oscillatory" and self.phase is not None:
            body = ";".join(f"{v}x^{a}y^{b}" for (a, b), v in self.phase.terms)
            parts.append("P=" + (body or "0"))
        if self.kind == "dyadic_piece":
            parts.append(f"j={self.j}")
        return "|".join(parts)

    def apply_batch(self, F: np.ndarray, x_lo: float, x_hi: float) -> np.ndarray:
        """The operator on every row of F, sampled on [x_lo, x_hi].  A
        dyadic piece whose band starts at or past the last node is empty
        and gives zeros."""
        phase = PolynomialPhase.zero() if self.phase is None else self.phase
        if self.kind in ("singular", "oscillatory"):     # which checks F itself
            return oscillatory_apply_batch(F, x_lo, x_hi, self.kernel, phase, self.pv)
        F = _checked_batch(F, x_lo, x_hi)
        n = F.shape[1]
        d = (x_hi - x_lo) / (n - 1)
        if self.kind == "identity":
            return F.copy()
        if self.kind == "m_plus":
            return forward_extremal_averages(F, d).astype(np.complex128)
        if self.kind == "m_minus":
            return backward_extremal_averages(F, d).astype(np.complex128)
        if self.j < 0:
            raise DomainError("need j >= 0")
        if (self.j > (n - 1).bit_length()       # then k0 2^(j-1) >= n: skip forming it
                or (band := dyadic_band_cells(d, self.j, self.pv.eps_cells))[0] >= n - 1):
            return np.zeros_like(F)
        return oscillatory_apply_batch(F, x_lo, x_hi, self.kernel, phase, self.pv, band)

    def to_json(self) -> dict:
        obj = {"kind": self.kind, "pv": {"eps_cells": self.pv.eps_cells}}
        if self.kernel is not None:
            obj["kernel"] = self.kernel.to_json()
        if self.phase is not None:
            obj["phase"] = self.phase.to_json()
        if self.j is not None:
            obj["j"] = self.j
        return obj


def _apply_one(op: OperatorSpec, f: SampledFunction) -> SampledFunction:
    """``op`` applied to the single function f."""
    return f.with_values(op.apply_batch(f.values[None, :], f.x_lo, f.x_hi)[0])


def m_plus(f: SampledFunction) -> SampledFunction:
    """One-sided maximal function sup_{h>0} (1/h) int_x^{x+h} |f|."""
    return _apply_one(OperatorSpec("m_plus"), f)


def m_minus(f: SampledFunction) -> SampledFunction:
    """Mirror image of m_plus (backward averages)."""
    return _apply_one(OperatorSpec("m_minus"), f)


# ---------------------------------------------------------------------------
# kernel cancellation and phase normalization
# ---------------------------------------------------------------------------

def kernel_cancellation_sup(kernel: KernelSpec, eps_grid, N_grid) -> float:
    """max over the (eps, N) grid of |int_{eps<|t|<N} K(t) dt|.

    The integrand lives on exponential scales, so the quadrature runs
    on _CANCEL_NODES log-spaced nodes (fine trapezoid in u = ln|t|).
    """
    eps_grid = [float(e) for e in eps_grid]
    N_grid = [float(N) for N in N_grid]
    for name, radii in (("eps_grid", eps_grid), ("N_grid", N_grid)):
        if not radii or not all(0.0 < r < math.inf for r in radii):
            raise DomainError(f"{name}: need radii in (0, inf), got {radii!r:.60}")
    pairs = [(e, N) for e in eps_grid for N in N_grid if e < N]
    if not pairs:
        raise DomainError("no admissible pair with eps < N")
    u_lo, u_hi = math.log(min(eps_grid)), math.log(max(N_grid))
    u = np.linspace(u_lo, u_hi, _CANCEL_NODES)
    s = np.exp(u)
    du = (u_hi - u_lo) / (_CANCEL_NODES - 1)
    # int_{eps<|t|<N} K is int_eps^N K(sg s) s du in u = ln s coordinates,
    # sg the sign of the kernel's side (the negative side's orientation flip
    # cancels against dt = -ds)
    integ = kernel.evaluate((-1.0 if kernel.side == "plus" else 1.0) * s) * s
    best = 0.0
    for e, N in pairs:
        g = np.where((s >= e) & (s <= N), integ, 0.0)
        best = max(best, abs(float(np.sum((g[:-1] + g[1:]) / 2.0) * du)))
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
