"""Operator-norm estimation campaigns.

Operator norms are estimated from below by maximizing weighted
norm ratios over finite adversarial families of test functions, so
every reported ratio is a certificate ("the norm is at least this"),
never an upper bound.  The campaigns built on top probe the qualitative
claims of the underlying theory: boundedness signatures under window doubling,
coefficient-independence of oscillatory norms, and geometric decay of
the dyadic pieces.

Families are generated deterministically from (seed, member index), so
enlarging a family keeps its prefix and rerunning a campaign reproduces
every number bit for bit.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DomainError, read_fields
from .grid import check_working_bytes, dual_exponent, grid_nodes
from .operators import KernelSpec, OperatorSpec, PolynomialPhase, PVConfig
from .weights import WeightSpec

__all__ = [
    "STANDARD_WINDOW", "STANDARD_N", "STANDARD_P", "STANDARD_SEED",
    "TestFunctionFamily", "OperatorSpec", "NormRatioReport", "DecayFit",
    "generate_family", "family_member", "norm_ratio", "coefficient_sweep",
    "dyadic_decay", "weighted_norms_batch", "write_csv", "config_digest",
    "config_echo", "json_digest",
]

# Reproducibility anchor: every acceptance number is produced at this
# configuration unless the check says otherwise.
STANDARD_WINDOW = (-8.0, 8.0)
STANDARD_N = 4096
STANDARD_P = 2.0
STANDARD_SEED = 20240901


# ---------------------------------------------------------------------------
# test function families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunctionFamily:
    """Deterministic pseudo-random family of probe functions."""

    __test__ = False          # not a pytest class, despite the name

    kind: str                 # random-bump-sums | modulated-gaussians | haar-like-steps
    count: int
    seed: int
    support: tuple            # (lo, hi), inside the evaluation window

    def __post_init__(self):
        if self.kind not in ("random-bump-sums", "modulated-gaussians",
                             "haar-like-steps"):
            raise ConfigError(f"unknown family kind {self.kind!r}")
        if self.count < 0 or self.seed < 0:
            raise ConfigError(f"count and seed must be >= 0, got {self.count} and {self.seed}")
        lo, hi = self.support
        if not -math.inf < lo < hi < math.inf:
            raise ConfigError("support must satisfy finite lo < hi")
        object.__setattr__(self, "support", (float(lo), float(hi)))

    @staticmethod
    def from_json(obj: dict, path: str = "family") -> "TestFunctionFamily":
        return read_fields(TestFunctionFamily, obj, {"kind": str, "count": int, "seed": int,
                                                     "support": (float, float)}, path)


def generate_family(family: TestFunctionFamily, x_lo: float, x_hi: float,
                    n: int) -> np.ndarray:
    """Member samples as (count, n) rows: complex128 for modulated-gaussians, else float64.

    Member i depends only on (seed, i), so a longer family with the
    same seed extends this one member for member.
    """
    return _members(family, range(family.count), x_lo, x_hi, n)


def family_member(family: TestFunctionFamily, index: int, x_lo: float,
                  x_hi: float, n: int) -> np.ndarray:
    """Row ``index`` of ``generate_family`` alone, bit for bit."""
    return _members(family, [index], x_lo, x_hi, n)[0]


def _members(family: TestFunctionFamily, indices, x_lo: float, x_hi: float,
             n: int) -> np.ndarray:
    lo, hi = family.support
    if lo < x_lo or hi > x_hi:
        raise ConfigError(f"support {family.support} outside window [{x_lo}, {x_hi}]")
    # 16 complex (rows, n) blocks: the samples, the apply's output and the
    # norms' temporaries, and the apply's blocks of _CHUNK_BYTES, which do not
    # grow with the rows; a sweep's peak measured at 3.0 for 64 x 16384 and
    # 256 x 4096 samples, at up to 8.8 for 16 x 1024; real rows use half of it
    check_working_bytes(16 * 16 * len(indices) * n,
                        f"a family of {len(indices)} x {n} samples and its apply")
    x = grid_nodes(x_lo, x_hi, n)
    d = (x_hi - x_lo) / (n - 1)
    inside = np.flatnonzero((x >= lo) & (x <= hi))    # members vanish elsewhere
    x = x[inside]
    out = np.zeros((len(indices), n), complex if family.kind == "modulated-gaussians" else float)
    for q, i in enumerate(indices):
        rng = np.random.default_rng([family.seed, i])
        if family.kind == "random-bump-sums":
            vals = np.zeros(x.size)
            for _ in range(int(rng.integers(1, 9))):
                c = rng.uniform(lo, hi)
                w = rng.uniform(0.1, max(0.2, 0.4 * (hi - lo)))
                a = rng.uniform(-1.0, 1.0)
                vals += a * np.maximum(0.0, 1.0 - np.abs(x - c) / w)
            out[q, inside] = vals
        elif family.kind == "modulated-gaussians":
            c = rng.uniform(lo, hi)
            sigma = rng.uniform(0.1, 0.5)
            omega = rng.uniform(0.0, math.pi / (4.0 * d))
            prof = np.exp(-((x - c) ** 2) / (2.0 * sigma ** 2))
            out[q, inside] = np.exp(1j * omega * x) * prof
        else:  # haar-like-steps
            nseg = int(rng.integers(4, 17))
            cuts = np.sort(rng.uniform(lo, hi, nseg - 1))
            edges = np.concatenate([[lo], cuts, [hi]])
            signs = rng.choice([-1.0, 1.0], nseg)
            vals = np.zeros(x.size)
            for s, (e0, e1) in zip(signs, zip(edges[:-1], edges[1:])):
                vals += s * ((x >= e0) & (x < e1))
            out[q, inside] = vals
    return out


# ---------------------------------------------------------------------------
# norm-ratio estimation
# ---------------------------------------------------------------------------

def weighted_norms_batch(G: np.ndarray, wv: Optional[np.ndarray], d: float,
                         p: float) -> np.ndarray:
    """Row-wise trapezoid value of (int |g|^p w)^{1/p}.  A row whose integral
    underflows to 0 or overflows is taken as max|g| (int (|g| / max|g|)^p w)^{1/p}."""
    def integrals(a):         # d times the sum of the trapezoid cells of a^p w, formed in a
        a **= p
        if wv is not None:
            a *= wv
        return d * np.sum(np.divide(np.add(a[:, :-1], a[:, 1:], out=a[:, 1:]), 2.0,
                                    out=a[:, 1:]), axis=1)
    with np.errstate(over="ignore"):       # an overflowing row is taken again
        integ = integrals(np.abs(G))
    norms = integ ** (1.0 / p)
    redo = np.flatnonzero((integ == 0.0) | ~np.isfinite(integ))
    a = np.abs(G[redo])
    top = np.max(a, axis=1)
    a /= np.where(np.isfinite(top) & (top > 0.0), top, 1.0)[:, None]    # 0, inf, NaN stay
    norms[redo] = integrals(a) ** (1.0 / p) * top
    return norms


def config_echo(obj):
    """A copy of the JSON value ``obj`` in which each ``"form": "sampled"`` object
    gives its ``values`` as ``values_sha256``, the hex SHA-256 of the samples'
    little-endian float64 bytes: the form sidecars record and digests hash."""
    if not isinstance(obj, dict):
        return [config_echo(v) for v in obj] if isinstance(obj, list) else obj
    echo = dict(obj)
    if echo.get("form") == "sampled" and isinstance(echo.get("values"), list):
        with contextlib.suppress(TypeError, ValueError, OverflowError):  # an unread field
            echo["values_sha256"] = hashlib.sha256(np.asarray(echo["values"], "<f8")).hexdigest()
            del echo["values"]
    return {k: config_echo(v) for k, v in echo.items()}


def config_digest(obj) -> str:
    return json_digest(json.dumps(config_echo(obj), sort_keys=True))


def json_digest(text: str) -> str:
    """``config_digest`` of the config whose echo's sorted-keys JSON is ``text``."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class NormRatioReport:
    """Best weighted norm ratio of ``operator`` over a family: a lower
    bound of its norm by construction."""

    best_ratio: float
    argmax_index: int
    operator: OperatorSpec
    family: TestFunctionFamily
    config_digest: str
    skipped: int = 0
    ratios: tuple = field(default=(), repr=False)


def norm_ratio(op: OperatorSpec, w: Optional[WeightSpec], p: float,
               family: TestFunctionFamily,
               window: tuple = STANDARD_WINDOW,
               n: int = STANDARD_N) -> NormRatioReport:
    """max over the family of ||S f||_{L^p(w)} / ||f||_{L^p(w)}.

    Members with vanishing norm are skipped (counted); the argmax takes
    the lowest index on ties, so reports are deterministic functions of
    (config, seed).
    """
    return _norm_ratio(op, w, p, family, window, n, *_family_norms(w, p, family, window, n))


def _family_norms(w: Optional[WeightSpec], p: float, family, window: tuple, n: int) -> tuple:
    """F, the realized weight wv (None for w = 1) and ||f||_{L^p(w)}, shared by a campaign."""
    dual_exponent(p)  # refuses p outside (1, inf)
    x_lo, x_hi = window
    F = generate_family(family, x_lo, x_hi, n)
    wv = None if w is None else w.realize(x_lo, x_hi, n)
    return F, wv, weighted_norms_batch(F, wv, (x_hi - x_lo) / (n - 1), p)


def _norm_ratio(op: OperatorSpec, w: Optional[WeightSpec], p: float, family, window: tuple,
                n: int, F: np.ndarray, wv, nf: np.ndarray) -> NormRatioReport:
    """``norm_ratio`` given ``_family_norms``."""
    x_lo, x_hi = window
    G = op.apply_batch(F, x_lo, x_hi)
    ng = weighted_norms_batch(G, wv, (x_hi - x_lo) / (n - 1), p)
    ok = nf > 0.0
    ratios = np.where(ok, ng / np.where(ok, nf, 1.0), -math.inf)
    if not np.any(ok):
        raise ConfigError("every family member has zero norm")
    arg = int(np.argmax(ratios))
    digest = config_digest({"op": op.to_json(),
                            "w": None if w is None else w.to_json(),
                            "p": p, "family": asdict(family),
                            "window": list(window), "n": n})
    return NormRatioReport(float(ratios[arg]), arg, op, family, digest,
                           int(np.sum(~ok)), tuple(np.where(ok, ratios, 0.0)))


def coefficient_sweep(kernel: KernelSpec, monomial: tuple, coeffs: Sequence[float],
                      w: Optional[WeightSpec], p: float,
                      family: TestFunctionFamily,
                      window: tuple = STANDARD_WINDOW, n: int = STANDARD_N,
                      pv: PVConfig = PVConfig()) -> list:
    """norm_ratio of T^+ with phase a x^k y^l for each coefficient a."""
    k, l = monomial
    if not all(0.0 < abs(a) < math.inf for a in coeffs):
        raise ConfigError(f"coeffs: need finite nonzero coefficients, got {list(coeffs)!r:.60}")
    shared = _family_norms(w, p, family, window, n)
    return [_norm_ratio(OperatorSpec("oscillatory", kernel,
                                     PolynomialPhase.monomial(k, l, float(a)), pv),
                        w, p, family, window, n, *shared) for a in coeffs]


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log2 best_ratio against the dyadic index, with
    each piece's best_ratio and argmax_index as its report gave them."""

    j_values: tuple
    log2_ratios: tuple
    slope: float
    intercept: float
    best_ratios: tuple
    argmax_indices: tuple


def dyadic_decay(kernel: KernelSpec, phase: PolynomialPhase, p: float,
                 w: Optional[WeightSpec], family: TestFunctionFamily,
                 j_max: int, window: tuple, n: int,
                 pv: PVConfig = PVConfig()) -> DecayFit:
    """Fitted decay of the dyadic-piece norm ratios for j = 1..j_max."""
    if j_max < 3:
        raise ConfigError(f"j_max: need j_max >= 3 for a meaningful fit, got {j_max}")
    x_lo, x_hi = window
    reach = family.support[0] - (2.0 ** j_max if j_max < 1024 else math.inf)
    if reach < x_lo - 1e-9:
        raise ConfigError(f"j_max: window too small: piece {j_max} needs x down to "
                          f"{reach}, window starts at {x_lo}")
    shared = _family_norms(w, p, family, window, n)
    js = tuple(range(1, j_max + 1))
    reps = [_norm_ratio(OperatorSpec("dyadic_piece", kernel, phase, pv, j=j),
                        w, p, family, window, n, *shared) for j in js]
    vanishing = [j for j, rep in zip(js, reps) if rep.best_ratio == 0.0]
    if vanishing:
        raise DomainError(f"dyadic pieces {vanishing} vanish on every member (best ratio "
                          "0), so log2 of their ratio and the fit are undefined")
    logs = tuple(math.log2(rep.best_ratio) for rep in reps)
    slope = intercept = math.nan          # no fit through a ratio that overflowed
    if all(map(math.isfinite, logs)):
        slope, intercept = np.polyfit(np.asarray(js, dtype=float),
                                      np.asarray(logs, dtype=float), 1)
    return DecayFit(js, logs, float(slope), float(intercept),
                    tuple(rep.best_ratio for rep in reps),
                    tuple(rep.argmax_index for rep in reps))


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("campaign", "operator", "weight", "p", "param",
               "best_ratio", "argmax_index", "window", "n", "seed")


def campaign_row(campaign: str, w: Optional[WeightSpec], p: float, param,
                 report: NormRatioReport, window: tuple, n: int) -> list:
    """The ``CSV_COLUMNS`` row of ``report``, naming the operator it applied."""
    return [campaign, report.operator.describe(), "1" if w is None else w.label(), repr(p),
            repr(param), repr(report.best_ratio), report.argmax_index,
            f"{window[0]},{window[1]}", n, report.family.seed]


def decay_rows(fit: DecayFit, weight_label: str, p: float, window: tuple,
               n: int, seed: int) -> list:
    """The ``CSV_COLUMNS`` row of each dyadic piece of a decay fit."""
    return [["decay", f"dyadic_piece|j={j}", weight_label, repr(p), repr(j), repr(ratio), arg,
             f"{window[0]},{window[1]}", n, seed]
            for j, ratio, arg in zip(fit.j_values, fit.best_ratios, fit.argmax_indices)]


def write_csv(path, header, rows):
    """A CSV of ``header`` and ``rows``.  Byte-deterministic: no timestamps,
    and floats as the repr text the rows hold."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
