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

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError
from .grid import grid_nodes
from .operators import (KernelSpec, PolynomialPhase, PVConfig,
                        dyadic_band_cells, forward_extremal_averages,
                        oscillatory_apply_batch)
from .weights import WeightSpec

__all__ = [
    "STANDARD_WINDOW", "STANDARD_N", "STANDARD_P", "STANDARD_SEED",
    "STANDARD_COUNT",
    "TestFunctionFamily", "OperatorSpec", "NormRatioReport", "DecayFit",
    "generate_family", "norm_ratio", "coefficient_sweep", "dyadic_decay",
    "weighted_norms_batch", "write_campaign_csv", "config_digest",
]

# Reproducibility anchor: every acceptance number is produced at this
# configuration unless the check says otherwise.
STANDARD_WINDOW = (-8.0, 8.0)
STANDARD_N = 4096
STANDARD_P = 2.0
STANDARD_SEED = 20240901
STANDARD_COUNT = 64


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
        if self.count < 0:
            raise ConfigError("count must be >= 0")
        lo, hi = self.support
        if not lo < hi:
            raise ConfigError("support must satisfy lo < hi")
        object.__setattr__(self, "support", (float(lo), float(hi)))

    def to_json(self) -> dict:
        return {"kind": self.kind, "count": self.count, "seed": self.seed,
                "support": list(self.support)}

    @staticmethod
    def from_json(obj: dict) -> "TestFunctionFamily":
        try:
            return TestFunctionFamily(obj["kind"], obj["count"], obj["seed"],
                                      tuple(obj["support"]))
        except KeyError as exc:
            raise ConfigError(f"family missing field {exc}") from exc


def generate_family(family: TestFunctionFamily, x_lo: float, x_hi: float,
                    n: int) -> np.ndarray:
    """Member samples as rows of an (count, n) complex matrix.

    Member i depends only on (seed, i), so a longer family with the
    same seed extends this one member for member.
    """
    lo, hi = family.support
    if lo < x_lo or hi > x_hi:
        raise ConfigError(f"support {family.support} outside window [{x_lo}, {x_hi}]")
    x = grid_nodes(x_lo, x_hi, n)
    d = (x_hi - x_lo) / (n - 1)
    inside = (x >= lo) & (x <= hi)
    out = np.zeros((family.count, n), dtype=np.complex128)
    width = hi - lo
    for i in range(family.count):
        rng = np.random.default_rng([family.seed, i])
        if family.kind == "random-bump-sums":
            vals = np.zeros(n)
            for _ in range(int(rng.integers(1, 9))):
                c = rng.uniform(lo, hi)
                w = rng.uniform(0.1, max(0.2, 0.4 * width))
                a = rng.uniform(-1.0, 1.0)
                vals += a * np.maximum(0.0, 1.0 - np.abs(x - c) / w)
            out[i] = vals * inside
        elif family.kind == "modulated-gaussians":
            c = rng.uniform(lo, hi)
            sigma = rng.uniform(0.1, 0.5)
            omega = rng.uniform(0.0, math.pi / (4.0 * d))
            prof = np.exp(-((x - c) ** 2) / (2.0 * sigma ** 2))
            out[i] = np.exp(1j * omega * x) * prof * inside
        else:  # haar-like-steps
            nseg = int(rng.integers(4, 17))
            cuts = np.sort(rng.uniform(lo, hi, nseg - 1))
            edges = np.concatenate([[lo], cuts, [hi]])
            signs = rng.choice([-1.0, 1.0], nseg)
            vals = np.zeros(n)
            for s, (e0, e1) in zip(signs, zip(edges[:-1], edges[1:])):
                vals += s * ((x >= e0) & (x < e1))
            out[i] = vals * inside
    return out


# ---------------------------------------------------------------------------
# operators as campaign descriptors
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
        if self.kind in ("singular", "oscillatory", "dyadic_piece") and self.kernel is None:
            raise ConfigError(f"{self.kind} needs a kernel")
        if self.kind == "dyadic_piece" and self.j is None:
            raise ConfigError("dyadic_piece needs j")

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
        d = (x_hi - x_lo) / (F.shape[1] - 1)
        if self.kind == "identity":
            return F.copy()
        if self.kind == "m_plus":
            return forward_extremal_averages(F, d).astype(np.complex128)
        if self.kind == "m_minus":
            rev = forward_extremal_averages(F[:, ::-1], d)
            return rev[:, ::-1].astype(np.complex128)
        phase = self.phase if self.phase is not None else PolynomialPhase.zero()
        if self.kind == "singular":
            phase = PolynomialPhase.zero()
        band = None
        if self.kind == "dyadic_piece":
            band = dyadic_band_cells(d, self.j, self.pv.eps_cells)
            if band[0] >= F.shape[1] - 1:
                return np.zeros_like(F)
        return oscillatory_apply_batch(F, x_lo, x_hi, self.kernel, phase,
                                       self.pv, band)

    def to_json(self) -> dict:
        obj = {"kind": self.kind, "pv": {"eps_cells": self.pv.eps_cells,
                                         "refine_checks": self.pv.refine_checks}}
        if self.kernel is not None:
            obj.update(self.kernel.to_json())
        if self.phase is not None:
            obj.update(self.phase.to_json())
        if self.j is not None:
            obj["j"] = self.j
        return obj


# ---------------------------------------------------------------------------
# norm-ratio estimation
# ---------------------------------------------------------------------------

def weighted_norms_batch(G: np.ndarray, wv: Optional[np.ndarray], d: float,
                         p: float) -> np.ndarray:
    """Row-wise trapezoid value of (int |g|^p w)^{1/p}."""
    integ = np.abs(G) ** p
    if wv is not None:
        integ = integ * wv
    return (d * np.sum((integ[:, :-1] + integ[:, 1:]) / 2.0, axis=1)) ** (1.0 / p)


def config_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class NormRatioReport:
    """Best weighted norm ratio over a family: a lower bound of the
    operator norm by construction."""

    best_ratio: float
    argmax_index: int
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
    x_lo, x_hi = window
    d = (x_hi - x_lo) / (n - 1)
    F = generate_family(family, x_lo, x_hi, n)
    G = op.apply_batch(F, x_lo, x_hi)
    wv = None if w is None else w.realize(x_lo, x_hi, n)
    nf = weighted_norms_batch(F, wv, d, p)
    ng = weighted_norms_batch(G, wv, d, p)
    ok = nf > 0.0
    ratios = np.where(ok, ng / np.where(ok, nf, 1.0), -math.inf)
    if not np.any(ok):
        raise ConfigError("every family member has zero norm")
    arg = int(np.argmax(ratios))
    digest = config_digest({"op": op.to_json(),
                            "w": None if w is None else w.to_json(),
                            "p": p, "family": family.to_json(),
                            "window": list(window), "n": n})
    return NormRatioReport(float(ratios[arg]), arg, family, digest,
                           int(np.sum(~ok)), tuple(np.where(ok, ratios, 0.0)))


def coefficient_sweep(kernel: KernelSpec, monomial: tuple, coeffs: Sequence[float],
                      w: Optional[WeightSpec], p: float,
                      family: TestFunctionFamily,
                      window: tuple = STANDARD_WINDOW, n: int = STANDARD_N,
                      pv: PVConfig = PVConfig()) -> list:
    """norm_ratio of T^+ with phase a x^k y^l for each coefficient a."""
    k, l = monomial
    reports = []
    for a in coeffs:
        if a == 0.0:
            raise ConfigError("sweep coefficients must be nonzero")
        op = OperatorSpec("oscillatory", kernel,
                          PolynomialPhase.monomial(k, l, float(a)), pv)
        reports.append(norm_ratio(op, w, p, family, window, n))
    return reports


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log2 best_ratio against the dyadic index."""

    j_values: tuple
    log2_ratios: tuple
    slope: float
    intercept: float


def dyadic_decay(kernel: KernelSpec, phase: PolynomialPhase, p: float,
                 w: Optional[WeightSpec], family: TestFunctionFamily,
                 j_max: int, window: tuple, n: int,
                 pv: PVConfig = PVConfig()) -> DecayFit:
    """Fitted decay of the dyadic-piece norm ratios for j = 1..j_max."""
    if j_max < 3:
        raise ConfigError("need j_max >= 3 for a meaningful fit")
    x_lo, x_hi = window
    if family.support[0] - 2.0 ** j_max < x_lo - 1e-9:
        raise ConfigError(
            f"window too small: piece {j_max} needs x down to "
            f"{family.support[0] - 2.0 ** j_max}, window starts at {x_lo}")
    js, logs = [], []
    for j in range(1, j_max + 1):
        op = OperatorSpec("dyadic_piece", kernel, phase, pv, j=j)
        rep = norm_ratio(op, w, p, family, window, n)
        js.append(j)
        logs.append(math.log2(max(rep.best_ratio, 1e-300)))
    slope, intercept = np.polyfit(np.asarray(js, dtype=float),
                                  np.asarray(logs, dtype=float), 1)
    return DecayFit(tuple(js), tuple(logs), float(slope), float(intercept))


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("campaign", "operator", "weight", "p", "param",
               "best_ratio", "argmax_index", "window", "n", "seed")


def campaign_row(campaign: str, op: OperatorSpec, w: Optional[WeightSpec],
                 p: float, param, report: NormRatioReport,
                 window: tuple, n: int) -> dict:
    return {"campaign": campaign, "operator": op.describe(),
            "weight": "1" if w is None else w.label(), "p": repr(p),
            "param": repr(param), "best_ratio": repr(report.best_ratio),
            "argmax_index": report.argmax_index,
            "window": f"{window[0]},{window[1]}", "n": n,
            "seed": report.family.seed}


def decay_rows(fit: DecayFit, weight_label: str, p: float, window: tuple,
               n: int, seed: int) -> list:
    """One campaign row per dyadic piece of a decay fit."""
    return [{"campaign": "decay", "operator": f"dyadic_piece|j={j}",
             "weight": weight_label, "p": repr(p), "param": repr(j),
             "best_ratio": repr(2.0 ** lg), "argmax_index": -1,
             "window": f"{window[0]},{window[1]}", "n": n, "seed": seed}
            for j, lg in zip(fit.j_values, fit.log2_ratios)]


def write_campaign_csv(path, rows, sidecar_path=None, configs=None):
    """Campaign CSV plus a JSON sidecar holding the full config digests.
    Output is byte-deterministic: no timestamps, repr-formatted floats."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    if sidecar_path is not None:
        with open(sidecar_path, "w") as fh:
            json.dump(configs or [], fh, sort_keys=True, indent=1)
            fh.write("\n")
