"""The acceptance battery: every check the toolkit promises, each with
its pinned configuration, tolerance, and expected desk runtime.

``run_all`` executes the sixteen checks at the standard configuration
(window [-8, 8], n = 4096, p = 2, seed 20240901, family count 64 --
wider stated windows where dyadic ranges cannot fit) and optionally
writes byte-deterministic CSV artifacts: a pass/fail summary plus the
campaign tables.  Rerunning with the same seed reproduces every file
byte for byte; pytest wraps each criterion as a test and checks that
reproducibility by diffing two runs.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .experiments import (CSV_COLUMNS, STANDARD_N, STANDARD_P, STANDARD_SEED,
                          STANDARD_WINDOW, OperatorSpec, TestFunctionFamily,
                          campaign_row, coefficient_sweep, decay_rows,
                          dyadic_decay, norm_ratio, write_csv)
from .grid import SampledFunction, grid_nodes
from .interpolate import InterpolationEndpoints, verify_on_multiplier
from .operators import (PolynomialPhase, PVConfig, dyadic_band_cells,
                        forward_extremal_averages, kernel_cancellation_sup,
                        m_plus, oscillating_log_kernel,
                        oscillatory_apply_batch, scaling_identity_check)
from .weights import (TripleSearchConfig, WeightSpec, a1_constant,
                      ap_both_constant, ap_general_constant, ap_minus_constant,
                      ap_plus_constant, dilate, dual_weight, gamma_fourpoint_constant,
                      power_bump_search, rh_infty_constant, rh_plus_constant)

__all__ = ["CriterionResult", "run_all", "CRITERIA"]


@dataclass
class CriterionResult:
    """One criterion's verdict, plus the campaigns.csv rows and the
    campaigns.json entries of the campaigns it ran."""

    cid: int
    name: str
    passed: bool
    details: dict
    elapsed: float = 0.0
    rows: list = field(default_factory=list)
    configs: list = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.cid:2d}: {self.name} ({self.elapsed:.1f}s)"


def _cfg(window=STANDARD_WINDOW, **kw) -> TripleSearchConfig:
    base = dict(n_anchor=33, n_h=12, h_min=0.05, n_grid=STANDARD_N)
    base.update(kw)
    return TripleSearchConfig(window, **base)


_CATALOG = {
    "1": WeightSpec.constant(1.0),
    "e^x": WeightSpec.exponential(1.0),
    "|x|^0.5": WeightSpec.power(0.5),
    "e^x|x|^0.3": WeightSpec.product(1.0, 0.3, 1.0),
}


def _spike_train() -> WeightSpec:
    """A strictly positive sampled weight that fails every reverse
    Holder form at desk scale: one cell-wide unit spike over a 1e-8
    baseline (mass far to the left of the window keeps the maximal
    function at the witness endpoints tiny)."""
    n = STANDARD_N
    vals = np.full(n, 1e-8)
    x = grid_nodes(*STANDARD_WINDOW, n)
    vals[int(np.argmin(np.abs(x - (-7.5))))] = 1.0
    return WeightSpec.sampled(SampledFunction(*STANDARD_WINDOW, n, vals))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def criterion_01(seed: int) -> CriterionResult:
    """Unit-weight identities return exactly 1 (tolerance 1e-12)."""
    cfg = _cfg()
    one = WeightSpec.constant(1.0)
    vals = {
        "ap_plus": ap_plus_constant(one, 2.0, cfg).constant,
        "ap_minus": ap_minus_constant(one, 2.0, cfg).constant,
        "a1_plus": a1_constant(one, "plus", cfg).constant,
        "a1_minus": a1_constant(one, "minus", cfg).constant,
        "rh_infty": rh_infty_constant(one, cfg).constant,
        "gamma_fourpoint": gamma_fourpoint_constant(one, 2.0, cfg).constant,
    }
    passed = all(abs(v - 1.0) <= 1e-12 for v in vals.values())
    return CriterionResult(1, "unit-weight identities", passed, vals)


def criterion_02(seed: int) -> CriterionResult:
    """Duality power law on matched triples (tolerance 1e-9 relative,
    floored at 1)."""
    cfg = _cfg(n_grid=1025, n_anchor=33, n_h=8)
    worst = 0.0
    for name in ("e^x", "|x|^0.5", "e^x|x|^0.3"):
        w = _CATALOG[name]
        for p in (1.5, 2.0, 3.0):
            pc = p / (p - 1.0)
            lhs = ap_general_constant(dual_weight(w, p), pc, "minus", cfg).constant
            rhs = ap_general_constant(w, p, "plus", cfg).constant ** (pc - 1.0)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return CriterionResult(2, "duality power law", worst <= 1e-9, {"worst_rel": worst})


def criterion_03(seed: int) -> CriterionResult:
    """Dilation invariance of the Sawyer estimate (tolerance 1e-9)."""
    cfg = _cfg()
    worst = 0.0
    for name, w in _CATALOG.items():
        base = ap_plus_constant(w, 2.0, cfg).constant
        for lam in (2.0, 0.5, 4.0):
            other = ap_plus_constant(dilate(w, lam), 2.0, cfg.scaled(lam)).constant
            worst = max(worst, abs(other - base) / max(1.0, abs(base)))
    return CriterionResult(3, "dilation invariance", worst <= 1e-9, {"worst_rel": worst})


def criterion_04(seed: int) -> CriterionResult:
    """e^x is one-sidedly flat (A_1^+ = 1) yet fails both-sided A_2
    spectacularly at window [-8, 8] (ceiling 10^3)."""
    cfg = _cfg(h_max=15.99, ceiling=1e3)
    a1 = a1_constant(_CATALOG["e^x"], "plus", cfg)
    both = ap_both_constant(_CATALOG["e^x"], 2.0, cfg)
    passed = (a1.constant <= 1.0 + 1e-6 and both.constant > 1e3
              and not both.finite_flag)
    return CriterionResult(4, "one-sided vs both-sided separation", passed,
                           {"a1_plus": a1.constant, "both_A2": both.constant,
                            "both_finite": both.finite_flag})


def criterion_05(seed: int) -> CriterionResult:
    """|x|^0.5 has refinement-stable A_2^+ (drift <= 10% over two
    doublings); |x|^1.5 trips the 10^3 ceiling at n = 65536."""
    consts = [ap_plus_constant(_CATALOG["|x|^0.5"], 2.0,
                               _cfg(n_anchor=65, n_h=16, n_grid=ng)).constant
              for ng in (4096, 8192, 16384)]
    drifts = [abs(consts[i + 1] - consts[i]) / consts[i] for i in range(2)]
    div = ap_plus_constant(WeightSpec.power(1.5), 2.0,
                           _cfg(n_anchor=65, n_h=16, n_grid=65536, ceiling=1e3))
    passed = max(drifts) <= 0.10 and not div.finite_flag
    return CriterionResult(5, "power-weight threshold", passed,
                           {"stable_constants": consts, "drifts": drifts,
                            "divergent_constant": div.constant,
                            "divergent_finite": div.finite_flag})


def criterion_06(seed: int) -> CriterionResult:
    """M+ of the unit indicator matches its closed form nodewise within
    2 spacings."""
    n = 4097
    f = SampledFunction.from_callable(
        lambda x: ((x >= 0) & (x < 1)).astype(float), -4.0, 4.0, n)
    got = m_plus(f).values
    x = f.nodes()
    expect = np.where(x < 0, 1.0 / np.where(x < 0, 1.0 - x, 1.0),
                      np.where(x < 1.0, 1.0, 0.0))
    err = float(np.max(np.abs(got - expect)))
    return CriterionResult(6, "maximal-operator closed form",
                           err <= 2.0 * f.spacing,
                           {"max_err": err, "bound": 2.0 * f.spacing})


def criterion_07(seed: int) -> CriterionResult:
    """All five reverse Holder forms are finite together on |x|^0.5
    (r = 1.2) and diverge together on a spike train (r = 3)."""
    cfg = _cfg()
    fin = [rh_plus_constant(_CATALOG["|x|^0.5"], 1.2, v, cfg) for v in range(1, 6)]
    spk = _spike_train()
    div = [rh_plus_constant(spk, 3.0, v, cfg) for v in range(1, 6)]
    passed = all(r.finite_flag for r in fin) and not any(r.finite_flag for r in div)
    return CriterionResult(7, "reverse Holder equivalence", passed,
                           {"finite": [r.constant for r in fin],
                            "divergent": [r.constant for r in div]})


def criterion_08(seed: int) -> CriterionResult:
    """Power bump: every catalog A_2^+ weight admits eps >= 1e-3
    (ceiling 100); |x|^0.9 at fine resolution stays below the bump
    threshold 1/9 (ceiling 30, calibrated to the unbumped constants)."""
    cfg = _cfg(n_anchor=65, n_h=16)
    eps = {name: power_bump_search(w, 2.0, cfg, ceiling=100.0).epsilon
           for name, w in _CATALOG.items()}
    fine = power_bump_search(WeightSpec.power(0.9), 2.0,
                             _cfg(n_anchor=65, n_h=16, n_grid=2 ** 20),
                             ceiling=30.0)
    passed = all(e >= 1e-3 for e in eps.values()) and fine.found and fine.epsilon < 0.12
    details = {f"eps[{k}]": v for k, v in eps.items()}
    details["eps[|x|^0.9]"] = fine.epsilon
    return CriterionResult(8, "power bump search", passed, details)


def criterion_09(seed: int) -> CriterionResult:
    """Interpolation with change of measures verified exactly on 100
    random multiplication operators."""
    rng = np.random.default_rng(seed)
    ok = 0
    for _ in range(100):
        g = SampledFunction(-4.0, 4.0, 257, rng.normal(size=257))
        e = InterpolationEndpoints(
            float(rng.uniform(1.2, 4.0)), float(rng.uniform(1.2, 4.0)),
            WeightSpec.exponential(float(rng.uniform(-1.0, 1.0))),
            WeightSpec.product(1.0, float(rng.uniform(0.0, 0.8)),
                               float(rng.uniform(-1.0, 1.0))),
            WeightSpec.power(float(rng.uniform(0.0, 0.8))),
            WeightSpec.constant(float(rng.uniform(0.5, 2.0))),
            float(rng.uniform(0.05, 0.95)))
        ok += verify_on_multiplier(g, e).passed
    return CriterionResult(9, "interpolation on multipliers", ok == 100,
                           {"passed_instances": ok})


def criterion_10(seed: int) -> CriterionResult:
    """Kernel hypotheses: size bound C = 1, smoothness bound C = 2 on
    10^4 sampled points each, and truncated integrals bounded by 2."""
    K = oscillating_log_kernel("plus")
    size_ratio = K.check_size_condition(seed)
    smooth_ratio = K.check_smoothness_condition(seed)
    sup = kernel_cancellation_sup(K, np.geomspace(1e-4, 1.0, 7),
                                  np.linspace(1.0, 8.0, 8))
    passed = (size_ratio <= 1.0 and smooth_ratio <= 1.0 and sup <= 2.0 + 1e-3)
    return CriterionResult(10, "kernel hypotheses", passed,
                           {"size_worst_over_C1": size_ratio,
                            "smooth_worst_over_C2": smooth_ratio,
                            "cancellation_sup": sup})


def criterion_11(seed: int) -> CriterionResult:
    """Case-2 scaling identity is exact up to quadrature noise
    (<= 1e-6) for P = 4xy and P = 8x^2 y at lambda = 2, and for P = 9xy
    at lambda = 3, where rescaling is not exact in binary."""
    K = oscillating_log_kernel("plus")
    f = SampledFunction.from_callable(lambda x: np.exp(-3.0 * x ** 2),
                                      -4.0, 4.0, 1025)
    pv = PVConfig(eps_cells=1)
    d1 = scaling_identity_check(f, K, PolynomialPhase.monomial(1, 1, 4.0), pv)
    d2 = scaling_identity_check(f, K, PolynomialPhase.from_coeffs({(2, 1): 8.0}), pv)
    d3 = scaling_identity_check(f, K, PolynomialPhase.monomial(1, 1, 9.0), pv)
    return CriterionResult(11, "scaling identity",
                           all(d <= 1e-6 for d in (d1, d2, d3)),
                           {"discrepancy_4xy": d1, "discrepancy_8x2y": d2,
                            "discrepancy_9xy": d3})


def criterion_12(seed: int) -> CriterionResult:
    """Dyadic structure: pieces sum to the range-restricted operator to
    1e-12, and each piece obeys |T_j f| <= 2 C M+ f nodewise."""
    K = oscillating_log_kernel("plus")
    P = PolynomialPhase.monomial(1, 1, 1.0)
    pv = PVConfig(eps_cells=1)
    rng = np.random.default_rng(seed)
    n = 2049
    lo, hi = STANDARD_WINDOW
    d = (hi - lo) / (n - 1)
    x = grid_nodes(lo, hi, n)
    k0 = dyadic_band_cells(d, 0, pv.eps_cells)[1]

    F2 = rng.normal(size=(2, n)) * (np.abs(x) < 2.0)
    pieces = [OperatorSpec("dyadic_piece", K, P, pv, j=j).apply_batch(F2, lo, hi)
              for j in range(6)]
    sum_err = 0.0
    for J in range(1, 6):
        total = sum(pieces[:J + 1])
        ranged = oscillatory_apply_batch(F2, lo, hi, K, P, pv,
                                         (pv.eps_cells, k0 * 2 ** J))
        sum_err = max(sum_err, float(np.max(np.abs(total - ranged))))

    F16 = rng.normal(size=(16, n)) * (np.abs(x) < 2.0)
    M = forward_extremal_averages(F16, d)
    bound_ok = True
    worst_margin = -math.inf
    for j in range(1, 5):
        T = np.abs(OperatorSpec("dyadic_piece", K, P, pv, j=j).apply_batch(F16, lo, hi))
        slack = T - 2.0 * K.size_const * M
        worst_margin = max(worst_margin, float(np.max(slack)))
        bound_ok = bound_ok and bool(np.all(slack <= 1e-12))
    passed = sum_err <= 1e-12 and bound_ok
    return CriterionResult(12, "dyadic structure", passed,
                           {"sum_err": sum_err, "worst_bound_margin": worst_margin})


def criterion_13(seed: int) -> CriterionResult:
    """Unweighted dyadic decay slope <= -0.1 for P = xy at j_max = 8
    (stated wide window); weighted run (w = e^x) also decays."""
    K = oscillating_log_kernel("plus")
    P = PolynomialPhase.monomial(1, 1, 1.0)
    fam = TestFunctionFamily("random-bump-sums", 16, seed, (0.0, 1.0))
    slopes, rows, configs = {}, [], []
    for key, tag, w, j_max, window, n in (
            ("slope_unweighted", "unweighted", None, 8, (-258.0, 2.0), 2 ** 14),
            ("slope_weighted", "e^x", _CATALOG["e^x"], 5, (-34.0, 2.0), 2 ** 13)):
        fit = dyadic_decay(K, P, STANDARD_P, w, fam, j_max, window, n)
        slopes[key] = fit.slope
        rows += decay_rows(fit, tag, STANDARD_P, window, n, seed)
        configs.append({"campaign": "decay", "weight": tag,
                        "slope": fit.slope, "intercept": fit.intercept})
    passed = slopes["slope_unweighted"] <= -0.1 and slopes["slope_weighted"] < 0.0
    return CriterionResult(13, "dyadic decay", passed, slopes, rows=rows, configs=configs)


def criterion_14(seed: int) -> CriterionResult:
    """Coefficient-independence: max/min best ratio <= 20 across seven
    decades of the xy coefficient, per weight."""
    K = oscillating_log_kernel("plus")
    fam = TestFunctionFamily("modulated-gaussians", 64, seed, (-2.0, 2.0))
    coeffs = [10.0 ** e for e in range(-3, 4)]
    details = {}
    passed = True
    rows, configs = [], []
    for name, w in (("1", None), ("e^x", _CATALOG["e^x"])):
        reps = coefficient_sweep(K, (1, 1), coeffs, w, STANDARD_P, fam,
                                 STANDARD_WINDOW, STANDARD_N)
        ratios = [r.best_ratio for r in reps]
        spread = max(ratios) / min(ratios)
        details[f"spread[{name}]"] = spread
        passed = passed and spread <= 20.0
        for a, rep in zip(coeffs, reps):
            rows.append(campaign_row("sweep", w, STANDARD_P, a, rep, STANDARD_WINDOW, STANDARD_N))
            configs.append({"campaign": "sweep", "param": a, "weight": name,
                            "digest": rep.config_digest})
    return CriterionResult(14, "coefficient independence", passed, details,
                           rows=rows, configs=configs)


def criterion_15(seed: int) -> CriterionResult:
    """Boundedness signatures under window doubling: members drift
    <= 25%, the non-member pair at least doubles."""
    K = oscillating_log_kernel("plus")
    runs = {
        "M+/e^x": (OperatorSpec("m_plus"), _CATALOG["e^x"], (-2.0, 2.0)),
        "T+xy/e^x": (OperatorSpec("oscillatory", K,
                                  PolynomialPhase.monomial(1, 1, 1.0)),
                     _CATALOG["e^x"], (-2.0, 2.0)),
        "M+/e^-x": (OperatorSpec("m_plus"), WeightSpec.exponential(-1.0),
                    (6.0, 7.0)),
    }
    details = {}
    rows, configs = [], []
    for name, (op, w, support) in runs.items():
        vals = {}
        for win, n in ((STANDARD_WINDOW, STANDARD_N), ((-16.0, 16.0), 2 * STANDARD_N)):
            fam = TestFunctionFamily("random-bump-sums", 64, seed, support)
            rep = norm_ratio(op, w, STANDARD_P, fam, win, n)
            vals[win] = rep.best_ratio
            rows.append(campaign_row("doubling", w, STANDARD_P, name, rep, win, n))
            configs.append({"campaign": "doubling", "pair": name,
                            "window": list(win), "digest": rep.config_digest})
        small, big = vals[STANDARD_WINDOW], vals[(-16.0, 16.0)]
        details[name] = big / small
    passed = (abs(details["M+/e^x"] - 1.0) <= 0.25
              and abs(details["T+xy/e^x"] - 1.0) <= 0.25
              and details["M+/e^-x"] >= 2.0)
    det = {f"doubling[{k}]": v for k, v in details.items()}
    return CriterionResult(15, "boundedness signatures", passed, det,
                           rows=rows, configs=configs)


CRITERIA = {
    1: criterion_01, 2: criterion_02, 3: criterion_03, 4: criterion_04,
    5: criterion_05, 6: criterion_06, 7: criterion_07, 8: criterion_08,
    9: criterion_09, 10: criterion_10, 11: criterion_11, 12: criterion_12,
    13: criterion_13, 14: criterion_14, 15: criterion_15,
}


# ---------------------------------------------------------------------------
# the battery
# ---------------------------------------------------------------------------

def run_all(out_dir: Optional[str] = None, seed: int = STANDARD_SEED,
            echo: bool = False) -> list:
    """Run criteria 1..15, optionally writing CSV artifacts.

    Criterion 16 (byte determinism of these artifacts plus total
    runtime) is checked by the caller, who runs the battery twice and
    diffs the files.
    """
    results = []
    for cid in sorted(CRITERIA):
        t0 = time.time()
        out = CRITERIA[cid](seed)
        out.elapsed = time.time() - t0
        results.append(out)
        if echo:
            print(out.line(), flush=True)
    if out_dir is not None:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        write_csv(path / "campaigns.csv", CSV_COLUMNS, [row for r in results for row in r.rows])
        with open(path / "campaigns.json", "w") as fh:
            json.dump([cfg for r in results for cfg in r.configs], fh,
                      sort_keys=True, indent=1)
            fh.write("\n")
        write_csv(path / "summary.csv", ["criterion", "name", "passed", "details", "seed"],
                  [[r.cid, r.name, int(r.passed),
                    ";".join(f"{k}={_fmt(v)}" for k, v in sorted(r.details.items())), seed]
                   for r in results])
    return results


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_fmt(x) for x in v) + "]"
    return str(v)
