import math
import sys
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from onesided import grid, weights
from onesided.errors import ConfigError, DomainError, GridMismatchError
from onesided.grid import (SampledFunction, cumulative_trapezoid, dual_exponent, resample,
                           trapezoid_cells)
from test_grid import old_grid_nodes, same_bits, windows
from onesided.weights import (TripleSearchConfig, WeightSpec, a1_constant,
                              ap_both_constant, ap_general_constant,
                              ap_minus_constant, ap_plus_constant, dilate,
                              dual_weight, gamma_fourpoint_constant,
                              power_bump_search, reflect, rh_infty_constant,
                              rh_plus_constant, weight_power, weight_product)

ONE = WeightSpec.constant(1.0)
EX = WeightSpec.exponential(1.0)
POW_HALF = WeightSpec.power(0.5)
MIXED = WeightSpec.product(1.0, 0.3, 1.0)
CATALOG = (ONE, EX, POW_HALF, MIXED)


def cfg(**kw):
    base = dict(n_anchor=33, n_h=12, h_min=0.05, n_grid=2049)
    base.update(kw)
    window = base.pop("window", (-8.0, 8.0))
    return TripleSearchConfig(window, **base)


# ---------------------------------------------------------------------------
# catalog algebra
# ---------------------------------------------------------------------------

class TestCatalog:
    def test_realize_positive(self):
        for w in CATALOG:
            vals = w.realize(-4.0, 4.0, 513)
            assert np.all(vals > 0) and np.all(np.isfinite(vals))

    def test_power_zero_node_substitution(self):
        # odd node count puts a node exactly at 0; it evaluates half a
        # cell to the right instead of producing 0 or inf
        w = WeightSpec.power(0.5)
        vals = w.realize(-1.0, 1.0, 101)
        d = 2.0 / 100
        assert vals[50] == (d / 2.0) ** 0.5
        winv = WeightSpec.power(-0.5)
        assert winv.realize(-1.0, 1.0, 101)[50] == (d / 2.0) ** -0.5

    def test_exp_overflow_realizes_inf(self):
        # e^{100 x} passes the float range past x = 7.09: realize gives
        # +inf there without a RuntimeWarning, and the estimators flag
        # the weight instead of raising
        w = WeightSpec.exponential(100.0)
        c = cfg(window=(0.0, 8.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = w.realize(0.0, 8.0, 257)
            assert np.all(np.isposinf(vals[228:])) and np.all(np.isfinite(vals[:228]))
            for rep in (ap_plus_constant(w, 2.0, c), ap_general_constant(w, 2.0, "plus", c),
                        rh_plus_constant(w, 1.2, 1, c), a1_constant(w, "plus", c)):
                assert not rep.finite_flag

    def test_dual_examples(self):
        assert dual_weight(ONE, 2.0).canonical() == (1.0, 0.0, 0.0)
        # p = 2 -> pointwise reciprocal
        assert dual_weight(EX, 2.0).canonical()[2] == -1.0
        # |x|^0.5 at p = 3 (p' = 3/2) -> |x|^{-0.25}
        d = dual_weight(POW_HALF, 3.0)
        assert d.form == "power" and abs(d.params[0] + 0.25) < 1e-12

    def test_dual_sampled_pointwise(self):
        rng = np.random.default_rng(2)
        s = SampledFunction(0.0, 1.0, 33, rng.uniform(0.5, 2.0, 33) + 0j)
        w = WeightSpec.sampled(s)
        d = dual_weight(w, 2.0)
        assert np.allclose(d.samples.values.real, 1.0 / s.values.real, rtol=1e-15)

    # the A_1 factorization of A_p^+: w1 w2^{1-p} with w1 in A_1^+, w2 in A_1^-

    def test_factor_examples(self):
        assert weight_product(ONE, weight_power(ONE, -1.0)).canonical() == (1.0, 0.0, 0.0)
        # e^x in A_1^+, e^{-x} in A_1^-, p = 2 -> e^{2x}
        w = weight_product(EX, weight_power(WeightSpec.exponential(-1.0), -1.0))
        assert w.form == "exponential" and w.params[0] == 2.0

    def test_factor_membership(self):
        w = weight_product(EX, weight_power(WeightSpec.exponential(-1.0), -1.0))
        rep = ap_plus_constant(w, 2.0, cfg())
        assert rep.finite_flag and rep.constant <= 1.0 + 1e-9

    def test_factor_grid_mismatch(self):
        a = WeightSpec.sampled(SampledFunction(0.0, 1.0, 11, np.ones(11) + 0j))
        b = WeightSpec.sampled(SampledFunction(0.0, 1.0, 12, np.ones(12) + 0j))
        with pytest.raises(GridMismatchError):
            weight_product(a, weight_power(b, -1.0))

    def test_dilate_examples(self):
        assert dilate(EX, 1.0).canonical() == EX.canonical()
        assert dilate(EX, 2.0).canonical() == (1.0, 0.0, 2.0)
        w = dilate(WeightSpec.power(0.5), 4.0)
        assert w.canonical() == (2.0, 0.5, 0.0)  # lambda^alpha folded into scale

    def test_reflect_closure(self):
        assert reflect(EX).canonical() == (1.0, 0.0, -1.0)
        assert reflect(reflect(MIXED)).canonical() == MIXED.canonical()

    def test_power_bump_closure(self):
        w = weight_power(MIXED, 1.25)
        s, a, c = w.canonical()
        assert (s, a, c) == (1.0, 0.3 * 1.25, 1.25)

    def test_serialization_roundtrip(self):
        for w in CATALOG:
            assert WeightSpec.from_json(w.to_json()).canonical() == w.canonical()
        s = WeightSpec.sampled(SampledFunction(0.0, 1.0, 5,
                                               np.array([1, 2, 3, 2, 1.0]) + 0j))
        back = WeightSpec.from_json(s.to_json())
        assert np.array_equal(back.samples.values, s.samples.values)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            WeightSpec.constant(0.0)
        with pytest.raises(DomainError):
            WeightSpec.sampled(SampledFunction(0.0, 1.0, 3,
                                               np.array([1.0, 0.0, 1.0]) + 0j))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_params(self, bad):
        for make in (WeightSpec.constant, WeightSpec.power, WeightSpec.exponential,
                     lambda v: WeightSpec.product(1.0, 0.5, v),
                     lambda v: WeightSpec.product(2.0, v, 1.0)):
            with pytest.raises(DomainError):
                make(bad)
        with pytest.raises(DomainError, match="product weight params must be finite"):
            WeightSpec.from_json({"form": "product", "params": [1.0, 0.5, bad]})

    def test_derived_scale_overflowing_refused(self):
        # scale ** e and lam ** alpha pass the float range: inf, refused as such
        with pytest.raises(DomainError, match="product weight params must be finite"):
            weight_power(WeightSpec.product(1e200, 0.0, 1.0), 2.0)
        with pytest.raises(DomainError, match="product weight params must be finite"):
            dilate(WeightSpec.power(300.0), 1e10)


# ---------------------------------------------------------------------------
# search configuration
# ---------------------------------------------------------------------------

class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TripleSearchConfig((-8.0, 8.0), h_min=0.0)
        with pytest.raises(ConfigError):
            TripleSearchConfig((-8.0, 8.0), h_min=2.0, h_max=1.0)
        with pytest.raises(ConfigError):
            TripleSearchConfig((-8.0, 8.0), h_max=20.0)
        with pytest.raises(ConfigError):
            TripleSearchConfig((-8.0, 8.0), gamma=0.7)
        for window in ((-math.inf, 8.0), (0.0, math.inf)):
            with pytest.raises(ConfigError, match="window: need finite lo < hi"):
                TripleSearchConfig(window)

    def test_oversized_search_refused(self):
        # refused from n_grid and the lattice size alone; nothing allocated
        with pytest.raises(ConfigError, match="GiB"):
            TripleSearchConfig((-8.0, 8.0), n_grid=10 ** 12)
        with pytest.raises(ConfigError, match="GiB"):
            TripleSearchConfig((-8.0, 8.0), n_anchor=10 ** 6, n_h=10 ** 3)
        # the largest searches in use (the battery's and the benchmark's
        # 2^20-node bump) sit far below the budget
        big = TripleSearchConfig((-8.0, 8.0), n_anchor=65, n_h=16, n_grid=2 ** 20)
        assert 16 * big.working_bytes() < grid.WORKING_BYTES_LIMIT

    def test_h_min_below_spacing(self):
        c = cfg(h_min=1e-6, h_max=1.0)
        with pytest.raises(ConfigError):
            ap_plus_constant(ONE, 2.0, c)

    def test_report_serialization(self):
        rep = ap_plus_constant(EX, 2.0, cfg())
        obj = rep.to_json()
        assert set(obj) == {"constant", "witness", "finite_flag", "resolution"}
        assert obj["finite_flag"] is True


# ---------------------------------------------------------------------------
# Sawyer estimators
# ---------------------------------------------------------------------------

class TestSawyer:
    def test_unit_weight(self):
        assert abs(ap_plus_constant(ONE, 2.0, cfg()).constant - 1.0) <= 1e-12
        assert abs(ap_minus_constant(ONE, 2.0, cfg()).constant - 1.0) <= 1e-12

    def test_exponential_bounded(self):
        # closed-form averages give (1 - e^{-h})^2 / h^2 <= 1, sup -> 1
        # as h -> 0; independent of h_max
        for hmax in (2.0, 8.0):
            rep = ap_plus_constant(EX, 2.0, cfg(h_max=hmax))
            assert rep.finite_flag
            assert 1.0 - 1e-12 <= rep.constant <= 1.0 + 1e-9

    def test_exponential_oracle(self):
        # independent oracle: the closed-form integrand over the same
        # (anchor, h) lattice
        c = cfg(n_grid=4097)
        rep = ap_plus_constant(EX, 2.0, c)
        d = c.spacing
        hs = np.geomspace(c.h_min, c.h_max, c.n_h)
        ks = np.unique(np.clip(np.rint(hs / d).astype(int), 1, c.n_grid - 1))
        closed = max(1.0, max((1 - math.exp(-k * d)) ** 2 / (k * d) ** 2 for k in ks))
        assert rep.constant == pytest.approx(closed, rel=1e-6)

    def test_mirror_exponential(self):
        # reflection x -> -x maps the e^x plus computation onto e^{-x} minus
        rep = ap_minus_constant(WeightSpec.exponential(-1.0), 2.0, cfg())
        assert rep.finite_flag and rep.constant <= 1.0 + 1e-9

    def test_power_divergence_with_resolution(self):
        # |x|^1.5 fails A_2^+: the discrete sup grows ~ spacing^{-1/2}
        c1 = ap_plus_constant(WeightSpec.power(1.5), 2.0,
                              cfg(window=(-2.0, 2.0), n_grid=2049)).constant
        c2 = ap_plus_constant(WeightSpec.power(1.5), 2.0,
                              cfg(window=(-2.0, 2.0), n_grid=8193)).constant
        c3 = ap_plus_constant(WeightSpec.power(1.5), 2.0,
                              cfg(window=(-2.0, 2.0), n_grid=32769)).constant
        assert c1 < c2 < c3
        rep = ap_plus_constant(WeightSpec.power(1.5), 2.0,
                               cfg(window=(-2.0, 2.0), n_grid=32769,
                                   ceiling=c2))
        assert not rep.finite_flag

    def test_reflection_law_exact(self):
        for w in CATALOG:
            lhs = ap_minus_constant(w, 2.0, cfg())
            rhs = ap_plus_constant(reflect(w), 2.0, cfg().reflected())
            assert lhs.constant == rhs.constant

    def test_witness_reported(self):
        rep = ap_plus_constant(POW_HALF, 2.0, cfg())
        assert set(rep.witness) == {"a", "h"}
        assert rep.witness["h"] >= 0.0

    def test_overflow_flags_not_raises(self):
        # w = |x|^{-350} on (0.5, 8) stays positive and finite, but its
        # dual power w^{1-p'} overflows near the right edge
        w = WeightSpec.power(-350.0)
        rep = ap_plus_constant(w, 2.0, cfg(window=(0.5, 8.0), h_min=0.1))
        assert not rep.finite_flag

    def test_every_lattice_estimator_flags_overflow_silently(self):
        # |x|^{-350} overflows near 0 on the battery lattice: each lattice
        # estimator flags it, without raising (exact-sum path, p = 3) or warning
        w, c = WeightSpec.power(-350.0), cfg(n_grid=4096)
        runs = [lambda: ap_plus_constant(w, 3.0, c),
                lambda: ap_minus_constant(w, 3.0, c),
                lambda: ap_both_constant(w, 3.0, c),
                lambda: ap_general_constant(w, 3.0, "plus", c),
                lambda: ap_general_constant(w, 3.0, "minus", c),
                lambda: gamma_fourpoint_constant(w, 3.0, c)]
        runs += [lambda v=v: rh_plus_constant(w, 3.0, v, c) for v in range(1, 6)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run in runs:
                assert not run().finite_flag

    def test_ap_general_fsum_overflow_flags(self):
        # cells of 5e307 sum past the float range: the exact sum's rounding
        # raises OverflowError there, the estimator reads it as +inf and
        # flags it
        w = WeightSpec.constant(5e307)
        c = TripleSearchConfig((0.0, 100.0), n_anchor=9, n_h=4, h_min=2.0, n_grid=101)
        for side in ("plus", "minus"):
            assert not ap_general_constant(w, 2.0, side, c).finite_flag

    def test_gamma_fourpoint_fsum_overflow_flags(self):
        w = WeightSpec.constant(5e307)
        c = TripleSearchConfig((0.0, 100.0), n_anchor=9, n_h=4, h_min=2.0,
                               n_grid=101, gamma=0.25)
        assert not gamma_fourpoint_constant(w, 2.0, c).finite_flag



# ---------------------------------------------------------------------------
# general three-point form
# ---------------------------------------------------------------------------

class TestGeneralForm:
    def test_unit_weight_quarter(self):
        # sup of (b-a)(c-b)/(c-a)^2 over the lattice is 1/4 at h1 = h2
        rep = ap_general_constant(ONE, 2.0, "plus", cfg())
        assert rep.constant == pytest.approx(0.25, abs=1e-12)

    def test_consistency_with_sawyer_integrand(self):
        # general triple with b-a = c-b equals the Sawyer integrand:
        # at matched lattices the general sup is <= the Sawyer sup
        c = cfg()
        for w in (EX, POW_HALF):
            gen = ap_general_constant(w, 2.0, "plus", c).constant
            saw = ap_plus_constant(w, 2.0, c).constant
            assert gen <= saw * (1.0 + 1e-12) + 1e-12

    def test_power_half_stable(self):
        vals = [ap_general_constant(POW_HALF, 2.0, "plus",
                                    cfg(n_anchor=na, n_h=nh)).constant
                for na, nh in ((17, 6), (33, 12), (65, 24))]
        assert vals[0] <= vals[1] <= vals[2] * (1 + 1e-12)
        assert vals[2] <= 1.5 * vals[0]

    def test_duality_power_law(self):
        c = cfg(n_grid=1025, n_h=8)
        for w in (EX, POW_HALF, MIXED):
            for p in (1.5, 2.0, 3.0):
                pc = p / (p - 1.0)
                lhs = ap_general_constant(dual_weight(w, p), pc, "minus", c).constant
                rhs = ap_general_constant(w, p, "plus", c).constant ** (pc - 1.0)
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)

    def test_reflection_law_exact(self):
        for w in CATALOG:
            lhs = ap_general_constant(w, 2.0, "minus", cfg())
            rhs = ap_general_constant(reflect(w), 2.0, "plus", cfg().reflected())
            assert lhs.constant == rhs.constant

    def test_class_ordering_vs_both_sided(self):
        # A_p subset A_p^+: one-sided general constants never exceed the
        # both-sided constant over matched spans
        c = cfg()
        for w in CATALOG:
            one_sided = ap_general_constant(w, 2.0, "plus", c).constant
            both = ap_both_constant(w, 2.0, cfg(h_max=15.9)).constant
            assert one_sided <= both * (1.0 + 1e-9) + 1e-12

    def test_side_validation(self):
        with pytest.raises(ConfigError):
            ap_general_constant(ONE, 2.0, "up", cfg())


# ---------------------------------------------------------------------------
# A_1 and reverse Holder
# ---------------------------------------------------------------------------

class TestA1:
    def test_unit_weight(self):
        assert abs(a1_constant(ONE, "plus", cfg()).constant - 1.0) <= 1e-12
        assert abs(a1_constant(ONE, "minus", cfg()).constant - 1.0) <= 1e-12

    def test_exponential_flat(self):
        # backward averages of e^t never exceed e^x; sup ratio is 1
        assert a1_constant(EX, "plus", cfg()).constant == pytest.approx(1.0, abs=1e-6)
        assert a1_constant(WeightSpec.exponential(-1.0), "minus",
                           cfg()).constant == pytest.approx(1.0, abs=1e-6)

    def test_lower_bound(self):
        for w in CATALOG:
            assert a1_constant(w, "plus", cfg()).constant >= 1.0 - 1e-12

    def test_overflowing_weight_flags(self):
        # |x|^-350 overflows near 0: not in the class, reported, not raised
        w, c = WeightSpec.power(-350.0), cfg(n_grid=8192)
        for rep in (a1_constant(w, "plus", c), a1_constant(w, "minus", c),
                    rh_infty_constant(w, c)):
            assert not rep.finite_flag and rep.witness is None


class TestReverseHolder:
    def test_unit_weight_all_variants(self):
        for v in range(1, 6):
            rep = rh_plus_constant(ONE, 2.0, v, cfg())
            assert rep.constant == pytest.approx(1.0, abs=1e-10)

    def test_exponential_variant4_oracle(self):
        # closed form: h (1 - e^{-2h}) / (2 (e^h - 1)^2), anchored
        # values cancel; compare against the same length lattice
        c = cfg(n_grid=4097)
        rep = rh_plus_constant(EX, 2.0, 4, c)
        d = c.spacing
        hs = np.geomspace(c.h_min, c.h_max, c.n_h)
        ks = np.unique(np.clip(np.rint(hs / d).astype(int), 1, c.n_grid - 1))
        def closed(h):
            return h * (1 - math.exp(-2 * h)) / (2.0 * (math.exp(h) - 1) ** 2)
        oracle = max(closed(k * d) for k in ks if 2 * k <= c.n_grid - 1)
        assert rep.constant == pytest.approx(oracle, rel=1e-5)

    @pytest.mark.parametrize("variant, gamma", [(1, 0.25), (2, 0.25), (3, 0.25), (5, 0.5)])
    def test_exponential_oracle_on_the_grid(self, variant, gamma):
        # for e^x the trapezoid integrals over the grid are geometric sums,
        # and M^-(w chi_(a,b))(b) of an increasing w is the last cell's
        # average; anchored values cancel.  Variant 5 runs at gamma 0.5:
        # at 0.25 m = rint(gamma M) never equals M - m, so its strict and
        # non-strict lattices agree.  rel 1e-12: the prefix differences
        # and the rounded nodes stay within 2e-14 of it here
        c, r = cfg(gamma=gamma), 1.2
        d = c.spacing
        hs = np.geomspace(c.h_min, c.h_max, c.n_h)
        ks = np.unique(np.clip(np.rint(hs / d).astype(int), 1, c.n_grid - 1)).tolist()

        def avg(s, cells):    # average of e^{s (x - x_a)} over the cells from node a
            return (1 + math.exp(s * d)) * math.expm1(s * cells * d) / (
                2 * cells * math.expm1(s * d))

        if variant == 1:
            oracle = [avg(r, k) / (avg(1.0, k) * (math.exp((k - 1) * d) * avg(1.0, 1)) ** (r - 1))
                      for k in ks]
        elif variant == 5:
            ms = np.rint(gamma * np.asarray(ks)).astype(int).tolist()
            oracle = [avg(r, m) / avg(1.0, m) ** r * math.exp(-r * (k - m) * d)
                      for k, m in zip(ks, ms) if 1 <= m <= k - m]
        else:
            b, lo, hi = {2: (2, 2, 3), 3: (2, 3, 4)}[variant]
            oracle = [avg(r, b * k) / avg(1.0, (hi - lo) * k) ** r * math.exp(-r * lo * k * d)
                      for k in ks if hi * k <= c.n_grid - 1]
        rep = rh_plus_constant(EX, r, variant, c)
        assert rep.constant == pytest.approx(max(oracle), rel=1e-12)

    def test_five_variants_cofinite(self):
        for v in range(1, 6):
            rep = rh_plus_constant(POW_HALF, 1.2, v, cfg())
            assert rep.finite_flag

    def test_variant_validation(self):
        with pytest.raises(ConfigError):
            rh_plus_constant(ONE, 2.0, 6, cfg())
        with pytest.raises(DomainError):
            rh_plus_constant(ONE, 1.0, 4, cfg())

    def test_variant5_gamma_guard(self):
        with pytest.raises(ConfigError):
            cfg(gamma=0.0)


class TestRHInfty:
    def test_unit_weight(self):
        assert abs(rh_infty_constant(ONE, cfg()).constant - 1.0) <= 1e-12

    def test_increasing_exponential(self):
        # the infimum of forward averages of an increasing function is
        # attained as h -> 0+, so the ratio is exactly 1
        for c_ in (0.5, 1.0, 2.0):
            rep = rh_infty_constant(WeightSpec.exponential(c_), cfg())
            assert rep.constant == pytest.approx(1.0, abs=1e-6)

    def test_decreasing_exponential_grows_with_window(self):
        # closed form: sup_x w/m+ w = L/(1 - e^{-L}) on a window of
        # length L (approximately L), growing without bound
        r1 = rh_infty_constant(WeightSpec.exponential(-1.0),
                               cfg(window=(-4.0, 4.0))).constant
        r2 = rh_infty_constant(WeightSpec.exponential(-1.0),
                               cfg(window=(-8.0, 8.0))).constant
        L1, L2 = 8.0, 16.0
        assert r1 == pytest.approx(L1 / (1 - math.exp(-L1)), rel=5e-3)
        assert r2 == pytest.approx(L2 / (1 - math.exp(-L2)), rel=5e-3)
        assert r2 > 1.9 * r1

    def test_lower_bound(self):
        for w in CATALOG:
            assert rh_infty_constant(w, cfg()).constant >= 1.0 - 1e-12


class TestGammaFourpoint:
    def test_unit_weight(self):
        assert abs(gamma_fourpoint_constant(ONE, 2.0, cfg(gamma=0.25)).constant - 1.0) <= 1e-12

    def test_exponential_finite(self):
        rep = gamma_fourpoint_constant(EX, 2.0, cfg(gamma=0.25))
        assert rep.finite_flag

    def test_finiteness_coocurrence_with_general(self):
        # both finite on A_2^+ catalog weights, both blow up for
        # |x|^{1.5} at matched resolution and ceiling
        c = cfg(window=(-2.0, 2.0), n_grid=32769, ceiling=50.0)
        for w, expect in ((POW_HALF, True), (WeightSpec.power(1.5), False)):
            g = ap_general_constant(w, 2.0, "plus", cfg(window=(-2.0, 2.0),
                                                        n_grid=8193, ceiling=50.0))
            l26 = gamma_fourpoint_constant(w, 2.0, c)
            assert g.finite_flag == expect
            assert l26.finite_flag == expect

    def test_gamma_range(self):
        with pytest.raises(ConfigError):
            gamma_fourpoint_constant(ONE, 2.0, cfg(gamma=0.5))

    def test_witness_tuple(self):
        rep = gamma_fourpoint_constant(EX, 2.0, cfg(gamma=0.25))
        a, b, c, d = (rep.witness[k] for k in "abcd")
        assert a < b <= c < d
        assert (b - a) == pytest.approx(d - c, rel=1e-12)


# ---------------------------------------------------------------------------
# dilation and bump
# ---------------------------------------------------------------------------

class TestDilation:
    def test_invariance_all_catalog(self):
        for w in CATALOG:
            base = ap_plus_constant(w, 2.0, cfg()).constant
            for lam in (2.0, 0.5, 4.0):
                other = ap_plus_constant(dilate(w, lam), 2.0,
                                         cfg().scaled(lam)).constant
                assert abs(other - base) <= 1e-9 * max(1.0, base)

    def test_sampled_dilation_exact(self):
        rng = np.random.default_rng(3)
        s = SampledFunction(-2.0, 2.0, 65, rng.uniform(0.5, 2.0, 65) + 0j)
        w = WeightSpec.sampled(s)
        c = cfg(window=(-2.0, 2.0), n_grid=65, h_min=0.2)
        base = ap_plus_constant(w, 2.0, c).constant
        dil = ap_plus_constant(dilate(w, 2.0), 2.0, c.scaled(2.0)).constant
        assert dil == base


class TestPowerBump:
    def test_unit_weight_full_bump(self):
        res = power_bump_search(ONE, 2.0, cfg(), ceiling=100.0)
        assert res.epsilon == 1.0 and res.found

    def test_power_half_positive(self):
        res = power_bump_search(POW_HALF, 2.0, cfg(), ceiling=100.0)
        assert res.found and res.epsilon > 0.0

    def test_not_found_flag(self):
        # a ceiling below the base constant cannot admit any bump
        base = ap_plus_constant(POW_HALF, 2.0, cfg()).constant
        res = power_bump_search(POW_HALF, 2.0, cfg(), ceiling=base * 0.9)
        assert res.epsilon == 0.0 and not res.found

    def test_requires_finite_base(self):
        c = cfg(window=(-2.0, 2.0), n_grid=8193, ceiling=10.0)
        with pytest.raises(DomainError):
            power_bump_search(WeightSpec.power(1.5), 2.0, c, ceiling=10.0)

    def test_step_peak_memory(self):
        # one bisection step of the benchmark's 2^20-node bump streams the
        # grid in blocks and keeps only the lattice points; holding the
        # whole grid's node values, dual power and running sums peaked at
        # 26 MB.  The bound holds at 2^22 nodes too: nothing grows with n.
        for n_grid in (2 ** 20, 2 ** 22):
            c = TripleSearchConfig((-8.0, 8.0), n_grid=n_grid)
            tracemalloc.start()
            try:
                ap_plus_constant(WeightSpec.power(0.9), 2.0, c)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4e6, n_grid


# ---------------------------------------------------------------------------
# in-place realize against the expression it replaced
# ---------------------------------------------------------------------------

def old_realize(w: WeightSpec, x_lo: float, x_hi: float, n: int) -> np.ndarray:
    """The closed-form branch of WeightSpec.realize as out-of-place array
    expressions, kept as the oracle."""
    x = old_grid_nodes(x_lo, x_hi, n)
    scale, alpha, c = w.canonical()
    ax = np.abs(x)
    if alpha != 0.0:
        d = (x_hi - x_lo) / (n - 1)
        ax = np.where(ax == 0.0, d / 2.0, ax)
    with np.errstate(over="ignore", under="ignore"):
        vals = scale * ax ** alpha * np.exp(c * x)
    if np.any(np.isnan(vals)) or np.any(vals <= 0.0):
        raise DomainError(f"weight {w.label()} not strictly positive on the window")
    return vals


@st.composite
def closed_weights(draw):
    """Every closed form, with the exponents numpy special-cases and ones
    that overflow or underflow on the window."""
    scale = draw(st.sampled_from([1.0, 0.25, 3.0]) | st.floats(1e-3, 1e3))
    alpha = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, -0.5, -1.0, 350.0, -350.0])
                 | st.floats(-3.0, 3.0))
    c = draw(st.sampled_from([0.0, 100.0, -800.0]) | st.floats(-5.0, 5.0))
    return WeightSpec.product(scale, alpha, c)


OVERFLOWS = [(WeightSpec.exponential(100.0), (0.0, 8.0, 257)),
             (WeightSpec.power(-350.0), (-8.0, 8.0, 4097))]      # (d/2)^-350 at x = 0
UNDERFLOWS = [(WeightSpec.exponential(-800.0), (0.0, 8.0, 257)),
              (WeightSpec.power(350.0), (-8.0, 8.0, 4097))]


class TestRealizeAgainstOldExpression:
    @settings(max_examples=300, deadline=None)
    @given(closed_weights(), windows())
    @example(*OVERFLOWS[0])
    @example(*OVERFLOWS[1])
    @example(*UNDERFLOWS[0])
    @example(*UNDERFLOWS[1])
    def test_bit_identical(self, w, window):
        outcomes = []
        for realize in (w.realize, lambda *a: old_realize(w, *a)):
            try:
                # 0 * inf (an overflowing power times an underflowing
                # exponential) is nan, which realize refuses
                with np.errstate(invalid="ignore"):
                    outcomes.append(realize(*window))
            except DomainError:
                outcomes.append(None)
        new, old = outcomes
        assert (new is None) == (old is None)
        assert new is None or same_bits(new, old)

    def test_overflow_and_underflow_cases(self):
        for w, window in OVERFLOWS:
            assert np.any(np.isposinf(w.realize(*window)))
        for w, window in UNDERFLOWS:
            with pytest.raises(DomainError):
                w.realize(*window)

    def test_inf_times_zero_raises_domain_error(self):
        # x^-350 underflows to 0 on (25, 40) where e^{800 x} overflows:
        # the nan product reaches the caller as DomainError, not as an
        # "invalid value" RuntimeWarning
        with pytest.raises(DomainError):
            WeightSpec.product(1.0, -350.0, 800.0).realize(25.0, 40.0, 257)


# ---------------------------------------------------------------------------
# exact interval sums against the per-interval math.fsum oracle
# ---------------------------------------------------------------------------

def _fsum_positive(cells: list) -> float:
    """math.fsum of nonnegative cells; a sum past the float range is +inf
    (fsum raises on intermediate overflow instead)."""
    try:
        return math.fsum(cells)
    except OverflowError:
        return math.inf


def oracle_integrals(vals: np.ndarray, d: float, lat, lo: str, hi: str,
                     exact: bool = True) -> np.ndarray:
    """The estimators' interval integrals with the exact form done by
    summing the cells of each distinct interval with ``math.fsum``, and
    the float form as prefix differences of whole-grid running sums."""
    i, j = lat.at(lo)[lat.ok], lat.at(hi)[lat.ok]
    out = np.full(lat.ok.shape, np.nan)
    if exact:
        n = len(vals)
        keys, inv = np.unique(i * n + j, return_inverse=True)
        cells = trapezoid_cells(vals, d).tolist()
        sums = [_fsum_positive(cells[k // n:k % n]) for k in keys.tolist()]
        out[lat.ok] = np.asarray(sums, dtype=float)[inv]
    else:
        cum = cumulative_trapezoid(vals, d)
        out[lat.ok] = cum[j] - cum[i]
    return out


def oracle_exact_integrals(w: WeightSpec, cfg, lat, intervals) -> np.ndarray:
    """``weights._exact_integrals`` by ``oracle_integrals``, one interval at a time."""
    wv = w.realize(*cfg.window, cfg.n_grid)
    with np.errstate(all="ignore"):
        return np.array([oracle_integrals(wv if e == 1.0 else wv ** e, cfg.spacing, lat, lo, hi)
                         for e, lo, hi in intervals])


DBL_MAX = sys.float_info.max
# fsum is correctly rounded except just above the largest float: an exact
# sum in (DBL_MAX, DBL_MAX + ulp/2) rounds to DBL_MAX, but fsum may meet an
# intermediate partial that rounds to inf and raise, which the oracle reads
# as +inf.  The exact sums return DBL_MAX there.
FSUM_OVERFLOW_BAND = (Fraction(DBL_MAX), Fraction(DBL_MAX) + Fraction(2) ** 970)
FSUM_RAISES_IN_BAND = [DBL_MAX / 2, 2.0 ** 918, 2.0 ** 969, DBL_MAX / 2]
FSUM_ROUNDS_IN_BAND = [DBL_MAX, 2.0 ** 969]
HALF_EVEN_TIE_TO_INF = [DBL_MAX, 2.0 ** 970]

_cell = st.one_of(
    st.floats(min_value=0.0, max_value=DBL_MAX),      # zeros, subnormals, DBL_MAX
    st.floats(min_value=1e300, max_value=DBL_MAX),    # sums past the float range
    st.floats(min_value=0.0, max_value=1e-300),       # subnormal-heavy sums
    st.just(0.0),
    st.just(math.inf))


def _check_sums(cells, pairs):
    arr = np.asarray(cells, dtype=float)
    starts = np.asarray([min(a, b) for a, b in pairs], dtype=np.int64)
    ends = np.asarray([max(a, b) for a, b in pairs], dtype=np.int64)
    got = weights._exact_sums(arr, starts, ends)
    for g, s, e in zip(got.tolist(), starts.tolist(), ends.tolist()):
        want = _fsum_positive(cells[s:e])
        exact = (sum(map(Fraction, cells[s:e]), Fraction(0))
                 if all(map(math.isfinite, cells[s:e])) else None)
        if exact is not None and FSUM_OVERFLOW_BAND[0] < exact < FSUM_OVERFLOW_BAND[1]:
            assert g == DBL_MAX and want in (DBL_MAX, math.inf)
        else:
            assert np.float64(g).view(np.int64) == np.float64(want).view(np.int64)


class TestExactSums:
    @settings(max_examples=300, deadline=None)
    @given(cells=st.lists(_cell, min_size=0, max_size=40), data=st.data())
    @example(cells=FSUM_RAISES_IN_BAND, data=None)
    @example(cells=FSUM_ROUNDS_IN_BAND, data=None)
    @example(cells=HALF_EVEN_TIE_TO_INF, data=None)
    @example(cells=[5e-324] * 7 + [0.0] * 5, data=None)
    # one extraction level; two; five, down to the subnormals
    @example(cells=[0.5, 1.0, 0.25, 0.0, 3.0], data=None)
    @example(cells=[1.0 + 2.0 ** -52, 2.0 ** -40, 3.0], data=None)
    @example(cells=[1.0, 2.0 ** -60, 2.0 ** -120, 5e-324, 2.0 ** -1000], data=None)
    # levels 1 + 2 sum to just under a half-ulp tie; level 3 carries it past
    @example(cells=[1.0, 1.5 * 2.0 ** -53, 1.5 * 2.0 ** -53 - 2.0 ** -100]
             + [2.0 ** -101 - 2.0 ** -106] * 3, data=None)
    # the top level's sigma would pass DBL_MAX, so it works at 2^-s
    @example(cells=[1e308, 1e308, 5e-324, 5.0], data=None)
    # subnormal-only intervals between ~1e308 cells
    @example(cells=[1e308, 5e-324, 3 * 5e-324, 2.0 ** -1060, 1e308], data=None)
    # a half-ulp tie at 2^1023 that only the subnormal below breaks upwards
    @example(cells=[2.0 ** 1023, 2.0 ** 970, 5e-324], data=None)
    def test_bit_identical_to_fsum(self, cells, data):
        n = len(cells)
        pairs = [(0, n), (0, 0), (n, n)]                 # full and empty intervals
        if data is not None:
            idx = st.integers(0, n)
            pairs += data.draw(st.lists(st.tuples(idx, idx), max_size=12))
        else:                                            # explicit examples: every interval
            pairs += [(a, b) for a in range(n + 1) for b in range(a, n + 1)]
        _check_sums(cells, pairs)

    def test_runs_of_zeros_and_inf_cells(self):
        cells = [0.0] * 9 + [1.5, math.inf, 2.0 ** -1074, 0.0, 0.0, 3.0, math.inf, 0.0]
        pairs = [(a, b) for a in range(len(cells) + 1) for b in range(a, len(cells) + 1)]
        _check_sums(cells, pairs)

    def test_fsum_overflow_band(self):
        # inside the band the exact sums stay correctly rounded (DBL_MAX);
        # fsum raises on one ordering and rounds on the other
        for cells, fsum_gives in ((FSUM_RAISES_IN_BAND, math.inf),
                                  (FSUM_ROUNDS_IN_BAND, DBL_MAX)):
            assert _fsum_positive(cells) == fsum_gives
            got = weights._exact_sums(np.asarray(cells), np.array([0]), np.array([len(cells)]))
            assert got[0] == DBL_MAX
        got = weights._exact_sums(np.asarray(HALF_EVEN_TIE_TO_INF), np.array([0]), np.array([2]))
        assert got[0] == math.inf == _fsum_positive(HALF_EVEN_TIE_TO_INF)


def _spike_train(n: int) -> WeightSpec:
    vals = np.full(n, 1e-8)
    vals[[5, 400, 1201, 1202, 3000, 4090]] = [0.7, 1.9, 1.2, 0.5, 1.4, 0.9]
    return WeightSpec.sampled(SampledFunction(-8.0, 8.0, n, vals))


REPORT_WEIGHTS = (ONE, EX, WeightSpec.exponential(-1.0), POW_HALF,
                  WeightSpec.power(1.5), MIXED, _spike_train(4096),
                  WeightSpec.power(-350.0))


class TestExactEstimatorsAgainstOracle:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_reports_match_fsum_form(self, p, monkeypatch):
        c = cfg(n_grid=4096)
        runs = [lambda w: ap_general_constant(w, p, "plus", c),
                lambda w: ap_general_constant(w, p, "minus", c),
                lambda w: gamma_fourpoint_constant(w, p, c)]
        new = [run(w) for w in REPORT_WEIGHTS for run in runs]
        monkeypatch.setattr(weights, "_exact_integrals", oracle_exact_integrals)
        old = [run(w) for w in REPORT_WEIGHTS for run in runs]
        for a, b in zip(new, old):
            assert np.float64(a.constant).view(np.int64) == np.float64(b.constant).view(np.int64)
            assert (a.witness, a.finite_flag) == (b.witness, b.finite_flag)
        flagged = sum(not r.finite_flag for r in new)
        assert 3 <= flagged < len(new)       # |x|^-350 at least, not everything

    def test_peak_memory_bounded_by_fsum_form(self, monkeypatch):
        # no per-cell Python object may outlive its block: a version holding
        # one Python int per cell peaks well above the fsum form's cell list
        c = TripleSearchConfig((-8.0, 8.0), n_anchor=9, n_h=6, h_min=0.05,
                               n_grid=2 ** 17)

        def peak():
            ap_general_constant(POW_HALF, 2.0, "plus", c)
            tracemalloc.start()
            try:
                ap_general_constant(POW_HALF, 2.0, "plus", c)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        new = peak()
        monkeypatch.setattr(weights, "_exact_integrals", oracle_exact_integrals)
        assert new <= peak()


# ---------------------------------------------------------------------------
# blocked local maximal against the per-entry loop
# ---------------------------------------------------------------------------

def oracle_local_maximal(vals: np.ndarray, d: float, lat) -> np.ndarray:
    """M^-(w chi_(a,b))(b) one ok entry at a time: the per-entry loop of
    ``weights._local_maximal`` before it was blocked, kept as the oracle."""
    cum = cumulative_trapezoid(vals, d)
    b, k = lat.at("b"), lat.offsets["b"]
    out = np.full(lat.ok.shape, np.nan)
    for i, c in zip(*np.nonzero(lat.ok)):
        j = np.arange(1, k[c] + 1)
        out[i, c] = np.max((cum[b[i, c]] - cum[b[i, c] - j]) / (j * d))
    return out


@st.composite
def local_maximal_cases(draw):
    """Node values, some +inf or with running sums that overflow (NaN
    averages), on a variant-1 lattice whose lengths include 1 cell, where
    one block holds every anchor, and n_grid - 1 cells, one anchor a block."""
    n = draw(st.integers(4, 200))
    value = st.floats(1e-300, 1e300) | st.sampled_from([1e-8, 1.0, 1e308, math.inf])
    vals = np.asarray(draw(st.lists(value, min_size=n, max_size=n)))
    ks = np.asarray(draw(st.lists(st.integers(1, n - 1), max_size=6)) + [1, n - 1])
    c = TripleSearchConfig((-1.0, 1.0), n_anchor=draw(st.integers(2, 40)), n_h=1,
                           h_min=0.5, n_grid=n)
    return vals, c.spacing, weights._Lattice(c, {"a": 0 * ks, "b": ks})


class TestLocalMaximalAgainstLoop:
    @settings(max_examples=200, deadline=None)
    @given(local_maximal_cases())
    def test_bit_identical(self, case):
        with np.errstate(all="ignore"):
            assert same_bits(weights._local_maximal(*case), oracle_local_maximal(*case))

    def test_bit_identical_on_benchmark_lattice(self):
        c = TripleSearchConfig((-8.0, 8.0), n_anchor=65, n_h=16, h_min=0.05, n_grid=8192)
        ks = weights._length_cells(c)
        lat = weights._Lattice(c, {"a": 0 * ks, "b": ks})
        for w in CATALOG + (WeightSpec.exponential(-1.0), WeightSpec.power(1.5),
                            _spike_train(4096)):
            wv = w.realize(*c.window, c.n_grid)
            assert same_bits(weights._local_maximal(wv, c.spacing, lat),
                             oracle_local_maximal(wv, c.spacing, lat))

    @pytest.mark.parametrize("n_grid", [2 ** 17, 2 ** 18])
    def test_peak_memory_within_search_budget(self, n_grid):
        # a block holds about n_grid averages; the longest column's whole
        # anchors x length block would be 65 x n_grid / 2
        c = TripleSearchConfig((-8.0, 8.0), n_grid=n_grid)
        tracemalloc.start()
        try:
            rh_plus_constant(POW_HALF, 1.2, 1, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < c.working_bytes()


# ---------------------------------------------------------------------------
# block-streamed running sums against the whole-grid prefix differences
# ---------------------------------------------------------------------------

def oracle_realize(w: WeightSpec, x_lo: float, x_hi: float, n: int) -> np.ndarray:
    """The whole-grid realize: sampled weights through ``resample``, closed
    forms by ``old_realize``."""
    if w.form != "sampled":
        with np.errstate(invalid="ignore"):     # inf x 0 is NaN, which it refuses
            return old_realize(w, x_lo, x_hi, n)
    return resample(w.samples, x_lo, x_hi, n).values.real.copy()


def oracle_averages(vals, d, lat, lo, hi):
    return oracle_integrals(vals, d, lat, lo, hi, exact=False) / (
        (lat.offsets[hi] - lat.offsets[lo]) * d)


def oracle_sawyer_constant(w: WeightSpec, p: float, cfg, w_start: int):
    """``weights._sawyer_constant`` on the whole realized grid, kept as the oracle."""
    lo, hi = cfg.window
    wv = oracle_realize(w, lo, hi, cfg.n_grid)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        sv = wv ** dual_exponent(p)
    d = cfg.spacing
    ks = np.concatenate([[0], weights._length_cells(cfg)])
    lat = weights._Lattice(cfg, {"w0": w_start * ks, "w1": (w_start + 1) * ks,
                                 "a": 0 * ks, "h": ks})
    with np.errstate(all="ignore"):
        avg_w = np.where(ks > 0, oracle_averages(wv, d, lat, "w0", "w1"), wv[lat.anchors, None])
        avg_s = np.where(ks > 0, oracle_averages(sv, d, lat, "a", "h"), sv[lat.anchors, None])
        vals = avg_w * avg_s ** (p - 1.0)
    witness = weights._witness(lat, cfg, {"a": ("a", None), "h": (None, "h")})
    return weights._report(vals, witness, cfg, lat.ok)


def oracle_rh_plus_constant(w: WeightSpec, r: float, variant: int, cfg):
    """``rh_plus_constant`` with its integrals on the whole realized grid,
    kept as the oracle."""
    lo, hi = cfg.window
    wv = oracle_realize(w, lo, hi, cfg.n_grid)
    d = cfg.spacing
    if variant == 5:
        lat = weights._gamma_lattice(cfg, strict=False)
    else:
        ks = weights._length_cells(cfg)
        lat = weights._Lattice(cfg, {name: c * ks for name, c in
                                     zip("abcd", weights._RH_VARIANT_CELLS[variant])})
    rhs_at = list(lat.offsets)[-2:]
    with np.errstate(all="ignore"):
        wr = wv ** r
        if variant == 1:
            vals = oracle_integrals(wr, d, lat, "a", "b", exact=False) / (
                weights._local_maximal(wv, d, lat) ** (r - 1.0)
                * oracle_integrals(wv, d, lat, "a", "b", exact=False))
        else:
            vals = oracle_averages(wr, d, lat, "a", "b") / oracle_averages(wv, d, lat, *rhs_at) ** r
    return weights._report(vals, weights._witness(lat, cfg), cfg, lat.ok,
                           "variant lattice admits no configuration")


def _streamed_and_whole(p: float, r: float):
    """(name, estimator, oracle) for every estimator on the streamed sums."""
    runs = [("ap_plus", lambda w, c: ap_plus_constant(w, p, c),
             lambda w, c: oracle_sawyer_constant(w, p, c, -1)),
            ("ap_both", lambda w, c: ap_both_constant(w, p, c),
             lambda w, c: oracle_sawyer_constant(w, p, c, 0))]
    for v in range(1, 6):
        runs.append((f"rh_plus-v{v}", lambda w, c, v=v: rh_plus_constant(w, r, v, c),
                     lambda w, c, v=v: oracle_rh_plus_constant(w, r, v, c)))
    return runs


def _outcome(run, w, c):
    """A report's bits, witness, flag and resolution, or the error's type and message."""
    try:
        rep = run(w, c)
    except (ConfigError, DomainError) as exc:
        return type(exc), str(exc)
    return (np.float64(rep.constant).view(np.int64), rep.witness, rep.finite_flag,
            rep.resolution)


def _check_streamed(w, window, block, p=2.0, r=1.2, n_anchor=9, n_h=5):
    lo, hi, n = window
    c = TripleSearchConfig((lo, hi), n_anchor=n_anchor, n_h=n_h,
                           h_min=2.0 * (hi - lo) / (n - 1), n_grid=n)
    with mock.patch.object(weights, "_BLOCK_NODES", block or weights._BLOCK_NODES):
        for name, run, oracle in _streamed_and_whole(p, r):
            assert _outcome(run, w, c) == _outcome(oracle, w, c), (name, block)


BASE_WINDOWS = [(-8.0, 8.0), (-3.7, 5.3), (0.0, 8.0), (0.5, 8.0)]


@st.composite
def streamed_windows(draw):
    """(lo, hi, n) from the symmetric, narrowed and one-sided windows, or
    their reflections, with a node at 0 when n is odd on a symmetric one."""
    lo, hi = draw(st.sampled_from(BASE_WINDOWS))
    if draw(st.booleans()):
        lo, hi = -hi, -lo
    return lo, hi, draw(st.integers(16, 300))


@st.composite
def sampled_weights(draw, window):
    """A sampled weight on (-9, 9), resampled onto the window, or one on
    the window's own grid (resample's same-grid shortcut)."""
    lo, hi, n = window
    if draw(st.booleans()):
        lo, hi, n = -9.0, 9.0, draw(st.integers(2, 64))
    vals = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    return WeightSpec.sampled(SampledFunction(lo, hi, n, np.asarray(vals)))


class TestStreamedSumsAgainstWholeGrid:
    @settings(max_examples=60, deadline=None)
    @given(window=streamed_windows(), data=st.data(),
           block=st.sampled_from([1, 7, 1000, None]),
           p=st.sampled_from([1.5, 2.0, 3.0]), r=st.sampled_from([1.2, 3.0]))
    def test_reports_match(self, window, data, block, p, r):
        w = data.draw(closed_weights() | sampled_weights(window))
        _check_streamed(w, window, block, p, r)

    @pytest.mark.parametrize("block", [1, 7, 1000, None])
    def test_overflows_and_underflows(self, block):
        # +inf nodes give flagged reports; nodes that underflow to 0 after
        # the first block give the DomainError the whole grid gives
        for w, (lo, hi, _) in OVERFLOWS + UNDERFLOWS:
            _check_streamed(w, (lo, hi, 257), block)
            _check_streamed(w, (-hi, -lo, 257), block)

    @pytest.mark.parametrize("n", [2048, 2049, 8192, 12345])
    def test_larger_grids(self, n):
        for w in (POW_HALF, WeightSpec.power(-0.9), MIXED, _spike_train(4096)):
            for block in (1000, 4097, None):
                _check_streamed(w, (-8.0, 8.0, n), block)
        for w, (lo, hi, _) in OVERFLOWS + UNDERFLOWS:
            _check_streamed(w, (lo, hi, n), 4097)
            _check_streamed(w, (-hi, -lo, n), None)

    def test_several_default_blocks(self):
        n = 3 * weights._BLOCK_NODES + 5
        for w in (POW_HALF, WeightSpec.exponential(-1.0)):
            _check_streamed(w, (-8.0, 8.0, n), None, n_anchor=33, n_h=8)

    def test_invalid_node_in_a_later_block(self):
        # e^{-95 x} underflows to 0 past x = 7.84, in the second default block
        n = 2 * weights._BLOCK_NODES
        w = WeightSpec.exponential(-95.0)
        assert np.all(w.realize(0.0, 7.8, weights._BLOCK_NODES) > 0.0)
        _check_streamed(w, (0.0, 8.0, n), None)
        with pytest.raises(DomainError, match="not strictly positive"):
            ap_plus_constant(w, 2.0, TripleSearchConfig((0.0, 8.0), n_grid=n))
