import math
import warnings

import numpy as np
import pytest

from onesided.errors import ConfigError, DomainError, GridMismatchError
from onesided.grid import SampledFunction
from onesided.weights import (TripleSearchConfig, WeightSpec, a1_constant,
                              ap_both_constant, ap_general_constant,
                              ap_minus_constant, ap_plus_constant, dilate,
                              dual_weight, factor_weight, gamma_fourpoint_constant,
                              power_bump_search, reflect, rh_infty_constant,
                              rh_plus_constant, weight_power)

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

    def test_factor_examples(self):
        assert factor_weight(ONE, ONE, 2.0).canonical() == (1.0, 0.0, 0.0)
        # e^x in A_1^+, e^{-x} in A_1^-, p = 2 -> e^{2x}
        w = factor_weight(EX, WeightSpec.exponential(-1.0), 2.0)
        assert w.form == "exponential" and w.params[0] == 2.0

    def test_factor_membership(self):
        w = factor_weight(EX, WeightSpec.exponential(-1.0), 2.0)
        rep = ap_plus_constant(w, 2.0, cfg())
        assert rep.finite_flag and rep.constant <= 1.0 + 1e-9

    def test_factor_grid_mismatch(self):
        a = WeightSpec.sampled(SampledFunction(0.0, 1.0, 11, np.ones(11) + 0j))
        b = WeightSpec.sampled(SampledFunction(0.0, 1.0, 12, np.ones(12) + 0j))
        with pytest.raises(GridMismatchError):
            factor_weight(a, b, 2.0)

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
        # estimator flags it, without raising (fsum path, p = 3) or warning
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
