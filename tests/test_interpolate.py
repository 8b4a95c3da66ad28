import numpy as np
import pytest

from onesided.errors import DomainError, GridMismatchError
from onesided.grid import SampledFunction
from onesided.interpolate import (InterpolationEndpoints, interpolate_weights,
                                  multiplier_norm, verify_on_multiplier)
from onesided.weights import WeightSpec

ONE = WeightSpec.constant(1.0)


def endpoints(**kw):
    base = dict(p0=2.0, p1=2.0, u0=ONE, v0=ONE, u1=ONE, v1=ONE, theta=0.5)
    base.update(kw)
    return InterpolationEndpoints(**base)


class TestInterpolateWeights:
    def test_all_identity(self):
        p, u, v, c = interpolate_weights(endpoints(), 1.0, 1.0)
        assert p == 2.0 and c == 1.0
        assert u.canonical() == (1.0, 0.0, 0.0) and v.canonical() == (1.0, 0.0, 0.0)

    def test_harmonic_mean_exponent(self):
        p, *_ = interpolate_weights(endpoints(p0=2.0, p1=4.0), 1.0, 1.0)
        assert p == pytest.approx(8.0 / 3.0, rel=1e-15)

    def test_exponent_arithmetic(self):
        p, u, v, c = interpolate_weights(endpoints(u0=WeightSpec.exponential(2.0)), 1.0, 1.0)
        assert u.form == "exponential" and u.params[0] == pytest.approx(1.0)

    def test_endpoint_recovery(self):
        e = endpoints(p0=1.7, p1=3.1, u0=WeightSpec.exponential(2.0),
                      v0=WeightSpec.power(0.4), theta=1.0 - 1e-9)
        p, u, v, c = interpolate_weights(e, 3.0, 7.0)
        assert p == pytest.approx(1.7, abs=1e-6)
        assert c == pytest.approx(3.0, rel=1e-6)
        uu = u.realize(0.5, 2.0, 33)
        u0 = e.u0.realize(0.5, 2.0, 33)
        assert np.max(np.abs(uu - u0) / u0) <= 1e-6

    def test_c_bound_multiplicative(self):
        e = endpoints(theta=0.3)
        _, _, _, c_base = interpolate_weights(e, 2.0, 5.0)
        for s in (4.0, 0.25, 9.0):
            _, _, _, c_scaled = interpolate_weights(e, 2.0 * s, 5.0)
            assert c_scaled == pytest.approx(s ** 0.3 * c_base, rel=1e-12)

    def test_sampled_weights_on_different_grids(self):
        a = WeightSpec.sampled(SampledFunction(0.0, 1.0, 11, np.ones(11) + 0j))
        b = WeightSpec.sampled(SampledFunction(0.0, 1.0, 12, np.ones(12) + 0j))
        with pytest.raises(GridMismatchError):
            interpolate_weights(endpoints(u0=a, u1=b), 1.0, 1.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            endpoints(theta=0.0)
        with pytest.raises(DomainError):
            endpoints(p0=1.0)
        with pytest.raises(DomainError):
            interpolate_weights(endpoints(), 0.0, 1.0)

    @pytest.mark.parametrize("c", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_refuses_constant_outside_open_half_line(self, c):
        for c0, c1 in ((c, 1.0), (1.0, c)):
            with pytest.raises(DomainError, match="endpoint constants"):
                interpolate_weights(endpoints(), c0, c1)


class TestMultiplierVerification:
    def test_identity_multiplier(self):
        g = SampledFunction(0.0, 1.0, 33, np.ones(33, dtype=complex))
        rep = verify_on_multiplier(g, endpoints())
        assert rep.exact_norm == pytest.approx(1.0) and rep.c_bound == pytest.approx(1.0)
        assert rep.passed

    def test_cancelling_weights(self):
        # u0 = v0 pointwise: the weight ratio is 1 at both endpoints and
        # in between, any theta
        g = SampledFunction(0.0, 1.0, 33, np.ones(33, dtype=complex))
        for theta in (0.2, 0.5, 0.9):
            e = endpoints(u0=WeightSpec.exponential(2.0),
                          v0=WeightSpec.exponential(2.0), theta=theta)
            rep = verify_on_multiplier(g, e)
            assert rep.exact_norm == pytest.approx(1.0, rel=1e-12)
            assert rep.c_bound == pytest.approx(1.0, rel=1e-12)

    def test_hundred_random_instances(self):
        rng = np.random.default_rng(20240901)
        for _ in range(100):
            n = 129
            g = SampledFunction(-4.0, 4.0, n,
                                rng.normal(size=n) + 1j * rng.normal(size=n))
            e = InterpolationEndpoints(
                float(rng.uniform(1.1, 5.0)), float(rng.uniform(1.1, 5.0)),
                WeightSpec.exponential(float(rng.uniform(-1.5, 1.5))),
                WeightSpec.product(float(rng.uniform(0.5, 2.0)),
                                   float(rng.uniform(0.0, 1.0)),
                                   float(rng.uniform(-1.0, 1.0))),
                WeightSpec.power(float(rng.uniform(0.0, 1.0))),
                WeightSpec.constant(float(rng.uniform(0.2, 3.0))),
                float(rng.uniform(0.01, 0.99)))
            rep = verify_on_multiplier(g, e)
            assert rep.passed, (rep.exact_norm, rep.c_bound)

    def test_c_bound_from_the_exact_endpoint_norms(self):
        g = SampledFunction(-2.0, 2.0, 65, np.linspace(-1.0, 3.0, 65) + 0.5j)
        e = endpoints(p0=1.7, p1=3.1, u0=WeightSpec.exponential(0.7),
                      v0=WeightSpec.power(0.4), u1=WeightSpec.product(2.0, 0.3, -0.5),
                      theta=0.3)
        n0 = multiplier_norm(g, e.u0, e.v0, e.p0)
        n1 = multiplier_norm(g, e.u1, e.v1, e.p1)
        assert verify_on_multiplier(g, e).c_bound == interpolate_weights(e, n0, n1)[3]

    def test_multiplier_norm_is_sup(self):
        g = SampledFunction(0.0, 1.0, 11,
                            np.array([0, 1, -3, 2, 0.5, 0, 1, 1, 2, -1, 0]) + 0j)
        assert multiplier_norm(g, ONE, ONE, 2.0) == 3.0
