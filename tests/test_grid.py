import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from onesided.errors import DomainError
from onesided.experiments import weighted_norms_batch
from onesided.grid import (SampledFunction, cumulative_trapezoid, dual_exponent,
                           grid_node, grid_nodes, resample)


def const(c, lo=0.0, hi=1.0, n=101):
    return SampledFunction(lo, hi, n, np.full(n, c, dtype=complex))


def integral(f: SampledFunction, i: int, j: int) -> complex:
    """Trapezoid integral of f from node i to node j, as a difference of
    the running sums."""
    cum = cumulative_trapezoid(f.values, f.spacing)
    return cum[j] - cum[i]


def norm(f: SampledFunction, w: SampledFunction, p: float) -> float:
    """(int |f|^p w)^{1/p} by the campaigns' weighted norm."""
    return float(weighted_norms_batch(f.values[None, :], w.values.real, f.spacing, p)[0])


class TestSampledFunction:
    def test_invariants(self):
        with pytest.raises(DomainError):
            SampledFunction(1.0, 0.0, 11, np.zeros(11))
        with pytest.raises(DomainError):
            SampledFunction(0.0, 1.0, 1, np.zeros(1))
        with pytest.raises(DomainError):
            SampledFunction(0.0, 1.0, 11, np.zeros(10))
        with pytest.raises(DomainError):
            SampledFunction(0.0, 1.0, 3, np.array([0.0, np.inf, 1.0]))
        for lo, hi in ((-np.inf, 8.0), (0.0, np.inf)):   # json.load accepts -Infinity
            with pytest.raises(DomainError, match="finite x_lo < x_hi"):
                SampledFunction(lo, hi, 3, np.zeros(3))

    def test_spacing(self):
        f = const(1.0, 0.0, 2.0, 5)
        assert f.spacing == 0.5

    def test_nodes_hit_endpoints(self):
        f = const(0.0, -3.0, 7.0, 11)
        x = f.nodes()
        assert x[0] == -3.0 and x[-1] == 7.0

    def test_nodes_mirror_symmetric(self):
        # reflected-window nodes are exact negations, any window
        for lo, hi, n in ((-8.0, 8.0, 4096), (-1.3, 2.7, 257), (0.1, 9.7, 100)):
            x = grid_nodes(lo, hi, n)
            xr = grid_nodes(-hi, -lo, n)
            assert np.array_equal(xr, -x[::-1])

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1e3, 1e3), st.floats(1e-6, 2e3), st.integers(2, 2 ** 21),
           st.data())
    def test_scalar_node_matches_array(self, lo, span, n, data):
        # the witness reads one node as Python floats, bit for bit the array's
        i = data.draw(st.integers(0, n - 1))
        x = grid_node(lo, lo + span, n, i)
        assert type(x) is float and x == grid_nodes(lo, lo + span, n)[i]

    @pytest.mark.parametrize("vals", [
        [1.5, -2.0, 0.0, 3.25], np.array([1, -2, 0, 3]), np.array([1.5, -2.0, 0.0, 3.25]),
        np.array([1.5, -2.0, 0.0, 3.25], dtype=np.float32),
        np.array([1.5, -2.0, -0.0, 3.25]) + 0j, (np.array([1.5, -2.0, 0.0, 3.25]) + 0j).conj(),
        np.array([1.5, -2.0, 0.0, 3.25], dtype=np.complex64)])
    def test_real_samples_are_float64(self, vals):
        # a real dtype, or complex with every imaginary part +-0.0
        f = SampledFunction(0.0, 1.0, 4, vals)
        assert same_bits(f.values, np.asarray(vals).real.astype(np.float64))

    @pytest.mark.parametrize("imag", [[0.0, 0.0, 0.0, 1e-300], [-1.0, 0.0, 2.0, 0.0]])
    def test_complex_only_with_a_nonzero_imaginary_part(self, imag):
        vals = np.array([1.5, -2.0, 0.0, 3.25]) + 1j * np.array(imag)
        assert same_bits(SampledFunction(0.0, 1.0, 4, vals).values, vals)
        single = np.array([1.5, -2.0j], dtype=np.complex64)
        assert same_bits(SampledFunction(0.0, 1.0, 2, single).values, single.astype(np.complex128))

    @pytest.mark.parametrize("vals", [np.linspace(-1.0, 1.0, 5), np.linspace(-1.0, 1.0, 5) + 0j,
                                      np.linspace(-1.0, 1.0, 5) + 1j])
    def test_values_are_an_own_read_only_copy(self, vals):
        f = SampledFunction(0.0, 1.0, 5, vals)
        kept = f.values.copy()
        with pytest.raises(ValueError, match="read-only"):
            f.values[0] = 7.0
        assert vals.flags.writeable
        vals[0] = 9.0
        assert same_bits(f.values, kept)

    def test_operations_keep_the_dtype(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=33)
        for vals in (x, x + 1j * rng.normal(size=33)):
            f = SampledFunction(-2.0, 5.0, 33, vals)
            for g in (f.reflected(), f.with_values(f.values), resample(f, -2.0, 5.0, 33),
                      resample(f, -1.0, 4.0, 20)):
                assert g.values.dtype == f.values.dtype
        assert SampledFunction.from_callable(np.exp, 0.0, 1.0, 9).values.dtype == np.float64

    def test_reflection_involution(self):
        rng = np.random.default_rng(0)
        f = SampledFunction(-2.0, 5.0, 33, rng.normal(size=33) + 0j)
        g = f.reflected().reflected()
        assert g.x_lo == f.x_lo and g.x_hi == f.x_hi
        assert np.array_equal(g.values, f.values)


class TestGridRefused:
    @pytest.mark.parametrize("lo, hi, n", [(0.0, 1.0, 1), (0.0, 1.0, 0), (1.0, 0.0, 3),
                                           (0.0, 0.0, 3), (np.nan, 1.0, 3), (0.0, np.inf, 3)])
    def test_nodes(self, lo, hi, n):
        with pytest.raises(DomainError):
            grid_nodes(lo, hi, n)
        with pytest.raises(DomainError):
            grid_node(lo, hi, n, 0)

    def test_resample_onto_one_node(self):
        with pytest.raises(DomainError, match="n >= 2"):
            resample(const(1.0), 0.0, 1.0, 1)


class TestDualExponent:
    def test_conjugates(self):
        assert dual_exponent(2.0) == -1.0
        assert abs(dual_exponent(1.5) + 2.0) < 1e-12
        assert abs(dual_exponent(3.0) + 0.5) < 1e-12

    @given(st.floats(min_value=1.001, max_value=50.0))
    def test_holder_identity(self, p):
        assert abs(1.0 / p + 1.0 / (1.0 - dual_exponent(p)) - 1.0) <= 1e-12

    def test_rejects_endpoint(self):
        with pytest.raises(DomainError):
            dual_exponent(1.0)


class TestIntegrate:
    def test_constant(self):
        assert integral(const(1.0), 0, 100) == pytest.approx(1.0, abs=1e-14)

    def test_linear_exact(self):
        f = SampledFunction.from_callable(lambda x: x, 0.0, 2.0, 201)
        assert integral(f, 0, 200).real == pytest.approx(2.0, abs=1e-13)

    def test_quadratic_derived(self):
        # composite trapezoid error for x^2 on [0,1] is spacing^2/6
        f = SampledFunction.from_callable(lambda x: x ** 2, 0.0, 1.0, 1001)
        assert integral(f, 0, 1000).real == pytest.approx(1.0 / 3.0, abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=-5, max_value=5), min_size=8, max_size=64),
           st.data())
    def test_additivity(self, vals, data):
        # the cell partition at a node is exact; only the running sums'
        # float additions round, so equality holds to a few ulp
        n = len(vals)
        f = SampledFunction(0.0, 1.0, n, np.asarray(vals) + 0j)
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(i, n - 1))
        lhs = integral(f, 0, i) + integral(f, i, j)
        rhs = integral(f, 0, j)
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))


class TestWeightedNorm:
    def test_unit_mass(self):
        assert norm(const(1.0), const(1.0), 2.0) == pytest.approx(1.0, abs=1e-14)

    def test_homogeneity(self):
        w = SampledFunction.from_callable(lambda x: 1.0 + x ** 2, 0.0, 1.0, 101)
        f = const(1.0, n=101)
        for c in (3.7, -2.0, 0.25):
            got = norm(f.with_values(c * f.values), w, 1.5)
            assert got == pytest.approx(abs(c) * norm(f, w, 1.5), rel=1e-13)

    def test_linear_l2(self):
        f = SampledFunction.from_callable(lambda x: x, 0.0, 1.0, 2001)
        w = const(1.0, n=2001)
        assert norm(f, w, 2.0) == pytest.approx(3.0 ** -0.5, abs=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31), st.sampled_from([1.5, 2.0, 3.0]))
    def test_triangle_inequality(self, seed, p):
        rng = np.random.default_rng(seed)
        n = 65
        f = SampledFunction(0.0, 1.0, n, rng.normal(size=n) + 1j * rng.normal(size=n))
        g = f.with_values(rng.normal(size=n) + 1j * rng.normal(size=n))
        w = f.with_values(rng.uniform(0.0, 2.0, size=n) + 0j)
        lhs = norm(f.with_values(f.values + g.values), w, p)
        rhs = norm(f, w, p) + norm(g, w, p)
        assert lhs <= rhs + 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    def test_monotone_in_magnitude(self, seed, p):
        rng = np.random.default_rng(seed)
        n = 65
        base = rng.normal(size=n)
        bigger = base * rng.uniform(1.0, 2.0, size=n)
        w = SampledFunction(0.0, 1.0, n, rng.uniform(0.0, 2.0, size=n) + 0j)
        small = SampledFunction(0.0, 1.0, n, base + 0j)
        large = SampledFunction(0.0, 1.0, n, bigger + 0j)
        assert norm(small, w, p) <= norm(large, w, p) + 1e-12


class TestResample:
    def test_identity(self):
        rng = np.random.default_rng(1)
        f = SampledFunction(0.0, 1.0, 33, rng.normal(size=33) + 0j)
        g = resample(f, 0.0, 1.0, 33)
        assert np.array_equal(g.values, f.values)

    def test_linear_reproduced(self):
        f = SampledFunction.from_callable(lambda x: 2.0 * x - 1.0, 0.0, 1.0, 41)
        g = resample(f, 0.2, 0.8, 29)
        assert np.max(np.abs(g.values.real - (2.0 * g.nodes() - 1.0))) < 1e-12

    def test_quadratic_error_bound(self):
        # linear interpolation error for x^2 is at most spacing^2 / 4
        f = SampledFunction.from_callable(lambda x: x ** 2, 0.0, 1.0, 101)
        g = resample(f, 0.0, 1.0, 201)
        err = np.max(np.abs(g.values.real - g.nodes() ** 2))
        assert err <= f.spacing ** 2

    def test_window_escape(self):
        with pytest.raises(DomainError):
            resample(const(1.0), -0.1, 1.0, 11)


# ---------------------------------------------------------------------------
# the in-place primitives against the expressions they replaced
# ---------------------------------------------------------------------------

def old_grid_nodes(x_lo, x_hi, n):
    """grid_nodes as six out-of-place array expressions, kept as the oracle."""
    i = np.arange(n, dtype=np.float64)
    m = float(n - 1)
    return ((m - i) * x_lo + i * x_hi) / m


def old_cumulative_trapezoid(values, spacing):
    """cumulative_trapezoid through a cell array and a concatenate, kept
    as the oracle."""
    cells = spacing * (values[..., :-1] + values[..., 1:]) / 2.0
    zero = np.zeros(cells.shape[:-1] + (1,), dtype=cells.dtype)
    return np.concatenate([zero, np.cumsum(cells, axis=-1)], axis=-1)


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: signed zeros and NaN payloads included."""
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


@st.composite
def windows(draw):
    """(x_lo, x_hi, n): any window, a symmetric one, or one with a node at
    exactly 0 (integer multiples of a power of two)."""
    n = draw(st.integers(2, 2 ** 12))
    kind = draw(st.sampled_from(["any", "symmetric", "zero-node"]))
    if kind == "zero-node":
        k, s = draw(st.integers(0, n - 1)), 2.0 ** draw(st.integers(-12, 12))
        return -k * s, (n - 1 - k) * s, n
    hi = draw(st.floats(1e-6, 1e3))
    lo = -hi if kind == "symmetric" else hi - draw(st.floats(1e-6, 2e3))
    return lo, hi, n


class TestInPlaceAgainstOldExpressions:
    @settings(max_examples=300, deadline=None)
    @given(windows())
    def test_grid_nodes(self, window):
        lo, hi, n = window
        for a, b in ((lo, hi), (-hi, -lo)):      # the window and its reflection
            assert same_bits(grid_nodes(a, b, n), old_grid_nodes(a, b, n))

    def test_zero_node_is_exact(self):
        assert grid_nodes(-3.0, 5.0, 9)[3] == 0.0
        assert grid_nodes(-8.0, 8.0, 2 ** 12 + 1)[2 ** 11] == 0.0

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 2 ** 12), st.integers(1, 3), st.booleans(),
           st.integers(-320, 308), st.floats(1e-6, 1e3), st.integers(0, 2 ** 32 - 1))
    # a one-cell complex row whose product underflows: numpy's in-place complex
    # product rounds the sign of that zero apart from the expression's
    @example(n=2, rows=2, complex_rows=True, exp10=-318, spacing=1e-06, seed=3)
    def test_cumulative_trapezoid(self, n, rows, complex_rows, exp10, spacing, seed):
        # magnitudes up to 2e308 overflow cells and running sums to inf,
        # and inf - inf or complex products with inf give nan
        rng = np.random.default_rng(seed)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = rng.uniform(-1.0, 2.0, (rows, n)) * 10.0 ** exp10
            if complex_rows:
                vals = vals + 1j * rng.uniform(-1.0, 2.0, (rows, n)) * 10.0 ** exp10
            for v in (vals, vals[0]):            # 2-D rows and one 1-D row
                assert same_bits(cumulative_trapezoid(v, spacing),
                                 old_cumulative_trapezoid(v, spacing))

    def test_cumulative_trapezoid_keeps_dtype(self):
        for v in (np.arange(5), np.arange(5, dtype=np.float32), np.ones(5, complex)):
            assert same_bits(cumulative_trapezoid(v, 0.5), old_cumulative_trapezoid(v, 0.5))
