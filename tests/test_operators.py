import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from onesided.errors import ConfigError, DomainError
from onesided.experiments import TestFunctionFamily, generate_family
from onesided.grid import SampledFunction, cumulative_trapezoid, grid_nodes
from onesided import operators
from onesided.operators import (_EPS, _FFT_NOISE, _PHASE_RESOLUTION, KernelSpec,
                                OperatorSpec, PolynomialPhase, PVConfig,
                                _affine_y_coefficient, _apply_dense, _filon_moments,
                                _toeplitz, dyadic_band_cells,
                                forward_extremal_averages,
                                kernel_cancellation_sup, m_minus, m_plus,
                                normalize_phase, oscillating_log_kernel,
                                oscillatory_apply_batch, scaling_identity_check,
                                truncated_power_kernel)

KP = oscillating_log_kernel("plus")
PV1 = PVConfig(eps_cells=1)


def apply_one(op: OperatorSpec, f: SampledFunction) -> np.ndarray:
    """``op`` on f, through the dispatch the campaigns use, as a one-row batch."""
    return op.apply_batch(f.values[None, :], f.x_lo, f.x_hi)[0]


def minimal(f: SampledFunction) -> np.ndarray:
    """The one-sided minimal function inf_{h>0} (1/h) int_x^{x+h} |f|."""
    return forward_extremal_averages(f.values, f.spacing, minimum=True)


def gaussian(lo=-4.0, hi=4.0, n=1025, width=3.0):
    return SampledFunction.from_callable(
        lambda x: np.exp(-width * x ** 2), lo, hi, n)


def indicator(a, b, lo=-4.0, hi=4.0, n=4097):
    return SampledFunction.from_callable(
        lambda x: ((x >= a) & (x < b)).astype(float), lo, hi, n)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

class TestKernels:
    def test_catalog_declared_bounds(self):
        for K in (oscillating_log_kernel("plus"),
                  oscillating_log_kernel("minus"),
                  truncated_power_kernel("plus"),
                  truncated_power_kernel("minus", 1.0, 2.0)):
            assert K.check_size_condition(seed=11) <= 1.0
            assert K.check_smoothness_condition(seed=11) <= 1.0

    def test_side_support(self):
        t = np.linspace(-3.0, 3.0, 601)
        kp = oscillating_log_kernel("plus").evaluate(t)
        assert np.all(kp[t >= 0] == 0.0) and np.any(kp[t < 0] != 0.0)
        km = oscillating_log_kernel("minus").evaluate(t)
        assert np.all(km[t <= 0] == 0.0)

    def test_truncated_power_support(self):
        K = truncated_power_kernel("plus", 0.5, 3.5)
        t = np.array([-0.4, -0.5, -1.0, -3.5, -4.0, 1.0])
        v = K.evaluate(t)
        assert v[0] == 0.0 and v[1] == 0.0 and v[3] == 0.0 and v[5] == 0.0
        assert v[2] != 0.0

    def test_reflection(self):
        K = oscillating_log_kernel("plus")
        Kr = K.reflected()
        t = np.linspace(0.01, 5.0, 100)
        assert np.allclose(Kr.evaluate(t), K.evaluate(-t), rtol=0, atol=0)

    def test_dilation(self):
        K = oscillating_log_kernel("plus")
        K2 = K.dilated(2.0)
        t = -np.linspace(0.01, 5.0, 100)
        assert np.allclose(K2.evaluate(t), K.evaluate(t / 2.0), rtol=1e-15)

    def test_serialization(self):
        for K in (KP, truncated_power_kernel("minus", 1.0, 2.5)):
            K2 = KernelSpec.from_json(K.to_json())
            assert K2 == K

    @pytest.mark.parametrize("params, consts", [((1.0, math.nan), (1.0, 2.0)),
                                                ((math.inf, 1.0), (1.0, 2.0)),
                                                ((1.0, 1.0), (1.0, math.nan))])
    def test_rejects_non_finite(self, params, consts):
        # a NaN parameter would reach every evaluation (and be dropped by max())
        with pytest.raises(DomainError, match="finite"):
            KernelSpec("oscillating-log", "plus", params, *consts)

    @pytest.mark.parametrize("tag, params, consts, match", [
        ("oscillating-log", (1.0,), (1.0, 2.0), r"params are \(lambda, sign\), got \[1.0\]"),
        ("oscillating-log", (1.0, 1.0, 1.0, 1.0), (1.0, 2.0), r"params are \(lambda, sign\)"),
        ("truncated-power", (1.0, 1.0), (1.0, 2.0), r"params are \(r_lo, r_hi, lambda, sign\)"),
        ("oscillating-log", (0.0, 1.0), (1.0, 2.0), "lambda must be > 0"),
        ("truncated-power", (0.5, 3.5, -1.0, 1.0), (1.0, 2.0), "lambda must be > 0"),
        ("truncated-power", (3.5, 0.5, 1.0, 1.0), (1.0, 2.0), "0 < r_lo < r_hi"),
        ("truncated-power", (0.0, 0.5, 1.0, 1.0), (1.0, 2.0), "0 < r_lo < r_hi"),
        ("truncated-power", (1.0, 1.0, 1.0, 1.0), (1.0, 2.0), "0 < r_lo < r_hi"),
        ("oscillating-log", (1.0, 1.0), (0.0, 2.0), "must be > 0"),
        ("oscillating-log", (1.0, 1.0), (1.0, -2.0), "must be > 0")],
        ids=["log-1-param", "log-4-params", "power-2-params", "log-lambda-0", "power-lambda<0",
             "power-r_lo>r_hi", "power-r_lo-0", "power-r_lo=r_hi", "size_const-0",
             "smooth_const<0"])
    def test_rejects_malformed_params(self, tag, params, consts, match):
        # each tag's parameter layout and ranges, checked once, at construction
        with pytest.raises(DomainError, match=match):
            KernelSpec(tag, "plus", params, *consts)

    def test_one_sided_only(self):
        with pytest.raises(DomainError, match="expected plus or minus"):
            KernelSpec("oscillating-log", "both", (1.0, 1.0), 1.0, 2.0)
        with pytest.raises(DomainError, match="expected plus or minus"):
            truncated_power_kernel("both")

    @pytest.mark.parametrize("r_lo, r_hi", [(1.0, 1.0), (3.5, 0.5), (0.0, 1.0)])
    def test_truncated_power_range(self, r_lo, r_hi):
        with pytest.raises(DomainError, match="0 < r_lo < r_hi"):
            truncated_power_kernel("plus", r_lo, r_hi)

    def test_cancellation_closed_form(self):
        # int sin(ln s)/(2s) telescopes to (cos(ln eps) - cos(ln N))/2
        got = kernel_cancellation_sup(KP, [1e-3], [5.0])
        exact = abs(math.cos(math.log(1e-3)) - math.cos(math.log(5.0))) / 2.0
        assert got == pytest.approx(exact, abs=1e-6)
        assert kernel_cancellation_sup(
            KP, np.geomspace(1e-4, 1.0, 7), np.linspace(1.0, 8.0, 8)) <= 1.0 + 1e-3

    def test_cancellation_beyond_support_stable(self):
        K = truncated_power_kernel("plus", 0.5, 3.5)
        a = kernel_cancellation_sup(K, [0.1], [4.0])
        b = kernel_cancellation_sup(K, [0.1], [8.0])
        assert a == pytest.approx(b, rel=1e-9)

    def test_pair_validation(self):
        with pytest.raises(DomainError):
            kernel_cancellation_sup(KP, [1.0], [0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_radius_refused(self, bad):
        with pytest.raises(DomainError, match="eps_grid"):
            kernel_cancellation_sup(KP, [1e-3, bad], [1.0, 8.0])
        with pytest.raises(DomainError, match="N_grid"):
            kernel_cancellation_sup(KP, [1e-3, 1e-2], [1.0, bad])


# ---------------------------------------------------------------------------
# maximal / minimal operators
# ---------------------------------------------------------------------------

class TestMaximal:
    def test_constant(self):
        f = SampledFunction(0.0, 1.0, 33, np.full(33, -2.5 + 0j))
        assert np.allclose(m_plus(f).values.real, 2.5, rtol=0, atol=0)
        assert np.allclose(m_minus(f).values.real, 2.5, rtol=0, atol=0)
        assert np.allclose(minimal(f), 2.5, rtol=0, atol=0)

    def test_indicator_closed_form_plus(self):
        f = indicator(0.0, 1.0)
        got = m_plus(f).values.real
        x = f.nodes()
        left = x < 0
        expect = np.where(left, 1.0 / np.where(left, 1.0 - x, 1.0),
                          np.where(x < 1.0, 1.0, 0.0))
        assert np.max(np.abs(got - expect)) <= 2.0 * f.spacing

    def test_indicator_closed_form_minus(self):
        f = indicator(0.0, 1.0)
        got = m_minus(f).values.real
        x = f.nodes()
        right = x > 1.0
        expect_right = np.where(right, 1.0 / np.where(right, x, 1.0), 0.0)
        err = np.max(np.abs(got[right] - expect_right[right]))
        assert err <= 2.0 * f.spacing

    def test_dominates_pointwise(self):
        rng = np.random.default_rng(4)
        f = SampledFunction(0.0, 1.0, 257, rng.normal(size=257) + 0j)
        assert np.all(m_plus(f).values.real >= np.abs(f.values) - 1e-15)

    def test_right_edge_returns_point_value(self):
        rng = np.random.default_rng(40)
        f = SampledFunction(0.0, 1.0, 65, rng.normal(size=65) + 0j)
        assert m_plus(f).values.real[-1] == abs(f.values[-1])
        assert m_minus(f).values.real[0] == abs(f.values[0])

    def test_min_below_max(self):
        rng = np.random.default_rng(5)
        f = SampledFunction(0.0, 1.0, 257, rng.normal(size=257) + 0j)
        assert np.all(minimal(f) <= m_plus(f).values.real + 1e-15)

    def test_minus_is_reflection(self):
        rng = np.random.default_rng(6)
        f = SampledFunction(-2.0, 3.0, 129, rng.normal(size=129) + 0j)
        lhs = m_minus(f).values
        rhs = m_plus(f.reflected()).values[::-1]
        assert np.array_equal(lhs, rhs)

    def test_exponential_minimal_bracket(self):
        f = SampledFunction.from_callable(np.exp, -4.0, 4.0, 2049)
        got = minimal(f)
        ex = np.exp(f.nodes())
        hi = ex * (math.exp(f.spacing) - 1.0) / f.spacing
        assert np.all(got >= ex * (1 - 1e-12)) and np.all(got <= hi + 1e-12)

    def test_decreasing_exponential_maximal(self):
        # forward averages of e^{-x} never exceed the point value
        f = SampledFunction.from_callable(lambda x: np.exp(-x), -4.0, 4.0, 2049)
        prod = m_plus(f).values.real * np.exp(f.nodes())
        assert np.all(prod >= 1.0 - 1e-6) and np.all(prod <= 1.0 + 1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31))
    def test_sublinear(self, seed):
        rng = np.random.default_rng(seed)
        n = 129
        f = rng.normal(size=n)
        g = rng.normal(size=n)
        d = 1.0 / (n - 1)
        lhs = forward_extremal_averages(f + g, d)
        rhs = forward_extremal_averages(f, d) + forward_extremal_averages(g, d)
        assert np.all(lhs <= rhs + 1e-12)

    def test_positively_homogeneous(self):
        rng = np.random.default_rng(7)
        f = SampledFunction(0.0, 1.0, 129, rng.normal(size=129) + 0j)
        base = m_plus(f).values.real
        for c in (2.0, 0.5, -4.0):   # dyadic scalings commute with rounding
            scaled = m_plus(f.with_values(c * f.values)).values.real
            assert np.array_equal(scaled, abs(c) * base)
        got = m_plus(f.with_values(0.3 * f.values)).values.real
        assert np.allclose(got, 0.3 * base, rtol=1e-12)


def scan_extremal_averages(values, spacing, minimum=False):
    """The O(n^2) scan over every h that the convex-hull pass of
    forward_extremal_averages replaced, kept verbatim as its oracle."""
    a = np.abs(np.asarray(values))
    if a.ndim == 1:
        return scan_extremal_averages(a[None, :], spacing, minimum)[0]
    n = a.shape[1]
    cum = cumulative_trapezoid(a, spacing)
    out = a.astype(np.float64).copy()
    pick = np.minimum if minimum else np.maximum
    for k in range(1, n):
        avg = (cum[:, k:] - cum[:, :-k]) / (k * spacing)
        out[:, :n - k] = pick(out[:, :n - k], avg)
    return out


def oracle_extremal_averages(values, spacing, minimum=False):
    """forward_extremal_averages with the stack walk over every node of every
    row: the span rule's bit-exact oracle."""
    a = np.abs(np.asarray(values))
    rows = np.atleast_2d(a)
    (m, n), d = rows.shape, float(spacing)
    cum = cumulative_trapezoid(rows, spacing)
    out = rows.astype(np.float64, copy=False)   # np.abs made a fresh array
    if n > 1:
        j = np.empty((m, n - 1), dtype=np.int64)
        for r, c in enumerate(-cum if minimum else cum):
            j[r] = operators._steepest_chords(c.tolist(), d, [n - 1], 0)
        avg = np.take_along_axis(cum, j, axis=1)
        avg -= cum[:, :-1]
        j -= np.arange(n - 1)
        avg /= j * d
        (np.minimum if minimum else np.maximum)(out[:, :-1], avg, out=out[:, :-1])
    return out.reshape(a.shape)


NEAR_TIE_EPS = 4


def assert_matches_scan(values, spacing, minimum):
    """Hull against scan, node by node.

    Equal bits, except at a genuine near-tie: on a run of one constant
    the running sums are collinear, so every h over the run gives the
    same average up to the rounding of (h d) and of the quotient; the
    scan keeps the largest rounding, the hull the h it reached on the
    hull.  Such a node passes only if the hull's value is itself one of
    the scan's candidates there, lies on the inner side of the scan's
    value (still a lower bound of the sup, an upper bound of the inf)
    and within NEAR_TIE_EPS machine epsilons of it, relative.  Two
    roundings allow 2 eps on an exactly collinear run; the worst seen
    over 15,000 random rows made mostly of constant runs, each taken as
    sup and as inf, was 3 eps.
    """
    got = forward_extremal_averages(values, spacing, minimum)
    want = scan_extremal_averages(values, spacing, minimum)
    assert got.shape == want.shape == np.shape(values)
    rows, g2, w2 = np.abs(np.atleast_2d(values)), np.atleast_2d(got), np.atleast_2d(want)
    for r, i in zip(*np.nonzero(g2 != w2)):
        cum = cumulative_trapezoid(rows[r], spacing)
        k = np.arange(1, rows.shape[1] - i)
        candidates = np.append((cum[i + k] - cum[i]) / (k * spacing), rows[r, i])
        g, w = g2[r, i], w2[r, i]
        assert g in candidates
        assert (g > w) if minimum else (g < w)
        assert abs(g - w) <= NEAR_TIE_EPS * np.finfo(float).eps * max(abs(g), abs(w))


@st.composite
def extremal_rows(draw):
    """1-D or 2-D input of 1 to 300 nodes built from runs of zeros, of
    one constant (exact ties between h) and of noise, then spread over
    1e-300 .. 1e300 node by node or rescaled by a power of two."""
    n = draw(st.integers(1, 300))
    shape = draw(st.sampled_from([(n,), (1, n), (3, n)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vals = rng.normal(size=shape)
    for row in vals.reshape(-1, n):
        cuts = np.sort(rng.integers(0, n + 1, size=draw(st.integers(0, 6))))
        for seg in np.split(np.arange(n), cuts):
            run = draw(st.sampled_from(["zeros", "constant", "noise"]))
            if run != "noise":
                row[seg] = 0.0 if run == "zeros" else row[seg][:1]
    if draw(st.booleans()):
        vals *= 10.0 ** rng.uniform(-300.0, 300.0, size=shape)
    else:
        vals *= 2.0 ** draw(st.integers(-900, 900))
    return vals, draw(st.sampled_from([1.0, 0.5, 0.1, 1.0 / 3.0, 16.0 / 255.0]))


@st.composite
def flanked_rows(draw):
    """extremal_rows with a run of zeros (a flat end of the running sums)
    or of the row's end value added at either end."""
    vals, d = draw(extremal_rows())
    ends = [np.repeat(end * draw(st.sampled_from([0.0, 1.0])), draw(st.integers(0, 300)),
                      axis=-1) for end in (vals[..., :1], vals[..., -1:])]
    return np.concatenate([ends[0], vals, ends[1]], axis=-1), draw(
        st.sampled_from([d, 1.0e-3, 37.0]))


# a row whose intercept guess the walk's comparisons reject: the chain's
# edges cross the prefix line within rounding of a node
GUESS_REJECTED = (np.array([0.0, 0.0, 0.0, 0.0, 1.5, 0.75, 0.0]), 0.1)


class TestSpanAgainstOracle:
    """The live-span rule against the walk over every node: equal bits."""

    @settings(max_examples=200, deadline=None)
    @given(flanked_rows())
    @example((np.zeros(7), 0.5))                                   # all flat
    @example((np.array([1.5, -2.0]), 1.0))                         # n = 2
    @example((np.array([0.0, 3.0]), 1.0))
    @example((np.array([2.0, 0.0, 0.0, 0.0, 0.0, 0.0]), 0.25))     # only node 0
    @example((np.array([0.0, 0.0, 0.0, 0.0, 0.0, -2.0]), 0.25))    # only node n - 1
    @example((np.r_[np.zeros(5), np.ones(8)], 1.0))                 # exact ties on the chain
    @example((np.r_[np.zeros(6), np.full(9, 0.3), np.zeros(4)], 0.1))
    @example((np.array([1e300, 1.0, 1.0, 1.0]), 1.0))             # absorbed flat suffix
    @example((np.array([1.0, 2.0, 5e-324, 5e-324, 5e-324]), 0.5))  # cells underflow to 0
    @example(GUESS_REJECTED)
    def test_random_rows(self, case):
        vals, d = case
        for minimum in (False, True):
            got = forward_extremal_averages(vals, d, minimum)
            assert got.shape == np.shape(vals)
            assert np.array_equal(got, oracle_extremal_averages(vals, d, minimum))

    def test_absorbed_flat_suffix(self):
        # the running sums stop moving where the values do not
        vals = np.array([1e300, 1.0, 1.0, 1.0])
        assert np.array_equal(forward_extremal_averages(vals, 1.0)[1:], [1.0, 1.0, 1.0])
        assert np.array_equal(forward_extremal_averages(vals, 1.0, minimum=True)[1:],
                              [0.0, 0.0, 1.0])

    def test_overflowing_sums(self):
        # running sums that reach inf get no flat suffix: the walk covers
        # them, NaN where inf - inf
        for vals in (np.full(6, 1e308), np.r_[np.zeros(3), np.full(6, 1e308), np.zeros(3)],
                     np.r_[1.0, np.full(5, 1.7e308)]):
            for d, minimum in ((1.0, False), (1.0, True), (1e307, False)):
                with np.errstate(over="ignore", invalid="ignore"):
                    got = forward_extremal_averages(vals, d, minimum)
                    want = oracle_extremal_averages(vals, d, minimum)
                assert np.array_equal(got, want, equal_nan=True)

    def _walks(self, vals, d):
        with mock.patch.object(operators, "_steepest_chords",
                               wraps=operators._steepest_chords) as walk:
            got = forward_extremal_averages(vals, d)
        assert np.array_equal(got, oracle_extremal_averages(vals, d))
        return walk.call_count

    def test_rejected_guess_walks_the_prefix(self):
        assert self._walks(*GUESS_REJECTED) == 2      # the live span, then the prefix

    def test_wrong_guess_is_caught(self):
        # every stop moved by one: the comparisons reject it and the prefix
        # is walked, with the same bits
        x = grid_nodes(-8.0, 8.0, 513)
        rows = np.exp(-x ** 2) * (np.abs(x) < 2.0) + (np.abs(x - 3.0) < 0.5)
        stops = operators._chain_stops

        def off_by_one(V, cv, i):
            k = stops(V, cv, i)
            return np.where(k < len(V) - 1, k + 1, k - 1)

        assert self._walks(rows, 1 / 32) == 1
        with mock.patch.object(operators, "_chain_stops", off_by_one):
            assert self._walks(rows, 1 / 32) == 2


def oracle_flat_prefix_chords(c: np.ndarray, d: float, V: np.ndarray, q: int):
    """_flat_prefix_chords when it replayed every node's steps through a
    np.repeat-expanded step array and returned the tangents or None, kept
    verbatim as the oracle of its accept/reject and tangents."""
    i = np.arange(q - 1, -1, -1)
    k = np.maximum.accumulate(operators._chain_stops(V, c[V], i))
    start = np.concatenate(([0], k[:-1]))     # where the walk from i + 1 stopped
    size = np.minimum(k + 1, len(V) - 1) - start + 1
    t = np.repeat(np.arange(q), size)         # each node's steps along V
    first = np.cumsum(size) - size
    m = np.arange(t.size) - first[t] + start[t]
    with np.errstate(all="ignore"):
        s = (c[V[m]] - c[i[t]]) / ((V[m] - i[t]) * d)
    step = t[1:] == t[:-1]
    ok = np.all(0.0 <= s[first]) and np.array_equal(
        (s[:-1] <= s[1:])[step], (m[:-1] < k[t[:-1]])[step])
    return V[k[::-1]] if ok else None


def flat_prefix_case(vals, d):
    """(c, V, q, cl) as forward_extremal_averages hands them to
    _flat_prefix_chords for a sup row, or None if the row has no flat
    prefix before its live span."""
    with np.errstate(over="ignore"):
        c = cumulative_trapezoid(vals, d)
    n = c.size
    q = int(np.searchsorted(c, 0.0, side="right")) - 1
    p = int(np.searchsorted(c, c[-1])) if math.isfinite(c[-1]) else n - 1
    if not 0 < q < p:
        return None
    cl, stack = c.tolist(), ([n - 1, p] if p < n - 1 else [n - 1])
    operators._steepest_chords(cl, d, stack, q)
    return c, np.array(stack[::-1]), q, cl


@st.composite
def zero_prefixed_rows(draw):
    """A run of zeros, then small integers, quarter steps, sparse noise or
    values whose running sums overflow, then maybe zeros again."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 80))
    body = draw(st.sampled_from(["integers", "quarters", "sparse", "overflow"]))
    if body == "integers":
        vals = rng.integers(0, 4, n).astype(float)
    elif body == "quarters":
        vals = rng.integers(0, 9, n) / 4.0
    elif body == "sparse":
        vals = rng.normal(size=n) * (rng.random(n) < 0.25)
    else:
        vals = 1.7e308 * (rng.random(n) < 0.5)
    vals = np.r_[np.zeros(draw(st.integers(1, 120))), vals,
                 np.zeros(draw(st.integers(0, 20)))]
    return vals, draw(st.sampled_from([0.1, 16.0 / 255.0, 0.37, 1e-300]))


# a row whose guess holds at node 1 and fails at node 0
GUESS_FAILS_PARTWAY = (np.array([0.0, 0.0, 0.0, 0.5, 0.0, 0.25]), 0.1)


class TestFlatPrefixAgainstOracle:
    """The flat-prefix confirmation against the step-by-step replay it
    replaced, and the walk against the live spans it is kept to."""

    @settings(max_examples=300, deadline=None)
    @given(zero_prefixed_rows())
    @example(GUESS_REJECTED)
    @example(GUESS_FAILS_PARTWAY)
    @example((np.array([0.0, 0.0, 0.0, 0.0, 2e300, 1e300]), 5e307))  # a chord inf / inf
    def test_same_verdict_and_tangents(self, case):
        vals, d = case
        found = flat_prefix_case(np.abs(vals), d)
        assume(found is not None)
        c, V, q, cl = found
        want = oracle_flat_prefix_chords(c, d, V, q)
        j, chord, stack = operators._flat_prefix_chords(c, d, V, q)
        assert (stack is None) == (want is not None)
        walk = operators._steepest_chords(cl, d, V[::-1].tolist(), 0)
        if stack is None:
            assert np.array_equal(j, want)
        else:       # the nodes confirmed, then the walk from the stack they left
            assert stack[-1] == q - j.size
            j = np.r_[operators._steepest_chords(cl, d, stack, 0), j]
        assert np.array_equal(j, walk)
        i = np.arange(q - chord.size, q)
        with np.errstate(all="ignore"):
            avg = (c[walk[i]] - c[i]) / ((walk[i] - i) * d)
        assert np.array_equal(chord.view(np.uint64), avg.view(np.uint64))

    def _walked(self, vals, d, kind="m_plus"):
        """The node ranges [lo, stack top) each walk covers, in call order."""
        walks = []

        def spy(c, d, stack, lo):
            walks.append((lo, stack[-1]))
            return walk(c, d, stack, lo)

        walk = operators._steepest_chords
        with mock.patch.object(operators, "_steepest_chords", spy):
            got = forward_extremal_averages(vals, d)
        assert np.array_equal(got, oracle_extremal_averages(vals, d))
        return walks

    def test_rejected_guess_resumes_at_the_first_failure(self):
        # node 1 is confirmed, so the prefix walk covers node 0 alone
        assert self._walked(*GUESS_FAILS_PARTWAY) == [(2, 5), (0, 1)]

    def test_walks_only_the_live_spans(self):
        x_lo, x_hi, n = -8.0, 8.0, 4097
        F = np.abs(generate_family(TestFunctionFamily("random-bump-sums", 16, 5, (-2.0, 2.0)),
                                   x_lo, x_hi, n))
        d = (x_hi - x_lo) / (n - 1)
        spans = []
        for sums in cumulative_trapezoid(F, d):
            q = int(np.searchsorted(sums, 0.0, side="right")) - 1
            spans.append((q, int(np.searchsorted(sums, sums[-1]))))
        assert all(0 < q < p < n - 1 for q, p in spans)      # supported inside
        assert self._walked(F, d) == spans

    def test_peak_memory_is_the_running_sums(self):
        """m_plus on 16 rows of 8192 nodes: the (m, n) tangent, average and
        spacing arrays peaked at 5.45 MB; now the running sums, |F| and the
        complex output make up about 3.1 MB."""
        F = generate_family(TestFunctionFamily("random-bump-sums", 16, 3, (-2.0, 2.0)),
                            -8.0, 8.0, 8192)
        op = OperatorSpec("m_plus")
        op.apply_batch(F, -8.0, 8.0)
        tracemalloc.start()
        try:
            op.apply_batch(F, -8.0, 8.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.0e6


class TestHullAgainstScan:
    @settings(max_examples=150, deadline=None)
    @given(extremal_rows())
    def test_random_rows(self, case):
        vals, d = case
        for minimum in (False, True):
            assert_matches_scan(vals, d, minimum)

    def test_smooth_rows_bit_identical(self):
        x = grid_nodes(-4.0, 4.0, 2049)
        rng = np.random.default_rng(12)
        rows = [np.exp(x), np.exp(-x), np.abs(x) ** 0.5, np.abs(x) ** 1.5,
                (x > 0.0) * 1.0, rng.normal(size=(8, 2049))]
        for vals in rows:
            for minimum in (False, True):
                assert np.array_equal(forward_extremal_averages(vals, 1 / 256, minimum),
                                      scan_extremal_averages(vals, 1 / 256, minimum))

    def test_slope_comparison_does_not_overflow(self):
        # running sums up to ~6e307 with index gaps in the thousands: a
        # cross-multiplied slope test would overflow, the scan does not
        x = grid_nodes(0.0, 1.0, 4097)
        for vals in (1e304 * (1.0 + x), 1e304 * (2.0 - x), 1e304 * (1.0 + (x > 0.5))):
            for minimum in (False, True):
                assert np.all(np.isfinite(forward_extremal_averages(vals, 1.0, minimum)))
                assert_matches_scan(vals, 1.0, minimum)

    def test_single_node_is_point_value(self):
        assert np.array_equal(forward_extremal_averages(np.array([-3.0]), 0.5), [3.0])
        got = forward_extremal_averages(np.array([[2.0], [-1.5]]), 0.5, minimum=True)
        assert np.array_equal(got, [[2.0], [1.5]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        vals = np.ones((2, 9))
        vals[1, 4] = bad
        with pytest.raises(DomainError):
            forward_extremal_averages(vals, 0.1)
        with pytest.raises(DomainError):
            forward_extremal_averages(vals[1], 0.1, minimum=True)

    def test_rejects_bad_ndim(self):
        for vals in (np.float64(1.0), np.ones((2, 3, 4))):
            with pytest.raises(DomainError):
                forward_extremal_averages(vals, 0.1)

    @pytest.mark.parametrize("spacing", [-0.5, 0.0, math.nan, math.inf])
    def test_rejects_bad_spacing(self, spacing):
        with pytest.raises(DomainError):
            forward_extremal_averages(np.array([1.0, 2.0, 3.0, 0.5]), spacing)


# ---------------------------------------------------------------------------
# singular / oscillatory integrals
# ---------------------------------------------------------------------------

class TestSingular:
    def test_zero_input(self):
        f = SampledFunction(-4.0, 4.0, 257, np.zeros(257, dtype=complex))
        assert np.all(apply_one(OperatorSpec("singular", KP, pv=PV1), f) == 0.0)

    def test_closed_form_indicator(self):
        # T~+ chi_[1,2](0) = -int_1^2 sin(ln y)/(2y) dy
        #                  = -(cos(ln 1) - cos(ln 2))/2, u = ln y
        f = indicator(1.0, 2.0 + 2.0 / 4096)   # nodes at exactly 1 and 2+cell
        out = apply_one(OperatorSpec("singular", KP, pv=PV1), f)
        exact = -(math.cos(0.0) - math.cos(math.log(2.0))) / 2.0
        got = out[(f.n - 1) // 2]                # the node x = 0
        # jump cells contribute O(spacing) each
        assert abs(got - exact) <= 5.0 * f.spacing

    def test_linearity(self):
        rng = np.random.default_rng(8)
        n = 513
        f = SampledFunction(-4.0, 4.0, n, rng.normal(size=n) + 1j * rng.normal(size=n))
        g = f.with_values(rng.normal(size=n) + 1j * rng.normal(size=n))
        a, b = 1.7 - 0.3j, -0.8 + 2.1j
        Tf = apply_one(OperatorSpec("singular", KP, pv=PV1), f)
        Tg = apply_one(OperatorSpec("singular", KP, pv=PV1), g)
        Tfg = apply_one(OperatorSpec("singular", KP, pv=PV1),
                        f.with_values(a * f.values + b * g.values))
        assert np.max(np.abs(Tfg - (a * Tf + b * Tg))) <= 1e-12

    def test_oscillatory_linearity(self):
        rng = np.random.default_rng(81)
        n = 257
        P = PolynomialPhase.monomial(1, 1, 2.0)
        f = SampledFunction(-4.0, 4.0, n, rng.normal(size=n) + 1j * rng.normal(size=n))
        g = f.with_values(rng.normal(size=n) + 0j)
        a, b = 0.6 + 1.1j, -2.0
        Tf = apply_one(OperatorSpec("oscillatory", KP, P, PV1), f)
        Tg = apply_one(OperatorSpec("oscillatory", KP, P, PV1), g)
        Tfg = apply_one(OperatorSpec("oscillatory", KP, P, PV1),
                        f.with_values(a * f.values + b * g.values))
        assert np.max(np.abs(Tfg - (a * Tf + b * Tg))) <= 1e-12

    def test_minus_side_reflection(self):
        rng = np.random.default_rng(9)
        f = SampledFunction(-4.0, 4.0, 513, rng.normal(size=513) + 0j)
        Km = oscillating_log_kernel("minus")
        lhs = apply_one(OperatorSpec("singular", Km, pv=PV1), f)
        rhs = apply_one(OperatorSpec("singular", Km.reflected(), pv=PV1),
                        f.reflected())[::-1]
        assert np.array_equal(lhs, rhs)

    def test_eps_cells_guard(self):
        f = gaussian(n=65)
        with pytest.raises(ConfigError):
            apply_one(OperatorSpec("singular", KP, pv=PVConfig(eps_cells=65)), f)


class TestOscillatory:
    def test_zero_phase_is_singular_bitwise(self):
        f = gaussian()
        a = apply_one(OperatorSpec("singular", KP, pv=PV1), f)
        b = apply_one(OperatorSpec("oscillatory", KP, PolynomialPhase.zero(), PV1), f)
        assert np.array_equal(a, b)

    def test_constant_phase_factor(self):
        f = gaussian()
        base = apply_one(OperatorSpec("singular", KP, pv=PV1), f)
        got = apply_one(OperatorSpec("oscillatory", KP,
                                     PolynomialPhase.monomial(0, 0, 0.7), PV1), f)
        assert np.max(np.abs(got - np.exp(0.7j) * base)) <= 1e-12

    def test_modulus_invariant_under_x_polynomials(self):
        f = gaussian()
        P = PolynomialPhase.monomial(1, 1, 1.0)
        P2 = PolynomialPhase.from_coeffs({(1, 1): 1.0, (0, 0): 1.0, (2, 0): 0.5})
        a = np.abs(apply_one(OperatorSpec("oscillatory", KP, P, PV1), f))
        b = np.abs(apply_one(OperatorSpec("oscillatory", KP, P2, PV1), f))
        assert np.max(np.abs(a - b)) <= 1e-12

    def _dense_oracle(self, f, coeff, R=96):
        # same linear-interpolant semantics, forced to R subcells
        x = f.nodes()
        d = f.spacing
        theta = np.arange(R + 1) / R
        tw = np.full(R + 1, d / R)
        tw[0] = tw[-1] = d / (2 * R)
        oracle = np.zeros(f.n, dtype=complex)
        for i in range(f.n - 1):
            kv = KP.evaluate(x[i] - x)
            acc = 0j
            for j in range(i + 1, f.n - 1):
                ys = x[j] + theta * d
                ph = np.exp(1j * coeff * x[i] * ys ** 2)
                g0, g1 = kv[j] * f.values[j], kv[j + 1] * f.values[j + 1]
                acc += np.sum(tw * ph * ((1 - theta) * g0 + theta * g1))
            oracle[i] = acc
        return oracle

    def test_nonlinear_phase_subdivision(self):
        # P = 30 x y^2 pushes the per-cell phase increment to ~10x the
        # pi/8 criterion, so the subdivision path must engage; compare
        # against a dense 96-subcell oracle and against the naive
        # single-cell trapezoid (which aliases badly)
        f = gaussian(-2.0, 2.0, 129, width=1.0)
        coeff = 30.0
        P = PolynomialPhase.monomial(1, 2, coeff)
        got = apply_one(OperatorSpec("oscillatory", KP, P, PV1), f)
        oracle = self._dense_oracle(f, coeff)
        err = np.max(np.abs(got - oracle))
        naive = self._dense_oracle(f, coeff, R=1)
        naive_err = np.max(np.abs(naive - oracle))
        # pi/8 per subcell keeps the moment error third order (~1e-2
        # relative at worst); the unsubdivided rule is measurably worse
        # (all quantities here are deterministic)
        assert err <= 2e-2
        assert naive_err >= 2.0 * err

    def test_batch_matches_single(self):
        # agreement to round-off; on the fft-chirp path taken here the
        # rows are even bit-identical (TestChirpAgainstDense)
        rng = np.random.default_rng(10)
        n = 257
        F = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        P = PolynomialPhase.monomial(1, 1, 2.0)
        batch = oscillatory_apply_batch(F, -4.0, 4.0, KP, P, PV1)
        for q in range(3):
            f = SampledFunction(-4.0, 4.0, n, F[q])
            single = apply_one(OperatorSpec("oscillatory", KP, P, PV1), f)
            assert np.max(np.abs(batch[q] - single)) <= 1e-12


# ---------------------------------------------------------------------------
# the dense paths' oracle
# ---------------------------------------------------------------------------

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


def oracle_apply_dense(F: np.ndarray, x: np.ndarray, d: float, kernel: KernelSpec,
                       phase: PolynomialPhase, lo_c: int, hi_c: int) -> np.ndarray:
    """The quadrature matrix W built row chunk by row chunk (closed-form
    Filon cells for a phase linear in y, subdivided cells otherwise).

    The dense apply as it was before its taps, chunks and subdivided
    cells were vectorised, kept verbatim as the oracle of
    operators._apply_dense and of the fft-chirp path."""
    m, n = F.shape
    start = np.minimum(np.arange(n) + lo_c, n - 1)
    stop = np.minimum(np.arange(n) + hi_c, n - 1)
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
        # t = (i - j) d, not the rounded x_i - x_j, as the fft-chirp path
        t = np.subtract.outer(rows.astype(np.float64), np.arange(jlo, jhi + 1.0))
        t *= d
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


def dense_oracle(F, x_lo, x_hi, kernel, phase, eps_cells, band, apply=oracle_apply_dense):
    """The dense Filon sum, mirrored for the minus side the way
    oscillatory_apply_batch mirrors."""
    if kernel.side == "minus":
        return dense_oracle(F[:, ::-1], -x_hi, -x_lo, kernel.reflected(),
                            phase.reflected(), eps_cells, band, apply)[:, ::-1]
    n = F.shape[1]
    d = (x_hi - x_lo) / (n - 1)
    lo, hi = (eps_cells, n - 1) if band is None else band
    return apply(F, grid_nodes(x_lo, x_hi, n), d, kernel, phase, lo, hi)


def structural_zeros(F, x_lo, x_hi, kernel, eps_cells, band):
    """Nodes where no nonzero sample sits on a nonzero kernel tap: node
    i + k enters row i through the cells ending at it, k in [lo, hi],
    with tap K((i - j) d), and a row without a cell (i + lo >= n - 1)
    has nothing at all.  The dense sum is exactly 0 there."""
    if kernel.side == "minus":
        return structural_zeros(F[:, ::-1], -x_hi, -x_lo, kernel.reflected(),
                                eps_cells, band)[:, ::-1]
    n = F.shape[1]
    d = (x_hi - x_lo) / (n - 1)
    lo, hi = (eps_cells, n - 1) if band is None else band
    zero = np.ones(F.shape, dtype=bool)
    for i in range(max(0, n - 1 - lo) if hi > lo else 0):
        j = np.arange(i + lo, min(i + hi, n - 1) + 1)
        tap = kernel.evaluate((i - j.astype(np.float64)) * d) != 0.0
        zero[:, i] = ~np.any(F[:, j[tap]] != 0.0, axis=1)
    return zero


@st.composite
def chirp_cases(draw):
    """A batch with runs of zeros, a window, P = g(x) + (b0 + b1 x) y,
    either kernel on either side, an eps and maybe a band (possibly
    starting past the window)."""
    n = draw(st.one_of(st.sampled_from([2, 3]), st.integers(2, 600)))
    x_lo = draw(st.floats(-8.0, 6.0))
    x_hi = x_lo + draw(st.floats(0.1, 12.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(1, 3))
    F = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    for row in F:
        cuts = np.sort(rng.integers(0, n + 1, size=draw(st.integers(0, 5))))
        for seg in np.split(np.arange(n), cuts):
            if draw(st.booleans()):
                row[seg] = 0.0
    b1 = draw(st.one_of(st.just(0.0), st.builds(
        lambda s, e: s * 10.0 ** e, st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 3.0))))
    g = [draw(st.floats(-3.0, 3.0)) for _ in range(3)]
    phase = PolynomialPhase.from_coeffs({(1, 1): b1, (0, 1): draw(st.floats(-10.0, 10.0)),
                                         (0, 0): g[0], (1, 0): g[1], (2, 0): g[2]})
    side = draw(st.sampled_from(["plus", "minus"]))
    kernel = draw(st.sampled_from([oscillating_log_kernel(side),
                                   truncated_power_kernel(side, 0.3, 2.0)]))
    eps_cells = draw(st.integers(1, max(1, n - 2)))
    band = draw(st.one_of(st.none(), st.integers(0, n + 3).flatmap(
        lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, lo + 2 * n)))))
    return F, x_lo, x_hi, kernel, phase, eps_cells, band


CHIRP_REL_TOL = 1e-12
CHIRP_PHASE_EPS = 16


# The dense sum is exactly 0: the bands of rows 0 and 1 hold nonzero
# samples, but the kernel vanishes at every offset below 0.3 = 5.1 cells,
# so no nonzero tap reaches one.
KERNEL_MISSES_SAMPLES = (
    np.array([[0.125 - 1.25j, -0.125 - 0.625j] + [0.0] * 16]), 0.0, 1.0,
    truncated_power_kernel("plus", 0.3, 2.0), PolynomialPhase.zero(), 1, None)


# Node 1 (and in the second case node 0) is exactly 0 in the dense sum:
# its only nonzero sample in reach sits one cell on, where the kernel
# vanishes, while the next tap, of the same cell's right end, does not.
SAMPLE_ON_ZERO_TAP = (
    np.array([[0.345584192064786 + 0.5811181041963531j,
               0.8216181435011584 + 0.36457239618607573j,
               0.33043707618338714 + 0.294132496655526j, 0.0, 0.0, 0.0, 0.0]]),
    0.0, 1.0, truncated_power_kernel("plus", 0.3, 2.0), PolynomialPhase.zero(), 1, None)
SAMPLE_ON_ZERO_TAP_WIDE = (
    np.array([[0.1257302210933933 - 0.2873877078086663j,
               -0.1321048632913019 + 1.5744082788445868j] + [0.0] * 43,
              [0.0] * 45]),
    0.0, 7.0, truncated_power_kernel("plus", 0.3, 2.0), PolynomialPhase.zero(), 1, None)

# A zero tap inside the band: sin(ln 1) = 0 at t = -1 = -8 cells, so
# node 0, whose only nonzero sample is node 8, is exactly 0.
INTERIOR_ZERO_TAP = (
    np.array([[0.0] * 8 + [0.75 - 0.5j] + [0.0] * 8]), 0.0, 2.0,
    oscillating_log_kernel("plus"), PolynomialPhase.zero(), 1, None)

# The nonzero samples (nodes 0-537) meet only taps below 6.5e-18 (the
# support starts at 0.3 = 519.3 cells), while the taps of offsets
# 538-595, up to 3.7e-4, meet only zeros: their FFT rounding would
# swamp the whole dense sum (1.9e-2 relative).
_rng = np.random.default_rng(7)
TAPS_PAST_SAMPLES = (
    np.concatenate([_rng.normal(size=538) + 1j * _rng.normal(size=538),
                    np.zeros(58)])[None, :],
    0.0, 0.34375, truncated_power_kernel("plus", 0.3, 2.0), PolynomialPhase.zero(), 1, None)


class TestChirpAgainstDense:
    @settings(max_examples=200, deadline=None)
    @given(chirp_cases())
    @example(case=KERNEL_MISSES_SAMPLES)
    @example(case=SAMPLE_ON_ZERO_TAP)
    @example(case=SAMPLE_ON_ZERO_TAP_WIDE)
    @example(case=INTERIOR_ZERO_TAP)
    @example(case=TAPS_PAST_SAMPLES)
    def test_random_cases(self, case):
        """Equal to the dense sum within
        (CHIRP_REL_TOL + CHIRP_PHASE_EPS eps Phi) max|dense|, with Phi
        the largest |P| on the window: a phase of size ~Phi carries
        ~eps Phi of rounding on either path, however it is factored.
        Both paths sample the kernel at t = (i - j) d; the rounded node
        difference x_i - x_j would move the dense sum by up to ~eps
        max|x| / d relative, times the kernel's condition (3e-10 seen
        near the edge of a truncated-power support).  Worst seen over
        3000 draws: 1.4e-11 relative at 2.5 eps Phi.  Structural zeros
        are exactly 0 on both paths."""
        F, x_lo, x_hi, kernel, phase, eps_cells, band = case
        pv = PVConfig(eps_cells=eps_cells)
        if eps_cells >= F.shape[1] - 1:
            with pytest.raises(ConfigError):
                oscillatory_apply_batch(F, x_lo, x_hi, kernel, phase, pv, band)
            return
        got = oscillatory_apply_batch(F, x_lo, x_hi, kernel, phase, pv, band)
        want = dense_oracle(F, x_lo, x_hi, kernel, phase, eps_cells, band)
        M = max(abs(x_lo), abs(x_hi))
        phi = sum(abs(v) * M ** (a + b) for (a, b), v in phase.terms)
        tol = CHIRP_REL_TOL + CHIRP_PHASE_EPS * np.finfo(float).eps * phi
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))
        zero = structural_zeros(F, x_lo, x_hi, kernel, eps_cells, band)
        assert np.all(got[zero] == 0.0) and np.all(want[zero] == 0.0)

    @pytest.mark.parametrize("case", [SAMPLE_ON_ZERO_TAP, SAMPLE_ON_ZERO_TAP_WIDE,
                                      INTERIOR_ZERO_TAP])
    def test_sample_on_zero_tap_is_exact_zero(self, case):
        # the reach rule alone
        F, x_lo, x_hi, kernel, phase, eps_cells, band = case
        got = oscillatory_apply_batch(F, x_lo, x_hi, kernel, phase, PVConfig(eps_cells), band)
        zero = structural_zeros(F, x_lo, x_hi, kernel, eps_cells, band)
        assert np.all(got[zero] == 0.0) and np.all(got[~zero] != 0.0)
        # some such node holds a nonzero sample in its band (eps 1, no cut)
        in_band = np.array([[np.any(row[i + 1:]) for i in range(F.shape[1])] for row in F])
        assert np.any(zero & in_band)

    def test_routing_by_phase_terms(self):
        for coeffs in ({}, {(1, 1): 1e3}, {(1, 1): 3.0, (0, 1): 2.0, (2, 0): 5.0}):
            assert _affine_y_coefficient(PolynomialPhase.from_coeffs(coeffs)) is not None
        for coeffs in ({(2, 1): 10.0}, {(1, 2): 1.0}, {(2, 1): 1.0, (1, 1): 1.0}):
            assert _affine_y_coefficient(PolynomialPhase.from_coeffs(coeffs)) is None

    def test_non_affine_phases_stay_dense(self):
        # x^2 y (dense Filon) and x y^2 (subdivided) give _apply_dense's
        # bits, on both sides and with a band
        rng = np.random.default_rng(14)
        F = rng.normal(size=(3, 129)) + 1j * rng.normal(size=(3, 129))
        for P in (PolynomialPhase.monomial(2, 1, 10.0), PolynomialPhase.monomial(1, 2, 1.0)):
            for K in (KP, oscillating_log_kernel("minus")):
                for band in (None, (4, 40)):
                    got = oscillatory_apply_batch(F, -2.0, 2.0, K, P, PV1, band)
                    want = dense_oracle(F, -2.0, 2.0, K, P, 1, band, _apply_dense)
                    assert np.array_equal(got, want)

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_rows_independent_of_batch(self, side):
        # pocketfft transforms each row on its own, so a row's bits do
        # not depend on the batch around it (BLAS on the dense paths
        # rounds a matrix-vector product apart from a matrix-matrix one)
        K = oscillating_log_kernel(side)
        F = generate_family(TestFunctionFamily("modulated-gaussians", 64, 3, (-2.0, 2.0)),
                            -8.0, 8.0, 1025)
        for P, band in ((PolynomialPhase.monomial(1, 1, 1e3), None),
                        (PolynomialPhase.zero(), None),
                        (PolynomialPhase.monomial(1, 1, 1.0), (64, 128))):
            full = oscillatory_apply_batch(F, -8.0, 8.0, K, P, PV1, band)
            for q in (0, 17, 63):
                one = oscillatory_apply_batch(F[q:q + 1], -8.0, 8.0, K, P, PV1, band)
                assert np.array_equal(one[0], full[q])
            assert np.array_equal(
                oscillatory_apply_batch(F[5:8], -8.0, 8.0, K, P, PV1, band), full[5:8])

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_rows_of_distinct_hulls_independent_of_batch(self, side):
        # random bump sums on [0, 1] mostly have a sample hull of their own,
        # which alone sets the row's FFT size, taps and offset
        K = oscillating_log_kernel(side)
        n = 2048
        F = generate_family(TestFunctionFamily("random-bump-sums", 16, 3, (0.0, 1.0)),
                            -34.0, 2.0, n)
        assert len({(j[0], j[-1]) for j in map(np.flatnonzero, F)}) >= 8
        P = PolynomialPhase.monomial(1, 1, 1.0)
        for band in (None, dyadic_band_cells(36.0 / (n - 1), 3, 1)):
            full = oscillatory_apply_batch(F, -34.0, 2.0, K, P, PV1, band)
            for q in range(F.shape[0]):
                one = oscillatory_apply_batch(F[q:q + 1], -34.0, 2.0, K, P, PV1, band)
                assert np.array_equal(one[0], full[q])

    def test_swamped_row_summed_densely_alone(self):
        # TAPS_PAST_SAMPLES next to a row of samples everywhere: only the
        # first is summed densely, and each row keeps the bits it has alone
        F, x_lo, x_hi, K, P, eps_cells, band = TAPS_PAST_SAMPLES
        rng = np.random.default_rng(16)
        G = np.vstack([F, rng.normal(size=F.shape) + 1j * rng.normal(size=F.shape)])
        pv = PVConfig(eps_cells)
        with mock.patch.object(operators, "_apply_dense", wraps=_apply_dense) as dense:
            both = oscillatory_apply_batch(G, x_lo, x_hi, K, P, pv, band)
        assert dense.call_count == 1
        for q in (0, 1):
            one = oscillatory_apply_batch(G[q:q + 1], x_lo, x_hi, K, P, pv, band)
            assert np.array_equal(one[0], both[q])

    def test_row_between_noise_levels_summed_densely(self):
        # node 0, which no row reads on the plus side, holds 1e6, so the FFT
        # rounding eps d |F| |T| lies between 1e-13 and 1e-6 of the row's
        # peak: summed densely here, though not with a guard of 1e-6
        n, x_lo, x_hi = 257, -4.0, 4.0
        F = np.random.default_rng(0).normal(size=(1, n)) + 0j
        F[0, 0] = 1e6
        P = PolynomialPhase.monomial(1, 1, 1.0)
        with mock.patch.object(operators, "_apply_dense", wraps=_apply_dense) as dense:
            out = oscillatory_apply_batch(F, x_lo, x_hi, KP, P, PV1)
        assert dense.call_count == 1
        x, d = grid_nodes(x_lo, x_hi, n), (x_hi - x_lo) / (n - 1)
        assert np.array_equal(out, _apply_dense(F, x, d, KP, P, 1, n - 1))


@st.composite
def dense_cases(draw):
    """A batch with runs of zeros, maybe all its rows zero outside one
    shared hull (empty, or touching node 0 or node n - 1), a window, a
    phase of one of the two dense kinds -- linear in y with a non-affine
    B(x) (x^2 y type) or nonlinear in y (x y^2 / y^3 type) -- either
    kernel on either side, an eps, maybe a band (ending before the hull
    or starting past it for some rows), and a chunk budget from one row
    per chunk up to the whole matrix (so several chunks and a partial
    last one)."""
    n = draw(st.integers(2, 160))
    x_lo = draw(st.floats(-5.0, 4.0))
    x_hi = x_lo + draw(st.floats(0.1, 7.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(1, 3))
    F = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    for row in F:
        cuts = np.sort(rng.integers(0, n + 1, size=draw(st.integers(0, 5))))
        for seg in np.split(np.arange(n), cuts):
            if draw(st.booleans()):
                row[seg] = 0.0
    if draw(st.booleans()):
        a = draw(st.just(0) | st.integers(0, n))
        b = draw(st.just(n) | st.integers(a, n))
        F[:, :a] = F[:, b:] = 0.0
    c = [draw(st.floats(-3.0, 3.0)) for _ in range(4)]
    if draw(st.booleans()):
        coeffs = {(2, 1): c[0] or 1.0, (1, 1): c[1], (0, 1): c[2], (3, 0): c[3]}
    else:
        coeffs = {draw(st.sampled_from([(1, 2), (0, 3), (2, 2)])): c[0] or 1.0,
                  (1, 1): c[1], (2, 0): c[2]}
    side = draw(st.sampled_from(["plus", "minus"]))
    kernel = draw(st.sampled_from([oscillating_log_kernel(side),
                                   truncated_power_kernel(side, 0.3, 2.0)]))
    eps_cells = draw(st.integers(1, max(1, n - 2)))
    band = draw(st.one_of(st.none(), st.integers(0, n + 3).flatmap(
        lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, lo + 2 * n)))))
    chunk_bytes = 16 * draw(st.one_of(st.integers(1, 4 * n), st.integers(1, 2 * n * n)))
    return (F, x_lo, x_hi, kernel, PolynomialPhase.from_coeffs(coeffs), eps_cells,
            band, chunk_bytes)


DENSE_REL_TOL = 1e-12

# A cubic phase of size 3 * 6.875^3 ~ 975: e^{iP} at y_j + d and at the
# node y_{j+1} it rounds apart from differ by ~eps Phi, which moves the
# sum by 1.7e-12 relative if a cell's right end takes the node's value.
CUBIC_PHASE_RIGHT_ENDS = (
    np.array([[0.0] * 86 + [-0.25018774310332953 + 0.5161096668859839j,
                            -0.0376289073508626 + 0.6652923054879747j,
                            0.3691455929184013 + 1.1391647405827956j,
                            -1.2727055668844023 - 0.7718496143541677j,
                            -0.4658568843995383 - 2.1230637290870304j] + [0.0] * 65]),
    2.375, 6.875, truncated_power_kernel("plus", 0.3, 2.0),
    PolynomialPhase.monomial(0, 3, 3.0), 1, None, 16)


def shared_hull(a, b, band, side, phase):
    """Three rows on [-2, 2], n = 129, zero outside the nodes [a, b), in
    chunks of two rows' worth of entries."""
    rng = np.random.default_rng(17)
    F = rng.normal(size=(3, 129)) + 1j * rng.normal(size=(3, 129))
    F[:, :a] = F[:, b:] = 0.0
    return F, -2.0, 2.0, oscillating_log_kernel(side), phase, 1, band, 16 * 2 * 129


X2Y, XY2 = PolynomialPhase.monomial(2, 1, 10.0), PolynomialPhase.monomial(1, 2, 3.0)


class TestDenseAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(dense_cases())
    @example(case=CUBIC_PHASE_RIGHT_ENDS)
    @example(case=shared_hull(60, 60, None, "plus", XY2))          # no samples
    @example(case=shared_hull(60, 61, None, "minus", X2Y))         # one node
    @example(case=shared_hull(0, 40, (5, 30), "plus", X2Y))        # from node 0
    @example(case=shared_hull(90, 129, (3, 20), "minus", XY2))     # to node n - 1
    @example(case=shared_hull(50, 70, (80, 100), "plus", XY2))     # bands past the hull
    def test_random_cases(self, case):
        """Within DENSE_REL_TOL max|oracle| of the per-row code, whatever
        the chunking: the Filon cells are the oracle's bits and only BLAS
        sums them in another order; subdivided cells turn e^{iP} at the
        node y_{j+1} to y_j + d, where the oracle evaluates it, by the
        difference of the two rounded phases.  Structural zeros are
        exactly 0 on both."""
        F, x_lo, x_hi, kernel, phase, eps_cells, band, chunk_bytes = case
        pv = PVConfig(eps_cells=eps_cells)
        with mock.patch.object(operators, "_CHUNK_BYTES", chunk_bytes):
            if eps_cells >= F.shape[1] - 1:
                with pytest.raises(ConfigError):
                    oscillatory_apply_batch(F, x_lo, x_hi, kernel, phase, pv, band)
                return
            got = oscillatory_apply_batch(F, x_lo, x_hi, kernel, phase, pv, band)
        want = dense_oracle(F, x_lo, x_hi, kernel, phase, eps_cells, band)
        assert np.max(np.abs(got - want)) <= DENSE_REL_TOL * np.max(np.abs(want))
        zero = structural_zeros(F, x_lo, x_hi, kernel, eps_cells, band)
        assert np.all(got[zero] == 0.0) and np.all(want[zero] == 0.0)

    def test_filon_cells_bit_identical_in_one_chunk(self):
        # one chunk and one row: the same W entries and the same
        # matrix-vector product as the oracle
        rng = np.random.default_rng(15)
        F = rng.normal(size=(1, 300)) + 1j * rng.normal(size=(1, 300))
        P = PolynomialPhase.from_coeffs({(2, 1): 10.0, (1, 1): -2.0, (3, 0): 1.0})
        for K in (KP, truncated_power_kernel("plus", 0.3, 2.0)):
            for band in (None, (5, 40)):
                got = oscillatory_apply_batch(F, -3.0, 2.0, K, P, PV1, band)
                assert np.array_equal(got, dense_oracle(F, -3.0, 2.0, K, P, 1, band))

    def test_kernel_taps_bit_identical(self):
        # taps sampled once at k d and gathered by i - j equal the kernel
        # sampled at every (i - j) d
        n, d = 97, 0.37
        k = np.arange(1 - n, n)
        for K in (KP, truncated_power_kernel("plus", 0.3, 2.0)):
            taps = K.evaluate(-k * d)
            for r0, r1, j0, j1 in ((0, 97, 0, 97), (5, 9, 6, 50), (90, 97, 91, 97)):
                t = np.subtract.outer(np.arange(r0, r1, dtype=np.float64),
                                      np.arange(j0, j1, dtype=np.float64)) * d
                assert np.array_equal(_toeplitz(taps, n, r0, r1, j0, j1), K.evaluate(t))

    def test_memory_bounded(self):
        """One x^2 y apply at n = 2048 with 16 rows: the per-row-chunk
        code peaked at 324 MB (five chunk-sized complex temporaries on
        2000 rows at once); the byte-budget chunks keep it at ~26 MB."""
        rng = np.random.default_rng(16)
        F = rng.normal(size=(16, 2048)) + 1j * rng.normal(size=(16, 2048))
        tracemalloc.start()
        try:
            oscillatory_apply_batch(F, -8.0, 8.0, KP, PolynomialPhase.monomial(2, 1, 10.0), PV1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_refuses_oversized_request_up_front(self):
        # 1e3 x y^2 on [-8, 8] at n = 4096: ~8.4e6 cells x 1274 subcells
        # each by the slope bound, about 1e10; nothing may be evaluated
        F = np.ones((1, 4096), dtype=complex)
        P = PolynomialPhase.monomial(1, 2, 1e3)
        with mock.patch.object(PolynomialPhase, "evaluate", side_effect=AssertionError), \
                mock.patch.object(PolynomialPhase, "partial_y", side_effect=AssertionError), \
                mock.patch.object(KernelSpec, "evaluate", side_effect=AssertionError):
            with pytest.raises(ConfigError, match=r"1\.07e\+10 subcells"):
                oscillatory_apply_batch(F, -8.0, 8.0, KP, P, PV1)

    def test_refusal_counts_the_cells_built(self):
        # the same request on a batch with four nonzero nodes builds ~1e4
        # cells, ~1.3e7 subcells: it passes the refusal and reaches the
        # subdivided cells, which raise before any work
        F = np.zeros((1, 4096), dtype=complex)
        F[0, 2000:2004] = 1.0
        P = PolynomialPhase.monomial(1, 2, 1e3)
        with mock.patch.object(operators, "_subdivided_weights", side_effect=StopIteration):
            with pytest.raises(StopIteration):
                oscillatory_apply_batch(F, -8.0, 8.0, KP, P, PV1)

    @pytest.mark.parametrize("P", [PolynomialPhase.monomial(2, 1, 10.0),
                                   PolynomialPhase.monomial(1, 2, 1.0)])
    def test_builds_only_the_sample_hull(self, P):
        # a [-2, 2]-supported batch on [-8, 8]: ~1/4 of the band's cells
        # meet the samples' hull, and the chunks build few more
        n = 1025
        F = generate_family(TestFunctionFamily("modulated-gaussians", 8, 5, (-2.0, 2.0)),
                            -8.0, 8.0, n)
        with mock.patch.object(operators, "_toeplitz", wraps=_toeplitz) as tap:
            oscillatory_apply_batch(F, -8.0, 8.0, KP, P, PV1)
        built = sum((r1 - r0) * (j1 - j0) for _, _, r0, r1, j0, j1 in
                    (call.args for call in tap.call_args_list[::2]))
        assert built <= (n - 1) * (n - 2) // 2 / 3

    def test_refusal_spares_the_campaign_sizes(self):
        # the benchmark's sweeps: x^2 y at n = 4096 (one subcell per
        # cell) and x y^2 at n = 2048 (three), each over ~n^2/2 cells
        x = grid_nodes(-8.0, 8.0, 2048)
        assert operators._subcell_bound(x, x[1] - x[0], PolynomialPhase.monomial(1, 2, 1.0),
                                        x) == 3
        assert max(4096 * 4095 // 2, 2048 * 2047 // 2 * 3) < operators._SUBCELL_LIMIT


# ---------------------------------------------------------------------------
# the fft-chirp path's oracle
# ---------------------------------------------------------------------------

def oracle_correlate(S: np.ndarray, taps: np.ndarray, size: int) -> np.ndarray:
    """C[q, i] = sum_r taps[r] S[q, i + r] (zero past the end of S) for
    i < S.shape[1], by FFT; size >= S.shape[1] + taps.size - 1 keeps the
    circular product free of wrap-around."""
    H = np.fft.fft(taps.conj(), size).conj()
    return np.fft.ifft(np.fft.fft(S, size) * H)[:, :S.shape[1]]


def oracle_apply_chirp(F: np.ndarray, x: np.ndarray, d: float, kernel: KernelSpec,
                       phase: PolynomialPhase, b0: float, b1: float,
                       lo: int, hi: int) -> np.ndarray:
    """The dense Filon sum for P = A(x) + (b0 + b1 x) y in O(n log n).

    The fft-chirp path as it was before each row was correlated once
    over its own sample hull: two whole-window correlations, one per
    cell end, kept verbatim as the oracle of operators._apply_chirp.

    With k = j - i and e^{i B(x_i) y_j} = e^{i(b1 x_i^2/2)} e^{i(b0 y_j
    + b1 y_j^2/2)} e^{-i b1 (k d)^2/2}, row i of the matrix is a row
    factor times the chirped samples G correlated with the Toeplitz taps
    T[k] = K(-k d) e^{-i b1 (k d)^2/2}.  Cell [j, j+1] of row i weighs
    its left sample by d m0 and its right sample by d m1 e^{-i B d},
    over the band k in [lo, hi) (cells end at the last node)."""
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
    live = n - 1 - lo                 # rows i with a cell in their band
    A, B = phase.linear_parts(x)
    m0, m1 = _filon_moments(B * d)
    T = K * np.exp(-0.5j * b1 * kd * kd)
    G = F * np.exp(1j * (b0 * x + 0.5 * b1 * x * x))
    size = 1 << (n - 2 * lo + hi - 2).bit_length()   # >= n - 2 lo + hi - 1
    right = oracle_correlate(G[:, lo + 1:], T[1:], size)[:, :live]
    G[:, -1] = 0.0                    # the last node is no cell's left end
    left = oracle_correlate(G[:, lo:], T[:-1], size)[:, :live]
    rows = slice(0, live)
    out[:, rows] = d * np.exp(1j * (A[rows] + 0.5 * b1 * x[rows] * x[rows])) * (
        m0[rows] * left + m1[rows] * np.exp(-1j * B[rows] * d) * right)
    # a row where no nonzero sample sits on a nonzero tap is exactly 0 in
    # the dense sum, FFT round-off is not; count each run of consecutive
    # nonzero taps off prefix sums
    seen = np.zeros((m, n + 1), dtype=np.int64)
    np.cumsum(F != 0, axis=1, out=seen[:, 1:])
    taps = lo + np.flatnonzero(K)
    i = np.arange(live)
    reached = np.zeros((m, live), dtype=bool)
    for run in np.split(taps, np.flatnonzero(np.diff(taps) > 1) + 1):
        reached |= (seen[:, np.minimum(i + run[-1] + 1, n)] >
                    seen[:, np.minimum(i + run[0], n)])
    out[:, rows][~reached] = 0.0
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
    for q in np.flatnonzero(reached.any(axis=1)):
        if scale * math.sqrt(np.vdot(F[q], F[q]).real) > np.max(np.abs(out[q])):
            out[q] = _apply_dense(F[q:q + 1], x, d, kernel, phase, lo, hi)[0]
    return out


def chirp_oracle(F, x, d, kernel, phase, lo, hi):
    return oracle_apply_chirp(F, x, d, kernel, phase, *_affine_y_coefficient(phase), lo, hi)


XY = PolynomialPhase.from_coeffs({(1, 1): 3.0, (0, 1): 2.0})
CHIRP_ORACLE_EPS = 64


class TestChirpAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(chirp_cases())
    @example(case=shared_hull(90, 129, None, "plus", XY)[:7])          # to node n - 1
    @example(case=shared_hull(0, 40, None, "minus", XY)[:7])           # from node 0
    @example(case=shared_hull(60, 61, None, "plus", XY)[:7])           # one node
    @example(case=shared_hull(90, 129, (5, 6), "plus", XY)[:7])        # L = 1
    @example(case=shared_hull(50, 70, (80, 100), "minus", XY)[:7])     # band past the hull
    def test_random_cases(self, case):
        """Within CHIRP_ORACLE_EPS eps (1 + Phi) max|oracle| of the
        two-correlation path, Phi the largest |P| on the window, with the
        same structural zeros: both round the same phase factors, but
        combine them and their FFT noise in another order.  Worst seen
        over 11,000 draws that hypothesis steered towards it: 15."""
        F, x_lo, x_hi, kernel, phase, eps_cells, band = case
        if eps_cells >= F.shape[1] - 1:
            return
        got = oscillatory_apply_batch(F, x_lo, x_hi, kernel, phase, PVConfig(eps_cells), band)
        want = dense_oracle(F, x_lo, x_hi, kernel, phase, eps_cells, band, chirp_oracle)
        M = max(abs(x_lo), abs(x_hi))
        phi = sum(abs(v) * M ** (a + b) for (a, b), v in phase.terms)
        tol = CHIRP_ORACLE_EPS * _EPS * (1.0 + phi)
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))
        zero = structural_zeros(F, x_lo, x_hi, kernel, eps_cells, band)
        assert np.all(got[zero] == 0.0) and np.all(want[zero] == 0.0)


class TestApplyBoundary:
    @pytest.mark.parametrize("F", [np.ones(9, dtype=complex),
                                   np.ones((2, 3, 9), dtype=complex),
                                   np.ones((2, 1), dtype=complex)])
    def test_rejects_shape(self, F):
        with pytest.raises(DomainError):
            oscillatory_apply_batch(F, -1.0, 1.0, KP, PolynomialPhase.zero(), PV1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_rejects_non_finite(self, bad):
        F = np.ones((2, 9), dtype=complex)
        F[1, 4] = bad
        with pytest.raises(DomainError):
            oscillatory_apply_batch(F, -1.0, 1.0, KP, PolynomialPhase.zero(), PV1)

    @pytest.mark.parametrize("window", [(1.0, 1.0), (1.0, -1.0), (math.nan, 1.0)])
    def test_rejects_window(self, window):
        with pytest.raises(DomainError):
            oscillatory_apply_batch(np.ones((1, 9), dtype=complex), *window, KP,
                                    PolynomialPhase.zero(), PV1)

    @pytest.mark.parametrize("op", [
        OperatorSpec("identity"), OperatorSpec("m_plus"), OperatorSpec("m_minus"),
        OperatorSpec("singular", KP),
        OperatorSpec("oscillatory", KP, PolynomialPhase.monomial(1, 1, 2.0)),
        OperatorSpec("dyadic_piece", KP, PolynomialPhase.zero(), PV1, j=0)],
        ids=lambda op: op.kind)
    @pytest.mark.parametrize("F, window", [
        (np.ones((2, 1)), (0.0, 1.0)), (np.ones(9), (0.0, 1.0)),
        (np.ones((2, 9)), (1.0, 0.0)), (np.ones((2, 9)), (0.0, 0.0)),
        (np.ones((2, 9)), (math.nan, 1.0)), (np.full((2, 9), math.nan), (0.0, 1.0))],
        ids=["one-node", "1-D", "reversed", "empty", "nan-window", "nan-F"])
    def test_apply_batch_rejects_every_kind(self, op, F, window):
        with pytest.raises(DomainError):
            op.apply_batch(F, *window)

    def test_rejects_negative_band_start(self):
        with pytest.raises(DomainError):
            oscillatory_apply_batch(np.ones((1, 9), dtype=complex), -1.0, 1.0, KP,
                                    PolynomialPhase.zero(), PV1, (-1, 3))


class TestOperatorSpecFields:
    P = PolynomialPhase.monomial(1, 1, 2.0)

    @pytest.mark.parametrize("kind, fields", [
        ("m_plus", dict(kernel=KP)), ("identity", dict(kernel=KP)),
        ("m_minus", dict(phase=P)), ("singular", dict(kernel=KP, phase=P)),
        ("singular", dict(kernel=KP, j=2)), ("oscillatory", dict(kernel=KP, phase=P, j=1)),
        ("m_plus", dict(j=0))])
    def test_ignored_field_refused(self, kind, fields):
        with pytest.raises(ConfigError, match=f"{kind} takes no"):
            OperatorSpec(kind, **fields)

    @pytest.mark.parametrize("kind, fields", [("singular", {}), ("oscillatory", {}),
                                              ("dyadic_piece", dict(kernel=KP))])
    def test_missing_field_refused(self, kind, fields):
        with pytest.raises(ConfigError, match="needs"):
            OperatorSpec(kind, **fields)

    @pytest.mark.parametrize("kind, fields, calls", [
        ("singular", dict(kernel=KP), 1), ("oscillatory", dict(kernel=KP, phase=P), 1),
        ("dyadic_piece", dict(kernel=KP, phase=P, j=0), 2), ("m_plus", {}, 1)])
    def test_batch_checked_once(self, kind, fields, calls):
        # the apply entry checks F itself; a dyadic piece needs n for its band first
        F = np.ones((2, 65), dtype=complex)
        with mock.patch.object(operators, "_checked_batch",
                               side_effect=operators._checked_batch) as spy:
            OperatorSpec(kind, **fields).apply_batch(F, -4.0, 4.0)
        assert spy.call_count == calls

    def test_json_nests_kernel_and_phase(self):
        # the digests of every campaign hash this shape
        op = OperatorSpec("dyadic_piece", KP, self.P, PV1, j=3)
        assert op.to_json() == {"kind": "dyadic_piece", "pv": {"eps_cells": 1},
                                "kernel": KP.to_json(), "phase": self.P.to_json(), "j": 3}
        assert KP.to_json()["tag"] == "oscillating-log"
        assert self.P.to_json() == {"coeffs": [[1, 1, 2.0]]}


# ---------------------------------------------------------------------------
# dyadic decomposition
# ---------------------------------------------------------------------------

class TestDyadic:
    def test_band_doubling(self):
        d = 8.0 / 1024
        k0 = dyadic_band_cells(d, 0, 1)[1]
        for j in range(1, 6):
            lo, hi = dyadic_band_cells(d, j, 1)
            assert hi == 2 * lo
            assert lo == k0 * 2 ** (j - 1)

    def test_summation_identity(self):
        rng = np.random.default_rng(11)
        n = 1025
        f = SampledFunction(-8.0, 8.0, n,
                            (rng.normal(size=n) * (np.abs(grid_nodes(-8, 8, n)) < 2)) + 0j)
        P = PolynomialPhase.monomial(1, 1, 1.0)
        k0 = dyadic_band_cells(f.spacing, 0, 1)[1]
        for J in (1, 3, 5):
            total = sum(apply_one(OperatorSpec("dyadic_piece", KP, P, PV1, j), f)
                        for j in range(J + 1))
            ranged = oscillatory_apply_batch(f.values[None, :], f.x_lo, f.x_hi,
                                             KP, P, PV1, (1, k0 * 2 ** J))[0]
            assert np.max(np.abs(total - ranged)) <= 1e-12

    def test_pieces_no_singularity(self):
        f = gaussian(-8.0, 8.0, 1025)
        P = PolynomialPhase.monomial(1, 1, 1.0)
        a = apply_one(OperatorSpec("dyadic_piece", KP, P, PVConfig(eps_cells=1), 2), f)
        b = apply_one(OperatorSpec("dyadic_piece", KP, P, PVConfig(eps_cells=9), 2), f)
        assert np.array_equal(a, b)

    def test_pointwise_bound(self):
        rng = np.random.default_rng(12)
        n = 1025
        x = grid_nodes(-8.0, 8.0, n)
        P = PolynomialPhase.monomial(1, 1, 1.0)
        for _ in range(4):
            f = SampledFunction(-8.0, 8.0, n,
                                (rng.normal(size=n) * (np.abs(x) < 2)) + 0j)
            M = m_plus(f).values.real
            for j in (1, 2, 3):
                T = np.abs(apply_one(OperatorSpec("dyadic_piece", KP, P, PV1, j), f))
                assert np.all(T <= 2.0 * KP.size_const * M + 1e-12)

    def test_empty_range_is_zero(self):
        f = gaussian(-2.0, 2.0, 129)
        op = OperatorSpec("dyadic_piece", KP, PolynomialPhase.zero(), PV1, 8)
        assert np.all(apply_one(op, f) == 0.0)

    def test_far_piece_is_zero_without_its_band(self):
        # the band of j = 2^40 starts at k0 2^(j-1) cells, a 2^40-bit
        # integer, for a piece that is empty anyway
        op = OperatorSpec("dyadic_piece", KP, PolynomialPhase.zero(), PV1, 2 ** 40)
        with mock.patch.object(operators, "dyadic_band_cells", side_effect=AssertionError):
            assert np.all(apply_one(op, gaussian(-2.0, 2.0, 129)) == 0.0)

    def test_rejects_negative_j(self):
        with pytest.raises(DomainError):
            apply_one(OperatorSpec("dyadic_piece", KP, PolynomialPhase.zero(), PV1, -1),
                      gaussian())


# ---------------------------------------------------------------------------
# phase normalization and scaling
# ---------------------------------------------------------------------------

def oracle_partial_y(phase: PolynomialPhase, x, y) -> np.ndarray:
    """dP/dy by its own loop over the terms, as PolynomialPhase.partial_y
    was before it evaluated the derivative's terms; kept as its oracle."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    out = np.zeros(np.broadcast(x, y).shape)
    for (a, b), v in phase.terms:
        if b >= 1:
            out += v * b * x ** a * y ** (b - 1)
    return out


def oracle_linear_parts(phase: PolynomialPhase, x: np.ndarray):
    """A(x), B(x) by their own loop over the terms, as
    PolynomialPhase.linear_parts was; kept as its oracle."""
    A = np.zeros_like(x)
    B = np.zeros_like(x)
    for (a, b), v in phase.terms:
        if b == 0:
            A += v * x ** a
        else:
            B += v * x ** a
    return A, B


@st.composite
def small_phases(draw, max_b=3):
    """A phase of degrees <= 3 in x and <= max_b in y, with coefficients
    of magnitude 1e-3 to 1e3, and a window inside [-8, 8]."""
    degrees = st.tuples(st.integers(0, 3), st.integers(0, max_b))
    coeffs = st.builds(lambda m, s: s * 10.0 ** m, st.floats(-3.0, 3.0), st.sampled_from([-1, 1]))
    terms = draw(st.dictionaries(degrees, coeffs, max_size=6))
    lo = draw(st.floats(-8.0, 7.0))
    hi = draw(st.floats(lo + 0.5, 8.0))
    return PolynomialPhase.from_coeffs(terms), lo, hi


class TestPhase:
    @settings(max_examples=60, deadline=None)
    @given(case=small_phases())
    def test_partial_y_matches_loop(self, case):
        P, lo, hi = case
        x, y = grid_nodes(lo, hi, 17)[:, None], grid_nodes(lo, hi, 33)
        y_mid = (y[:-1] + y[1:]) / 2.0
        for args in ((x, y_mid), (x[:, 0], y[::-1][:17]), (lo, y)):
            got, want = P.partial_y(*args), oracle_partial_y(P, *args)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(case=small_phases(max_b=1))
    def test_linear_parts_match_loop(self, case):
        P, lo, hi = case
        x = grid_nodes(lo, hi, 65)
        for got, want in zip(P.linear_parts(x), oracle_linear_parts(P, x)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_partial_y_overflow_refused(self):
        # b v overflows: the derivative is not a finite phase
        with pytest.raises(DomainError, match="finite"):
            PolynomialPhase.monomial(0, 3, 1e308).partial_y(1.0, 1.0)

    def test_degrees(self):
        P = PolynomialPhase.from_coeffs({(2, 1): 8.0, (1, 1): 2.0, (0, 3): 0.0})
        assert P.k == 2 and P.l == 1
        assert P.leading_coefficient == 8.0

    def test_serialization(self):
        P = PolynomialPhase.from_coeffs({(2, 1): 8.0, (1, 1): 2.0})
        assert PolynomialPhase.from_json(P.to_json()) == P

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, v):
        with pytest.raises(DomainError, match="finite"):
            PolynomialPhase.monomial(1, 1, v)

    def test_normalize_identity(self):
        lam, q = normalize_phase(PolynomialPhase.monomial(1, 1, 1.0))
        assert lam == 1.0 and q.coeffs == {(1, 1): 1.0}

    def test_normalize_4xy(self):
        lam, q = normalize_phase(PolynomialPhase.monomial(1, 1, 4.0))
        assert lam == 2.0 and q.coeffs[(1, 1)] == 1.0

    def test_normalize_mixed(self):
        # P = 8 x^2 y + 2 x y: lambda = 2 and Q(lambda x, lambda y) = P
        # forces q_{11} = 2 lambda^{-2} = 0.5
        lam, q = normalize_phase(PolynomialPhase.from_coeffs({(2, 1): 8.0,
                                                              (1, 1): 2.0}))
        assert lam == pytest.approx(2.0, abs=1e-12)
        assert abs(q.coeffs[(2, 1)]) == pytest.approx(1.0, abs=1e-12)
        assert q.coeffs[(1, 1)] == pytest.approx(0.5, abs=1e-12)

    def test_normalize_defining_identity(self):
        rng = np.random.default_rng(13)
        P = PolynomialPhase.from_coeffs({(2, 1): 8.0, (1, 1): 2.0, (1, 0): -0.7})
        lam, q = normalize_phase(P)
        xs, ys = rng.uniform(-3, 3, 100), rng.uniform(-3, 3, 100)
        lhs = q.evaluate(lam * xs, lam * ys)
        rhs = P.evaluate(xs, ys)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * np.max(1 + np.abs(rhs))

    def test_normalize_rejects_zero_leading(self):
        with pytest.raises(DomainError):
            normalize_phase(PolynomialPhase.zero())

    def test_scaling_identity_lambda1(self):
        f = gaussian(n=257)
        err = scaling_identity_check(f, KP, PolynomialPhase.monomial(1, 1, 1.0), PV1)
        assert err <= 1e-12

    def test_scaling_identity_4xy(self):
        f = gaussian(n=513)
        err = scaling_identity_check(f, KP, PolynomialPhase.monomial(1, 1, 4.0), PV1)
        assert err <= 1e-9

    def test_scaling_identity_cubic(self):
        f = gaussian(n=513)
        err = scaling_identity_check(f, KP,
                                     PolynomialPhase.from_coeffs({(2, 1): 8.0}), PV1)
        assert err <= 1e-6


class TestPVConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            PVConfig(eps_cells=0)
