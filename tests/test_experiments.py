import csv
import json
import math
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from onesided import experiments
from onesided.errors import ConfigError, DomainError
from onesided.experiments import (CSV_COLUMNS, OperatorSpec,
                                  TestFunctionFamily, campaign_row,
                                  coefficient_sweep, config_digest, decay_rows,
                                  dyadic_decay, family_member, generate_family,
                                  norm_ratio, weighted_norms_batch, write_csv)
from onesided.grid import grid_nodes
from onesided.operators import (PolynomialPhase, PVConfig, dyadic_band_cells,
                                oscillating_log_kernel, oscillatory_apply_batch,
                                truncated_power_kernel)
from onesided.weights import WeightSpec
from test_grid import same_bits
from test_operators import scan_extremal_averages

KP = oscillating_log_kernel("plus")
FAM = TestFunctionFamily("random-bump-sums", 12, 20240901, (-2.0, 2.0))
GRID = ((-8.0, 8.0), 1025)


class TestFamilies:
    def test_empty(self):
        fam = TestFunctionFamily("haar-like-steps", 0, 1, (-1.0, 1.0))
        assert generate_family(fam, -2.0, 2.0, 65).shape == (0, 65)

    def test_deterministic(self):
        a = generate_family(FAM, *GRID[0], GRID[1])
        b = generate_family(FAM, *GRID[0], GRID[1])
        assert np.array_equal(a, b)

    def test_prefix_stable(self):
        big = TestFunctionFamily(FAM.kind, 24, FAM.seed, FAM.support)
        a = generate_family(FAM, *GRID[0], GRID[1])
        b = generate_family(big, *GRID[0], GRID[1])
        assert np.array_equal(a, b[:12])

    def test_supported_inside(self):
        from onesided.grid import grid_nodes
        x = grid_nodes(*GRID[0], GRID[1])
        outside = (x < -2.0) | (x > 2.0)
        for kind in ("random-bump-sums", "modulated-gaussians", "haar-like-steps"):
            fam = TestFunctionFamily(kind, 8, 7, (-2.0, 2.0))
            F = generate_family(fam, *GRID[0], GRID[1])
            assert np.all(F[:, outside] == 0.0)

    def test_gaussian_modulation_bandlimit(self):
        # spectral content capped at pi/(4 spacing): adjacent-sample
        # phase increments stay below pi/4 plus envelope effects
        fam = TestFunctionFamily("modulated-gaussians", 8, 3, (-2.0, 2.0))
        F = generate_family(fam, *GRID[0], GRID[1])
        assert np.all(np.isfinite(F))

    def test_support_escape_rejected(self):
        fam = TestFunctionFamily("random-bump-sums", 4, 1, (-9.0, 2.0))
        with pytest.raises(ConfigError):
            generate_family(fam, -8.0, 8.0, 257)
        with pytest.raises(ConfigError):
            family_member(fam, 0, -8.0, 8.0, 257)

    @pytest.mark.parametrize("kind", ["random-bump-sums", "modulated-gaussians",
                                      "haar-like-steps"])
    def test_member_alone_bit_identical(self, kind):
        fam = TestFunctionFamily(kind, 6, 11, (-2.0, 1.5))
        F = generate_family(fam, -3.0, 3.0, 513)
        for i in range(fam.count):
            one = family_member(fam, i, -3.0, 3.0, 513)
            assert one.dtype == F.dtype and one.tobytes() == F[i].tobytes()

    def test_kind_validation(self):
        with pytest.raises(ConfigError):
            TestFunctionFamily("bumps", 4, 1, (-1.0, 1.0))

    def test_serialization(self):
        assert TestFunctionFamily.from_json(json.loads(json.dumps(asdict(FAM)))) == FAM


class TestNormRatio:
    def test_identity(self):
        rep = norm_ratio(OperatorSpec("identity"), None, 2.0, FAM, *GRID)
        assert rep.best_ratio == pytest.approx(1.0, abs=1e-12)

    def test_maximal_bracket(self):
        # unweighted M+ is L^2 bounded; M+ f >= |f| inside gives >= 1
        rep = norm_ratio(OperatorSpec("m_plus"), None, 2.0, FAM, *GRID)
        assert 1.0 <= rep.best_ratio <= 10.0

    def test_monotone_in_count(self):
        small = norm_ratio(OperatorSpec("m_plus"), None, 2.0, FAM, *GRID)
        big_fam = TestFunctionFamily(FAM.kind, 24, FAM.seed, FAM.support)
        big = norm_ratio(OperatorSpec("m_plus"), None, 2.0, big_fam, *GRID)
        assert big.best_ratio >= small.best_ratio - 1e-15

    def test_deterministic_reports(self):
        a = norm_ratio(OperatorSpec("m_minus"), WeightSpec.exponential(1.0),
                       2.0, FAM, *GRID)
        b = norm_ratio(OperatorSpec("m_minus"), WeightSpec.exponential(1.0),
                       2.0, FAM, *GRID)
        assert a.best_ratio == b.best_ratio and a.argmax_index == b.argmax_index
        assert a.config_digest == b.config_digest

    def test_digest_distinguishes_configs(self):
        a = norm_ratio(OperatorSpec("identity"), None, 2.0, FAM, *GRID)
        b = norm_ratio(OperatorSpec("identity"), None, 3.0, FAM, *GRID)
        assert a.config_digest != b.config_digest

    def test_all_zero_family_rejected(self):
        # support too narrow to contain any node at this resolution
        fam = TestFunctionFamily("haar-like-steps", 4, 1, (0.011, 0.013))
        with pytest.raises(ConfigError):
            norm_ratio(OperatorSpec("identity"), None, 2.0, fam, (-8.0, 8.0), 65)

    def test_weighted_growth_signature(self):
        # f near the right edge with w = e^{-x}: forward maximal mass
        # lands where the weight is huge relative to the support
        fam = TestFunctionFamily("random-bump-sums", 16, 5, (6.0, 7.0))
        r8 = norm_ratio(OperatorSpec("m_plus"), WeightSpec.exponential(-1.0),
                        2.0, fam, (-8.0, 8.0), 1025)
        r16 = norm_ratio(OperatorSpec("m_plus"), WeightSpec.exponential(-1.0),
                         2.0, fam, (-16.0, 16.0), 2049)
        assert r16.best_ratio >= 2.0 * r8.best_ratio


class TestDyadicRatioCeiling:
    def test_zero_phase_pieces_below_maximal_ceiling(self):
        # |T_j f| <= 2 size_const M^+ f pointwise, so every piece ratio
        # sits below 2 size_const times the maximal-function ratio
        fam = TestFunctionFamily("random-bump-sums", 8, 9, (0.0, 1.0))
        window, n = (-20.0, 2.0), 2049
        mrep = norm_ratio(OperatorSpec("m_plus"), None, 2.0, fam, window, n)
        for j in (1, 2, 3, 4):
            op = OperatorSpec("dyadic_piece", KP, PolynomialPhase.zero(),
                              PVConfig(), j=j)
            rep = norm_ratio(op, None, 2.0, fam, window, n)
            assert rep.best_ratio <= 2.0 * KP.size_const * mrep.best_ratio + 1e-12


class TestApplyBatch:
    """The batch dispatch against oracles that do not go through it."""

    F = generate_family(FAM, -4.0, 4.0, 257)

    def test_m_minus_rows_match_reversed_scan(self):
        got = OperatorSpec("m_minus").apply_batch(self.F, -4.0, 4.0)
        want = scan_extremal_averages(self.F[:, ::-1], 8.0 / 256)[:, ::-1]
        assert np.array_equal(got, want)

    def test_dyadic_pieces_sum_to_union_band(self):
        # pieces 0..3 cover (1, 256] cells, the whole 8-unit window; from
        # j = 4 on a piece starts at the last node and is exactly 0
        P = PolynomialPhase.monomial(1, 1, 3.0)
        pieces = [OperatorSpec("dyadic_piece", KP, P, PVConfig(), j=j)
                  .apply_batch(self.F, -4.0, 4.0) for j in range(10)]
        k0 = dyadic_band_cells(8.0 / 256, 0, 1)[1]
        union = oscillatory_apply_batch(self.F, -4.0, 4.0, KP, P, PVConfig(),
                                        (1, k0 * 2 ** 3))
        assert np.max(np.abs(sum(pieces) - union)) <= 1e-12 * np.max(np.abs(union))
        assert all(p.shape == self.F.shape and not np.any(p) for p in pieces[4:])

    def test_negative_piece_rejected(self):
        op = OperatorSpec("dyadic_piece", KP, PolynomialPhase.zero(), PVConfig(), j=-1)
        with pytest.raises(DomainError):
            op.apply_batch(self.F, -4.0, 4.0)


class TestWindowStability:
    def test_singular_operator_stable_on_member_weight(self):
        # (T~+, e^x) is a member pair: doubling the window moves the
        # ratio by far less than the 25% stability envelope
        fam = TestFunctionFamily("random-bump-sums", 16, 11, (-2.0, 2.0))
        op = OperatorSpec("singular", KP)
        w = WeightSpec.exponential(1.0)
        r8 = norm_ratio(op, w, 2.0, fam, (-8.0, 8.0), 1025)
        r16 = norm_ratio(op, w, 2.0, fam, (-16.0, 16.0), 2049)
        assert abs(r16.best_ratio - r8.best_ratio) <= 0.25 * r8.best_ratio


class TestSweep:
    def test_singleton_equals_direct(self):
        op = OperatorSpec("oscillatory", KP, PolynomialPhase.monomial(1, 1, 1.0),
                          PVConfig())
        direct = norm_ratio(op, None, 2.0, FAM, *GRID)
        via = coefficient_sweep(KP, (1, 1), [1.0], None, 2.0, FAM, *GRID)[0]
        assert via.best_ratio == direct.best_ratio

    def test_constant_phase_invariance(self):
        # k = l = 0: the phase is a unimodular constant, so every
        # coefficient gives the same ratio
        reps = coefficient_sweep(KP, (0, 0), [0.1, 1.0, 10.0], None, 2.0,
                                 FAM, *GRID)
        ratios = [r.best_ratio for r in reps]
        assert max(ratios) - min(ratios) <= 1e-12

    def test_zero_coefficient_rejected(self):
        # before any member is generated, wherever the zero sits
        with mock.patch.object(experiments, "generate_family", side_effect=AssertionError):
            for coeffs in ([0.0], [1.0, 0.0]):
                with pytest.raises(ConfigError):
                    coefficient_sweep(KP, (1, 1), coeffs, None, 2.0, FAM, *GRID)

    def test_family_shared_across_coefficients(self):
        # one family, weight and norm per sweep; each report is norm_ratio's
        w = WeightSpec.exponential(1.0)
        with mock.patch.object(experiments, "generate_family", wraps=generate_family) as gen:
            reps = coefficient_sweep(KP, (1, 1), [1e-3, 1.0, 1e3], w, 2.0, FAM, *GRID)
        assert gen.call_count == 1
        for a, rep in zip([1e-3, 1.0, 1e3], reps):
            op = OperatorSpec("oscillatory", KP, PolynomialPhase.monomial(1, 1, a), PVConfig())
            assert rep == norm_ratio(op, w, 2.0, FAM, *GRID)


class TestDecay:
    def test_window_guard(self):
        fam = TestFunctionFamily("random-bump-sums", 4, 1, (0.0, 1.0))
        with pytest.raises(ConfigError):
            dyadic_decay(KP, PolynomialPhase.monomial(1, 1, 1.0), 2.0, None,
                         fam, 8, (-8.0, 8.0), 1025)

    def test_j_max_guard(self):
        fam = TestFunctionFamily("random-bump-sums", 4, 1, (0.0, 1.0))
        with pytest.raises(ConfigError):
            dyadic_decay(KP, PolynomialPhase.monomial(1, 1, 1.0), 2.0, None,
                         fam, 2, (-40.0, 2.0), 1025)

    def test_vanishing_piece_refused(self):
        # the kernel lives on |t| <= 3.5 and piece 3 covers |t| in (4, 8], so
        # its ratio is exactly 0 and has no log2: no slope may be fitted
        fam = TestFunctionFamily("random-bump-sums", 4, 1, (0.0, 1.0))
        with pytest.raises(DomainError, match=r"pieces \[3\]"):
            dyadic_decay(truncated_power_kernel("plus"), PolynomialPhase.monomial(1, 1, 1.0),
                         2.0, None, fam, 3, (-10.0, 2.0), 257)

    def test_family_shared_across_pieces(self):
        fam = TestFunctionFamily("random-bump-sums", 6, 3, (0.0, 1.0))
        P, w = PolynomialPhase.monomial(1, 1, 1.0), WeightSpec.exponential(1.0)
        with mock.patch.object(experiments, "generate_family", wraps=generate_family) as gen:
            fit = dyadic_decay(KP, P, 2.0, w, fam, 3, (-10.0, 2.0), 2049)
        assert gen.call_count == 1
        for j, lg in zip(fit.j_values, fit.log2_ratios):
            rep = norm_ratio(OperatorSpec("dyadic_piece", KP, P, PVConfig(), j=j), w, 2.0,
                             fam, (-10.0, 2.0), 2049)
            assert lg == math.log2(rep.best_ratio)

    def test_rows_carry_the_reports_bits(self, tmp_path):
        # the CSV row of each piece reads back as its report's best_ratio,
        # bit for bit, and names the member that attains it
        fam = TestFunctionFamily("random-bump-sums", 6, 3, (0.0, 1.0))
        P, w = PolynomialPhase.monomial(1, 1, 1.0), WeightSpec.exponential(1.0)
        window, n = (-10.0, 2.0), 2049
        fit = dyadic_decay(KP, P, 2.0, w, fam, 3, window, n)
        path = tmp_path / "decay.csv"
        write_csv(path, CSV_COLUMNS, decay_rows(fit, w.label(), 2.0, window, n, fam.seed))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["param"]) for r in rows] == list(fit.j_values)
        for row, j in zip(rows, fit.j_values):
            rep = norm_ratio(OperatorSpec("dyadic_piece", KP, P, PVConfig(), j=j), w, 2.0,
                             fam, window, n)
            assert float(row["best_ratio"]).hex() == rep.best_ratio.hex()
            assert int(row["argmax_index"]) == rep.argmax_index
            assert 0.0 < rep.ratios[rep.argmax_index] == rep.best_ratio

    def test_fit_fields(self):
        fam = TestFunctionFamily("random-bump-sums", 6, 3, (0.0, 1.0))
        fit = dyadic_decay(KP, PolynomialPhase.monomial(1, 1, 1.0), 2.0, None,
                           fam, 3, (-10.0, 2.0), 2049)
        assert fit.j_values == (1, 2, 3)
        assert len(fit.log2_ratios) == 3
        slope, intercept = np.polyfit([1, 2, 3], fit.log2_ratios, 1)
        assert fit.slope == pytest.approx(float(slope), abs=1e-12)
        assert fit.intercept == pytest.approx(float(intercept), abs=1e-12)


class TestCSV:
    def test_deterministic_bytes(self, tmp_path):
        rep = norm_ratio(OperatorSpec("identity"), None, 2.0, FAM, *GRID)
        row = campaign_row("test", None, 2.0, 0.0, rep, GRID[0], GRID[1])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, CSV_COLUMNS, [row])
        write_csv(p2, CSV_COLUMNS, [row])
        assert p1.read_bytes() == p2.read_bytes()

    def test_columns(self, tmp_path):
        rep = norm_ratio(OperatorSpec("identity"), None, 2.0, FAM, *GRID)
        row = campaign_row("test", None, 2.0, 0.0, rep, GRID[0], GRID[1])
        path = tmp_path / "c.csv"
        write_csv(path, CSV_COLUMNS, [row])
        header = path.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_digest_stable(self):
        assert config_digest({"a": 1, "b": [2, 3]}) == config_digest({"b": [2, 3], "a": 1})


# ---------------------------------------------------------------------------
# real families stay real: against the complex forms they replaced
# ---------------------------------------------------------------------------

def old_members(family, indices, x_lo, x_hi, n):
    """The member loop as it wrote every kind into complex128, kept as the oracle."""
    lo, hi = family.support
    x = grid_nodes(x_lo, x_hi, n)
    d = (x_hi - x_lo) / (n - 1)
    inside = np.flatnonzero((x >= lo) & (x <= hi))
    x = x[inside]
    out = np.zeros((len(indices), n), dtype=np.complex128)
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


def old_weighted_norms_batch(G, wv, d, p):
    """weighted_norms_batch as out-of-place expressions, before rows were
    taken again scaled, kept as the oracle."""
    integ = np.abs(G) ** p
    if wv is not None:
        integ = integ * wv
    return (d * np.sum((integ[:, :-1] + integ[:, 1:]) / 2.0, axis=1)) ** (1.0 / p)


REAL_KINDS = ("random-bump-sums", "haar-like-steps")
# (seed, support, window, n): a narrow and a wide support, odd and power-of-two grids
FAMILY_GRIDS = [(20240901, (-2.0, 2.0), (-8.0, 8.0), 1025), (7, (0.0, 1.0), (-10.0, 2.0), 257),
                (3, (-3.9, 3.9), (-4.0, 4.0), 4096)]


class TestRealFamilies:
    @pytest.mark.parametrize("kind", REAL_KINDS + ("modulated-gaussians",))
    @pytest.mark.parametrize("seed, support, window, n", FAMILY_GRIDS)
    def test_rows_are_the_complex_rows(self, kind, seed, support, window, n):
        fam = TestFunctionFamily(kind, 9, seed, support)
        old = old_members(fam, range(fam.count), *window, n)
        F = generate_family(fam, *window, n)
        if kind == "modulated-gaussians":
            assert same_bits(F, old)
        else:
            # each real row is the complex row's real part, whose imaginary part is +0.0
            assert same_bits(F, old.real) and same_bits(old.imag, np.zeros(old.shape))

    @pytest.mark.parametrize("kind", REAL_KINDS)
    @pytest.mark.parametrize("name", ["m_plus", "m_minus"])
    def test_maximal_of_real_batch_equals_complex_batch(self, kind, name):
        for seed, support, window, n in FAMILY_GRIDS:
            F = generate_family(TestFunctionFamily(kind, 9, seed, support), *window, n)
            got = OperatorSpec(name).apply_batch(F, *window)
            assert got.dtype == np.float64
            assert same_bits(got, OperatorSpec(name).apply_batch(F.astype(np.complex128), *window))

    @pytest.mark.parametrize("kind", REAL_KINDS)
    @pytest.mark.parametrize("name", ["m_plus", "m_minus"])
    @pytest.mark.parametrize("w", [None, WeightSpec.exponential(1.0),
                                   WeightSpec.exponential(-1.0)], ids=["1", "ex", "e-x"])
    def test_maximal_reports_match_complex_family(self, kind, name, w):
        fam = TestFunctionFamily(kind, 16, 5, (-2.0, 2.0))
        real = norm_ratio(OperatorSpec(name), w, 2.0, fam, *GRID)
        with mock.patch.object(experiments, "generate_family",
                               lambda *a: generate_family(*a).astype(np.complex128)):
            cplx = norm_ratio(OperatorSpec(name), w, 2.0, fam, *GRID)
        assert real.best_ratio == cplx.best_ratio and real.argmax_index == cplx.argmax_index
        assert same_bits(np.array(real.ratios), np.array(cplx.ratios))

    @pytest.mark.parametrize("phase", [PolynomialPhase.zero(), PolynomialPhase.monomial(1, 1, 3.0),
                                       PolynomialPhase.monomial(2, 1, 1.0),
                                       PolynomialPhase.monomial(1, 2, 1.0)],
                             ids=["singular", "xy", "x2y", "xy2"])
    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_oscillatory_of_real_batch_is_complex(self, phase, side):
        # every apply path takes a real F as the exact complex cast of it
        F = generate_family(TestFunctionFamily("random-bump-sums", 6, 2, (-2.0, 2.0)),
                            -4.0, 4.0, 257)
        for j in (None, 2, 40):         # the whole band, a dyadic piece, an empty piece
            op = (OperatorSpec("oscillatory", oscillating_log_kernel(side), phase) if j is None
                  else OperatorSpec("dyadic_piece", oscillating_log_kernel(side), phase, j=j))
            got = op.apply_batch(F, -4.0, 4.0)
            assert got.dtype == np.complex128
            assert same_bits(got, op.apply_batch(F.astype(np.complex128), -4.0, 4.0))


class TestWeightedNorms:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 300), st.floats(1.0, 10.0, exclude_min=True),
           st.booleans(), st.booleans(), st.booleans(), st.integers(-300, 300),
           st.floats(1e-3, 10.0), st.integers(0, 2 ** 32 - 1))
    def test_against_old_expression(self, rows, n, p, weighted, complex_rows, zero_row,
                                    exp10, d, seed):
        rng = np.random.default_rng(seed)
        G = rng.uniform(-1.0, 1.0, (rows, n)) * 10.0 ** exp10
        if complex_rows:
            G = G + 1j * rng.uniform(-1.0, 1.0, (rows, n)) * 10.0 ** exp10
        if zero_row:
            G[0] = 0.0
        wv = rng.uniform(0.1, 10.0, n) if weighted else None
        with np.errstate(over="ignore"):
            old = old_weighted_norms_batch(G, wv, d, p)
        got = weighted_norms_batch(G, wv, d, p)
        # a finite nonzero norm keeps its bits; any other row is max|g| times
        # the norm of |g| / max|g| (a row of zeros: 0)
        keep = np.isfinite(old) & (old > 0.0)
        a = np.abs(G[~keep])
        top = np.max(a, axis=1)
        want = old.copy()
        want[~keep] = old_weighted_norms_batch(a / np.where(top > 0.0, top, 1.0)[:, None],
                                               wv, d, p) * top
        assert same_bits(got, want)

    @pytest.mark.parametrize("g", [2.0, 2j, -2.0])
    def test_constant_two_at_p_2000(self, g):
        # |g| = 2 on [0, 1]: 2^2000 overflows, the norm is 2
        n = 101
        got = weighted_norms_batch(np.full((1, n), g), None, 1.0 / (n - 1), 2000.0)
        assert got[0] == pytest.approx(2.0, rel=0.0, abs=1e-12)

    def test_rows_of_zeros_inf_or_nan_keep_their_norm(self):
        G = np.zeros((3, 5))
        G[1, 2], G[2, 3] = math.inf, math.nan
        got = weighted_norms_batch(G, None, 0.25, 3.0)
        assert got[0] == 0.0 and got[1] == math.inf and math.isnan(got[2])

    @pytest.mark.parametrize("p", [1e300, 2.0 ** 40, 2000.0])
    def test_member_at_huge_p_is_finite(self, p):
        # |f|^p underflows below 1 and overflows above it; the norm tends to max|f|
        (lo, hi), n = GRID
        f = 3.0 * family_member(FAM, 2, lo, hi, n)
        got = weighted_norms_batch(f[None], None, (hi - lo) / (n - 1), p)[0]
        assert math.isfinite(got) and 0.0 < got <= np.max(np.abs(f))
        if p == 1e300:
            assert got == np.max(np.abs(f))
