"""Tests for polyhedral selective inference on linear targets."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr

from selectcond.distributions import TruncatedGaussian, truncated_cdf, truncated_sf
from selectcond.polyhedral import (
    _has_unit_columns,
    LinearTarget,
    NoSelectionError,
    Polyhedron,
    classical_ci_linear,
    marginal_screening_event,
    normalize_columns,
    projection_target,
    selective_ci_linear,
    selective_pvalue_linear,
    truncation_bounds,
    truncation_intervals,
)

INF = math.inf


class TestProjectionTarget:
    def test_orthonormal_singleton(self):
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.standard_normal((10, 4)))
        tgt = projection_target(Q, [2], 0)
        assert np.allclose(tgt.eta, Q[:, 2], atol=1e-10)

    def test_square_invertible_gives_inverse_rows(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((4, 4))
        Xinv = np.linalg.inv(X)
        for j in range(4):
            tgt = projection_target(X, [0, 1, 2, 3], j)
            assert np.allclose(tgt.eta, Xinv[j], atol=1e-10)

    def test_linear_algebra_identity(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((20, 7))
        s = [1, 4, 6]
        rows = np.array([projection_target(X, s, j).eta for j in range(3)])
        assert np.allclose(rows @ X[:, s], np.eye(3), atol=1e-10)

    def test_rank_deficient_errors(self):
        X = np.ones((5, 2))
        with pytest.raises(ValueError):
            projection_target(X, [0, 1], 0)


class TestTruncationBounds:
    def test_half_space(self):
        t = 1.5
        poly = Polyhedron([[-1.0, 0.0, 0.0]], [-t])
        tgt = LinearTarget([1.0, 0.0, 0.0])
        lo, hi = truncation_bounds(poly, tgt, np.array([2.0, 0.3, -0.5]))
        assert lo == pytest.approx(t, abs=1e-12)
        assert hi == INF

    def test_pairwise_max_event(self):
        # event {y1 >= y2}, eta = e1, y = (1, 0): brute-force line search
        poly = Polyhedron([[-1.0, 1.0]], [0.0])
        tgt = LinearTarget([1.0, 0.0])
        y = np.array([1.0, 0.0])
        lo, hi = truncation_bounds(poly, tgt, y)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == INF
        c = tgt.eta / tgt.norm_sq
        z = y - c * tgt.statistic(y)
        for tau in np.linspace(-3, 5, 81):
            inside = poly.contains(z + c * tau)
            assert inside == (lo - 1e-9 <= tau <= hi + 1e-9)

    def test_random_polyhedron_grid_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            A = rng.standard_normal((5, 3))
            y = rng.standard_normal(3)
            b = A @ y + rng.uniform(0.05, 1.5, 5)
            poly = Polyhedron(A, b)
            eta = rng.standard_normal(3)
            tgt = LinearTarget(eta)
            lo, hi = truncation_bounds(poly, tgt, y)
            t_obs = tgt.statistic(y)
            assert lo - 1e-9 <= t_obs <= hi + 1e-9
            c = tgt.eta / tgt.norm_sq
            z = y - c * t_obs
            for tau in np.linspace(t_obs - 6, t_obs + 6, 101):
                inside = poly.contains(z + c * tau, slack=1e-12)
                in_interval = lo - 1e-7 <= tau <= hi + 1e-7
                if abs(tau - lo) > 1e-6 and abs(tau - hi) > 1e-6:
                    assert inside == in_interval

    def test_infeasible_y_errors(self):
        poly = Polyhedron([[1.0, 0.0]], [0.0])
        with pytest.raises(ValueError):
            truncation_bounds(poly, LinearTarget([1.0, 0.0]), np.array([1.0, 0.0]))

    def test_zero_direction_infeasible_row(self):
        # eta orthogonal to a violated constraint direction: along the line
        # the event is empty for the other polyhedron of a union
        poly_ok = Polyhedron([[-1.0, 0.0]], [0.0])
        poly_off = Polyhedron([[0.0, 1.0]], [-5.0])
        tgt = LinearTarget([1.0, 0.0])
        y = np.array([1.0, 0.0])
        ivs = truncation_intervals([poly_ok, poly_off], tgt, y)
        assert ivs == ((0.0, INF),)

    def test_line_touching_event_in_one_point_errors(self):
        # y = 0 is feasible, but the event meets the target line only at 0
        poly = Polyhedron([[1.0], [-1.0]], [0.0, 0.0])
        tgt = LinearTarget([1.0])
        y = np.array([0.0])
        for call in (lambda: truncation_bounds(poly, tgt, y),
                     lambda: truncation_intervals(poly, tgt, y),
                     lambda: selective_pvalue_linear(poly, tgt, y, 1.0),
                     lambda: selective_ci_linear(poly, tgt, y, 1.0, 0.9)):
            with pytest.raises(ValueError, match="event empty along target"):
                call()


class TestSelectivePValue:
    def test_boundary_observation(self):
        poly = Polyhedron([[-1.0, 0.0]], [-1.5])
        tgt = LinearTarget([1.0, 0.0])
        y = np.array([1.5 + 1e-12, 0.0])
        p = selective_pvalue_linear(poly, tgt, y, 1.0, 0.0, "greater")
        assert p == pytest.approx(1.0, abs=1e-6)

    def test_no_constraints_is_classical(self):
        poly = Polyhedron(np.zeros((0, 3)), np.zeros(0))
        eta = np.array([0.5, -1.0, 2.0])
        tgt = LinearTarget(eta)
        y = np.array([0.3, 0.2, 0.8])
        t = tgt.statistic(y)
        sd = math.sqrt(tgt.norm_sq)
        expected = float(ndtr(-(t - 0.0) / sd))
        p = selective_pvalue_linear(poly, tgt, y, 1.0, 0.0, "greater")
        assert p == pytest.approx(expected, abs=1e-12)

    def test_half_space_vs_rejection_oracle(self):
        # event {y1 > 1.0}, eta = e1: the target statistic is y1 itself and
        # the orthogonal part is independent, so plain rejection sampling
        # reproduces the conditional law
        rng = np.random.default_rng(23)
        mu1 = 0.4
        draws = rng.normal(mu1, 1.0, 4_000_000)
        draws = draws[draws > 1.0]
        t_obs = 1.9
        emp = float(np.mean(draws >= t_obs))
        se = math.sqrt(emp * (1 - emp) / draws.size)
        poly = Polyhedron([[-1.0, 0.0]], [-1.0])
        tgt = LinearTarget([1.0, 0.0])
        p = selective_pvalue_linear(poly, tgt, np.array([t_obs, 0.5]), 1.0,
                                    psi0=mu1, alternative="greater")
        assert abs(p - emp) <= 3.0 * se

    def test_affine_invariance_in_eta_scale(self):
        poly = Polyhedron([[-1.0, 0.2], [0.3, -1.0]], [-0.5, 0.7])
        y = np.array([1.4, 0.9])
        assert poly.contains(y)
        for scale in (2.0, 7.5):
            p1 = selective_pvalue_linear(poly, LinearTarget([1.0, 0.4]), y, 1.0,
                                         psi0=0.3, alternative="greater")
            p2 = selective_pvalue_linear(poly, LinearTarget([scale, 0.4 * scale]), y,
                                         1.0, psi0=0.3 * scale, alternative="greater")
            assert p1 == pytest.approx(p2, abs=1e-10)

    def test_union_two_sided_event(self):
        # |y1| > t with eta = e1 gives a symmetric two-interval truncation
        t = 1.0
        plus = Polyhedron([[-1.0, 0.0]], [-t])
        minus = Polyhedron([[1.0, 0.0]], [-t])
        tgt = LinearTarget([1.0, 0.0])
        y = np.array([1.7, 0.0])
        ivs = truncation_intervals([plus, minus], tgt, y)
        assert ivs == ((-INF, -t), (t, INF))
        p = selective_pvalue_linear([plus, minus], tgt, y, 1.0, 0.0, "greater")
        tg = TruncatedGaussian(0.0, 1.0, [(-INF, -t), (t, INF)])
        assert p == pytest.approx(truncated_sf(1.7, tg), abs=1e-12)

    def test_union_cdf_is_mass_weighted_mixture(self):
        ivs = [(-3.0, -1.0), (0.5, 2.0)]
        tg = TruncatedGaussian(0.4, 1.0, ivs)
        m1 = float(ndtr(-1.0 - 0.4) - ndtr(-3.0 - 0.4))
        m2 = float(ndtr(2.0 - 0.4) - ndtr(0.5 - 0.4))
        x = 1.0
        part = m1 + float(ndtr(x - 0.4) - ndtr(0.5 - 0.4))
        assert truncated_cdf(x, tg) == pytest.approx(part / (m1 + m2), abs=1e-12)


class TestSelectiveCi:
    def test_no_truncation_recovers_classical(self):
        poly = Polyhedron(np.zeros((0, 2)), np.zeros(0))
        tgt = LinearTarget([0.7, -0.2])
        y = np.array([1.0, 0.5])
        lo, hi = selective_ci_linear(poly, tgt, y, 1.3, 0.9)
        clo, chi = classical_ci_linear(tgt, y, 1.3, 0.9)
        assert lo == pytest.approx(clo, abs=1e-6)
        assert hi == pytest.approx(chi, abs=1e-6)

    def test_half_space_grid_oracle(self):
        t_trunc = 1.0
        poly = Polyhedron([[-1.0, 0.0]], [-t_trunc])
        tgt = LinearTarget([1.0, 0.0])
        t_obs = 1.12
        y = np.array([t_obs, -0.4])

        def cdf(psi):
            return 1.0 - ndtr(-(t_obs - psi)) / ndtr(-(t_trunc - psi))

        grid = np.arange(-25.0, 10.0, 1e-4)
        vals = cdf(grid)
        lo_oracle = float(grid[np.argmin(np.abs(vals - 0.95))])
        hi_oracle = float(grid[np.argmin(np.abs(vals - 0.05))])
        lo, hi = selective_ci_linear(poly, tgt, y, 1.0, 0.9)
        assert lo == pytest.approx(lo_oracle, abs=1e-3)
        assert hi == pytest.approx(hi_oracle, abs=1e-3)


    @settings(deadline=None, max_examples=60)
    @given(st.floats(-3.0, 3.0), st.floats(0.0, 1.0), st.floats(0.1, 6.0),
           st.floats(0.2, 3.0),
           st.lists(st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99]), min_size=2, max_size=2,
                    unique=True))
    def test_ci_nests_in_level(self, a, frac, width, sigma2, levels):
        # y_1 truncated to [a, a + width]; both endpoints may leave the box
        narrow, wide = sorted(levels)
        poly = Polyhedron([[-1.0, 0.0], [1.0, 0.0]], [-a, a + width])
        tgt = LinearTarget([1.0, 0.0])
        y = np.array([a + frac * width, 0.3])
        lo1, hi1 = selective_ci_linear(poly, tgt, y, sigma2, narrow)
        lo2, hi2 = selective_ci_linear(poly, tgt, y, sigma2, wide)
        assert lo2 <= lo1 <= hi1 <= hi2


class TestMarginalScreening:
    def test_zero_threshold_selects_all(self):
        rng = np.random.default_rng(5)
        X = normalize_columns(rng.standard_normal((12, 4)))
        y = rng.standard_normal(12)
        s, event = marginal_screening_event(X, y, 0.0)
        assert s == (0, 1, 2, 3)
        assert event.A.shape == (4, 12)
        assert event.contains(y)

    def test_single_column_two_sided_event(self):
        rng = np.random.default_rng(6)
        X = normalize_columns(rng.standard_normal((10, 1)))
        y = rng.standard_normal(10)
        t = 0.2
        corr = float(X[:, 0] @ y)
        if abs(corr) <= t:
            y = y + X[:, 0] * (2 * t)
            corr = float(X[:, 0] @ y)
        s, event = marginal_screening_event(X, y, t)
        assert s == (0,)
        tgt = LinearTarget(X[:, 0])
        lo, hi = truncation_bounds(event, tgt, y)
        if corr > 0:
            assert lo == pytest.approx(t, abs=1e-10) and hi == INF
        else:
            assert hi == pytest.approx(-t, abs=1e-10) and lo == -INF

    def test_empty_selection_signals(self):
        X = normalize_columns(np.eye(3))
        with pytest.raises(NoSelectionError):
            marginal_screening_event(X, np.zeros(3), 1.0)

    def test_requires_normalized_columns(self):
        X = 2.0 * normalize_columns(np.random.default_rng(0).standard_normal((6, 2)))
        with pytest.raises(ValueError):
            marginal_screening_event(X, np.zeros(6), 1.0)

    def test_rejects_a_column_with_nan(self):
        # a NaN norm fails every comparison, so unit length must be asked as closeness
        X = normalize_columns(np.random.default_rng(0).standard_normal((6, 2)))
        X[3, 1] = math.nan
        assert not _has_unit_columns(X)
        with pytest.raises(ValueError, match="unit length"):
            marginal_screening_event(X, np.ones(6), 1.0)

    def test_resampling_inside_event_reproduces_selection(self):
        rng = np.random.default_rng(11)
        n, p, t = 20, 5, 0.8
        X = normalize_columns(rng.standard_normal((n, p)))
        y = rng.standard_normal(n)
        try:
            s, event = marginal_screening_event(X, y, t)
        except NoSelectionError:
            y = y + X[:, 0] * 2.0
            s, event = marginal_screening_event(X, y, t)
        corr = X.T @ y
        gram_inv = np.linalg.inv(X.T @ X)
        proj = X @ gram_inv
        null_proj = np.eye(n) - proj @ X.T
        for _ in range(1000):
            u = np.empty(p)
            for j in range(p):
                if j in s:
                    u[j] = np.sign(corr[j]) * rng.uniform(t + 1e-9, t + 2.0)
                else:
                    u[j] = rng.uniform(-t, t)
            y_new = proj @ u + null_proj @ rng.standard_normal(n)
            assert event.contains(y_new)
            s_new, _ = marginal_screening_event(X, y_new, t)
            assert s_new == s


class TestScreeningCoverage:
    @pytest.mark.slow
    def test_ci_conditional_coverage(self):
        from selectcond.harness import parse_config, run
        cfg = parse_config({
            "scenario": "polyhedral-coverage",
            "params": {"n": 25, "p": 8, "threshold": 1.0,
                       "beta": [0.8, -0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                       "level": 0.9, "n_reps": 10_000},
            "seed": 2026,
            "parallelism": 2,
        })
        cov = run(cfg).summary["coverage"]
        assert abs(cov - 0.9) <= 0.015


@st.composite
def feasible_instances(draw):
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(2, 5))
    q = draw(st.integers(1, 6))
    A = rng.standard_normal((q, n))
    y = rng.standard_normal(n)
    b = A @ y + rng.uniform(0.01, 2.0, q)
    eta = rng.standard_normal(n)
    if not np.any(eta != 0):
        eta[0] = 1.0
    return Polyhedron(A, b), LinearTarget(eta), y


class TestProperties:
    @settings(deadline=None, max_examples=80)
    @given(feasible_instances())
    def test_bounds_contain_observation(self, inst):
        poly, tgt, y = inst
        lo, hi = truncation_bounds(poly, tgt, y)
        assert lo - 1e-9 <= tgt.statistic(y) <= hi + 1e-9

    @settings(deadline=None, max_examples=80)
    @given(feasible_instances(), st.floats(-40.0, 40.0), st.floats(0.05, 5.0))
    def test_pvalue_in_unit_interval(self, inst, psi0, sigma2):
        # this path builds no InferenceResult, whose own check would catch it
        poly, tgt, y = inst
        for alternative in ("greater", "less", "two-sided"):
            p = selective_pvalue_linear(poly, tgt, y, sigma2, psi0, alternative)
            assert 0.0 <= p <= 1.0
