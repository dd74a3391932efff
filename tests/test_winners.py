"""Tests for inference on winners under the two sampling models."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate
from scipy.special import log_ndtr, ndtr

from selectcond import winners
from selectcond.harness.scenarios import ks_uniform, rep_rng
from selectcond.winners import (
    WinnersData,
    WinnersModelKind,
    _full_cdf,
    _joint_pass,
    _joint_selective_mle,
    argmax_select,
    infer_winner,
    normalizer_full,
    log_normalizer_full,
    normalizer_losers,
    unadjusted_z_interval,
    winner_probabilities,
)

PHI_1_OVER_SQRT2 = 0.7602499389065233   # P(N(1,2) > 0)
PHI_3 = 0.9986501019683699


class TestArgmaxSelect:
    def test_basic(self):
        assert argmax_select([3.0, 1.0, 2.0]) == 0

    def test_tie_breaks_low(self):
        assert argmax_select([2.0, 2.0, 1.0]) == 0
        assert argmax_select([1.0, 2.0, 2.0]) == 1

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            argmax_select([1.0, float("nan")])

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=12))
    def test_returns_maximum(self, y):
        idx = argmax_select(y)
        assert y[idx] >= max(y)


class TestNormalizerFull:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_exchangeable_means(self, m):
        assert normalizer_full([0.7] * m) == pytest.approx(1.0 / m, abs=1e-8)

    def test_two_armed_closed_form(self):
        # Y1 - Y2 ~ N(1, 2); win probability Phi(1/sqrt(2))
        assert normalizer_full([1.0, 0.0]) == pytest.approx(PHI_1_OVER_SQRT2, abs=1e-9)

    def test_against_mc_oracle(self):
        theta = np.array([0.6, -0.4, 1.2, 0.1, -1.0])
        rng = np.random.default_rng(99)
        wins = 0
        n = 10_000_000
        for _ in range(10):
            y = theta + rng.standard_normal((n // 10, 5))
            wins += int(np.sum(np.argmax(y, axis=1) == 0))
        est = wins / n
        se = math.sqrt(est * (1 - est) / n)
        assert abs(normalizer_full(theta) - est) <= 3.0 * se

    def test_nuisance_means_above_theta1_against_quad(self):
        # the nuisance means pull the selected law's mode to about 4.1,
        # 15.6 sigma above theta1 and outside theta1 +- 12 sigma
        theta = np.array([-11.5, 9.0, 9.0, 8.0, 5.0])
        shift = 160.0  # keeps quad's integrand above underflow

        def f(t):
            return math.exp(shift - 0.5 * (t - theta[0]) ** 2 - 0.5 * math.log(2 * math.pi)
                            + float(np.sum(log_ndtr(t - theta[1:]))))

        pts = [-20.0, -15.0, -12.0, -10.0, -5.0, 0.0, 5.0, 10.0]
        below = integrate.quad(f, -40.0, 0.0, points=pts[:5], epsabs=0.0, epsrel=1e-13,
                               limit=500)[0]
        above = integrate.quad(f, 0.0, 40.0, points=pts[6:], epsabs=0.0, epsrel=1e-13,
                               limit=500)[0]
        total = (below + above) * math.exp(-shift)
        assert normalizer_full(theta) == pytest.approx(total, rel=1e-12)
        assert _full_cdf(0.0, theta[1:], 1.0, theta[0]) == pytest.approx(
            below / (below + above), rel=1e-10)

    def test_rejects_single(self):
        with pytest.raises(ValueError):
            normalizer_full([1.0])

    def test_probabilities_partition(self):
        rng = np.random.default_rng(3)
        for m in range(2, 7):
            theta = rng.normal(0, 1.2, m)
            probs = winner_probabilities(theta)
            assert probs.sum() == pytest.approx(1.0, abs=1e-8)
            assert np.all(probs <= 1.0)


class TestNormalizerLosers:
    def test_at_max_loser(self):
        assert normalizer_losers(2.0, [2.0, -1.0]) == pytest.approx(0.5)

    def test_three_sigma(self):
        assert normalizer_losers(3.5, [0.5, -2.0]) == pytest.approx(PHI_3, abs=1e-12)

    def test_depends_only_on_max(self):
        a = normalizer_losers(1.0, [0.7, -3.0, 0.2])
        b = normalizer_losers(1.0, [0.7, 0.69, 0.68])
        assert a == b

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            normalizer_losers(1.0, [])


class TestInferWinnerConditional:
    def test_grid_inversion_oracle(self):
        # y = (2, 0, -1): truncation (0, inf); survival-form CDF in theta
        t, c = 2.0, 0.0

        def cdf(theta):
            return 1.0 - ndtr(-(t - theta)) / ndtr(-(c - theta))

        grid = np.arange(-10.0, 10.0, 1e-4)
        vals = cdf(grid)
        lo_oracle = float(grid[np.argmin(np.abs(vals - 0.95))])
        hi_oracle = float(grid[np.argmin(np.abs(vals - 0.05))])

        res = infer_winner(WinnersData(np.array([2.0, 0.0, -1.0])),
                           WinnersModelKind.CONDITIONAL_ON_LOSERS, 0.9)
        assert res.ci[0] == pytest.approx(lo_oracle, abs=1e-4)
        assert res.ci[1] == pytest.approx(hi_oracle, abs=1e-4)

    def test_vanishing_truncation_recovers_z_interval(self):
        res = infer_winner(WinnersData(np.array([1.3, -1e6, -1e6 - 1.0])),
                           WinnersModelKind.CONDITIONAL_ON_LOSERS, 0.95)
        lo, hi = unadjusted_z_interval(1.3, 1.0, 0.95)
        assert res.ci[0] == pytest.approx(lo, abs=1e-6)
        assert res.ci[1] == pytest.approx(hi, abs=1e-6)
        assert res.estimate == pytest.approx(1.3, abs=1e-6)

    def test_boundary_observation_flags_divergence(self):
        res = infer_winner(WinnersData(np.array([1.0, 1.0 - 1e-13, 0.0])),
                           WinnersModelKind.CONDITIONAL_ON_LOSERS, 0.9)
        assert "divergent-mle" in res.diagnostics.get("flags", [])
        assert res.ci[0] == -math.inf

    def test_mle_far_below_a_close_loser(self):
        # t - c = 3e-4: the root lies near -3333, where the score slopes at
        # about 1e-7 and a hazard formed from two logs near -5.6e6 is off by
        # tens of units
        t, c = 3e-4, 0.0
        with mpmath.workdps(50):
            def score(th):
                return (t - th) - mpmath.npdf(c - th) / mpmath.ncdf(th - c)

            root = float(mpmath.findroot(score, (-3400.0, -3300.0), solver="anderson"))
        res = infer_winner(WinnersData(np.array([t, c, -1.0])),
                           WinnersModelKind.CONDITIONAL_ON_LOSERS, 0.9)
        assert res.estimate == pytest.approx(root, rel=1e-9)

    @pytest.mark.parametrize("c", [-2.0, 0.0, 1.3])
    def test_mle_far_below_a_close_loser_to_rounding(self, c):
        # a score written as (t - theta) - mills_ratio(c - theta) subtracts
        # two numbers near 3333 and was 2.2e-9, 7.7e-10 and 2.4e-9 off
        t = c + 3e-4
        with mpmath.workdps(50):
            def score(th):
                return (t - th) - mpmath.npdf(c - th) / mpmath.ncdf(th - c)

            root = float(mpmath.findroot(score, (c - 3400.0, c - 3300.0), solver="anderson"))
        res = infer_winner(WinnersData(np.array([t, c, c - 1.0])),
                           WinnersModelKind.CONDITIONAL_ON_LOSERS, 0.9)
        assert res.estimate == pytest.approx(root, rel=1e-11)

    def test_conditional_coverage(self):
        # reduced-size check; the full 1e4-replication run is acceptance 1
        theta = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        rng = np.random.default_rng(8)
        n, hit = 1500, 0
        for _ in range(n):
            while True:
                y = theta + rng.standard_normal(5)
                if argmax_select(y) == 0:
                    break
            res = infer_winner(WinnersData(y), WinnersModelKind.CONDITIONAL_ON_LOSERS, 0.9)
            hit += res.covers(theta[0])
        assert abs(hit / n - 0.9) < 0.03


    @settings(deadline=None, max_examples=60)
    @given(st.floats(-5.0, 5.0), st.floats(1e-3, 6.0), st.floats(0.3, 3.0),
           st.lists(st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99]), min_size=2, max_size=2,
                    unique=True))
    def test_ci_nests_in_level(self, t, gap, sigma, levels):
        narrow, wide = sorted(levels)
        data = WinnersData(np.array([t, t - gap, t - gap - 1.0]), sigma)
        lo1, hi1 = infer_winner(data, WinnersModelKind.CONDITIONAL_ON_LOSERS, narrow).ci
        lo2, hi2 = infer_winner(data, WinnersModelKind.CONDITIONAL_ON_LOSERS, wide).ci
        assert lo2 <= lo1 <= hi1 <= hi2


class TestInferWinnerFullVector:
    def test_mc_validates_plugin_cdf(self):
        theta1, others = 0.7, np.array([0.4, -0.3, 1.1, 0.2])
        rng = np.random.default_rng(1)
        kept = []
        while sum(len(k) for k in kept) < 200_000:
            y1 = rng.normal(theta1, 1.0, 100_000)
            yo = rng.normal(others, 1.0, (100_000, 4))
            kept.append(y1[y1 > yo.max(axis=1)])
        y1s = np.concatenate(kept)
        for t in [0.5, 1.2, 2.0, 3.0]:
            emp = float(np.mean(y1s <= t))
            se = math.sqrt(emp * (1 - emp) / y1s.size)
            assert abs(_full_cdf(t, others, 1.0, theta1) - emp) <= 3.0 * se

    def test_shrinks_below_face_value(self):
        res = infer_winner(WinnersData(np.array([2.0, 1.8, 0.5])),
                           WinnersModelKind.FULL_VECTOR, 0.9)
        assert res.estimate < 2.0

    def test_pvalues_both_models_uniform_m2(self):
        # equal means; the conditional pivot is exact, the full-vector pivot
        # is evaluated at the true nuisance values as the experiment knows them
        rng = np.random.default_rng(3)
        n = 5000
        y = rng.standard_normal((n, 2))
        t = y.max(axis=1)
        c = y.min(axis=1)
        p_cond = ndtr(-t) / ndtr(-c)
        p_full = np.array([1.0 - _full_cdf(ti, np.array([0.0]), 1.0, 0.0) for ti in t])
        assert ks_uniform(p_cond) < 0.03
        assert ks_uniform(p_full) < 0.03

    def test_median_length_ratio_band(self):
        # reduced-size check; the 2e3-replication run is acceptance 2
        theta = np.linspace(0.0, 2.0, 5)
        rng = np.random.default_rng(42)
        ratios = []
        for _ in range(400):
            y = theta + rng.standard_normal(5)
            data = WinnersData(y)
            rc = infer_winner(data, WinnersModelKind.CONDITIONAL_ON_LOSERS, 0.9)
            rf = infer_winner(data, WinnersModelKind.FULL_VECTOR, 0.9)
            if math.isfinite(rc.length) and math.isfinite(rf.length):
                ratios.append(rf.length / rc.length)
        med = float(np.median(ratios))
        assert 0.80 <= med < 1.0


class TestEquivariance:
    @settings(deadline=None, max_examples=15)
    @given(st.floats(-60.0, 60.0))
    @example(2.31)
    @pytest.mark.parametrize("kind", list(WinnersModelKind))
    def test_translation(self, kind, delta):
        y = np.array([2.0, 0.3, -0.7, 1.1])
        r0 = infer_winner(WinnersData(y), kind, 0.9)
        r1 = infer_winner(WinnersData(y + delta), kind, 0.9)
        tol = 1e-9 * max(1.0, abs(delta))
        assert r1.estimate - r0.estimate == pytest.approx(delta, abs=tol)
        assert r1.ci[0] - r0.ci[0] == pytest.approx(delta, abs=tol)
        assert r1.ci[1] - r0.ci[1] == pytest.approx(delta, abs=tol)


class TestWinnersData:
    def test_selected_index_is_argmax(self):
        d = WinnersData(np.array([0.5, 2.0, 1.0]))
        assert d.selected_index == 1
        assert d.winner == 2.0
        assert list(d.losers) == [0.5, 1.0]

    def test_rejects_non_argmax_index(self):
        with pytest.raises(ValueError):
            WinnersData(np.array([0.5, 2.0, 1.0]), selected_index=0)

    def test_rejects_bad_sigma(self):
        for sigma in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                WinnersData(np.array([0.5, 2.0]), sigma=sigma)
            with pytest.raises(ValueError):
                log_normalizer_full([1.0, 0.0], sigma)
            with pytest.raises(ValueError):
                normalizer_losers(1.0, [0.0], sigma)


class TestFullVectorUpperTail:
    """P_0(T > t | T wins) at theta_1 = 0, sigma = 1, against mpmath."""

    @staticmethod
    def mpmath_upper(t, nuisance):
        with mpmath.workdps(30):
            t = mpmath.mpf(t)

            def win(u):
                return mpmath.npdf(u) * mpmath.fprod(mpmath.ncdf(u - m) for m in nuisance)

            def shifted(x):
                # win(t + x) / npdf(t): order one, so quad's absolute error
                # control holds for a tail of 1e-47
                return mpmath.exp(-t * x - x * x / 2) * mpmath.fprod(
                    mpmath.ncdf(t + x - m) for m in nuisance)

            num = mpmath.npdf(t) * mpmath.quad(shifted, [0, 1 / t, 5 / t, 30 / t, mpmath.inf])
            return float(num / mpmath.quad(win, [-mpmath.inf, -4, 0, 4, mpmath.inf]))

    @pytest.mark.parametrize("t", [4.0, 5.5, 7.0])
    def test_deep_tail_keeps_relative_accuracy(self, t):
        # 1 - cdf was off by 1.3e-13, 4.7e-9 and 1.2e-4 relative
        nuisance = (0.0, 0.3)
        got = _full_cdf(t, np.array(nuisance), 1.0, 0.0, upper=True)
        assert got == pytest.approx(self.mpmath_upper(t, nuisance), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("t", [11.0, 13.0, 14.5])
    def test_tail_past_the_window(self, t):
        # the window ends 12 sigma above the largest mean, at 12.5; a tail
        # integrated only to there reads 0 for t = 13 and t = 14.5
        nuisance = (0.5, 0.2)
        got = _full_cdf(t, np.array(nuisance), 1.0, 0.0, upper=True)
        assert got == pytest.approx(self.mpmath_upper(t, nuisance), rel=1e-10, abs=0.0)

    def test_pvalue_past_the_window_is_positive(self):
        res = infer_winner(WinnersData(np.array([13.0, 0.5, 0.2])), "full-vector")
        assert 0.0 < res.pvalue < 1e-30


class TestFullVectorPivot:
    """The full-vector tails come from one pass over the window split at t:
    the lower tail falls in theta_1 and the two tails sum to one, across
    |theta_1 - t| <= 50 sigma. A normalizer taken by its own rule over the
    window let the lower tail rise by up to 1e-4 and the tails miss one by
    up to 3e-4."""

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**16), st.integers(1, 12), st.integers(4, 6),
           st.sampled_from([0.5, 1.0, 2.0]))
    @example(5, 12, 4, 1.0)
    def test_lower_tail_falls_and_tails_sum_to_one(self, seed, draw, m, sigma):
        # y is the draw-th of 2 sigma N(0, 1)^m from default_rng(seed); the
        # example is y = (-2.203, 0.066, 0.087, -3.977), whose lower tail at
        # theta_1 = winner - 40 read 0.9999995955 where the upper read 1.4e-66
        rng = np.random.default_rng(seed)
        for _ in range(draw):
            y = 2.0 * sigma * rng.standard_normal(m)
        data = WinnersData(y, sigma)
        _, tail, _ = winners._full_vector_pivot(data.winner, data.losers, sigma)
        thetas = data.winner + sigma * np.linspace(-50.0, 50.0, 801)
        lower = np.array([tail(th, False) for th in thetas])
        upper = np.array([tail(th, True) for th in thetas])
        assert np.all(np.diff(lower) <= 0.0)
        assert np.abs(lower + upper - 1.0).max() <= 1e-12


def _projected_gradient(th, y, sigma):
    _, g, _ = _joint_pass(th, y, sigma)
    return th - np.clip(th - g, y - 20.0 * sigma, y + 10.0 * sigma)


def _negloglik(th, y, sigma=1.0):
    # the normalizer by log_normalizer_full, which sums the nodes _joint_pass sums
    z = (y - th) / sigma
    return (log_normalizer_full(th, sigma) + float(np.sum(0.5 * z * z))
            + y.size * math.log(sigma * math.sqrt(2.0 * math.pi)))


winners_vectors = st.integers(2, 6).flatmap(lambda m: st.tuples(
    st.lists(st.floats(-3.0, 3.0), min_size=m, max_size=m),
    st.floats(0.25, 4.0), st.floats(-30.0, 30.0)))


class TestJointNewton:
    """The joint selective MLE of the full-vector model: a projected Newton
    on the value, gradient and Hessian of one quadrature pass."""

    @settings(deadline=None, max_examples=40)
    @given(winners_vectors)
    def test_pass_derivatives_match_differences_of_its_value(self, case):
        z, sigma, shift = case
        th = shift + sigma * np.array(z)
        y = th + sigma * np.linspace(-0.5, 0.5, th.size)
        value, grad, hess = _joint_pass(th, y, sigma)
        m = th.size

        def f(d):
            return _joint_pass(th + d, y, sigma)[0]

        eye = np.eye(m)
        h = 1e-5 * sigma
        fd_grad = np.array([(f(h * e) - f(-h * e)) / (2.0 * h) for e in eye])
        assert np.allclose(grad, fd_grad, rtol=1e-6, atol=1e-6 / sigma)
        h = 1e-3 * sigma
        fd_hess = np.array([[(f(h * (a + b)) - f(h * (a - b)) - f(h * (b - a)) + f(-h * (a + b)))
                             / (4.0 * h * h) for b in eye] for a in eye])
        assert np.allclose(hess, fd_hess, rtol=1e-4, atol=1e-4 / sigma**2)
        # the pass drops the constant m log sigma of the density of y
        assert value + m * math.log(sigma) == pytest.approx(_negloglik(th, y, sigma),
                                                            rel=1e-12, abs=1e-12)

    @settings(deadline=None, max_examples=60)
    @given(winners_vectors)
    def test_mle_is_stationary_on_the_box(self, case):
        z, sigma, shift = case
        y = shift + sigma * np.array(z)
        y[[0, int(np.argmax(y))]] = y[[int(np.argmax(y)), 0]]
        th = _joint_selective_mle(y, sigma)
        assert np.all((th >= y - 20.0 * sigma) & (th <= y + 10.0 * sigma))
        assert np.abs(_projected_gradient(th, y, sigma)).max() <= 1e-8

    @pytest.mark.parametrize("rep, lbfgsb_negloglik", [(118, 1.2845038692673967),
                                                       (1077, 1.382754583447138)])
    def test_reaches_the_optimum_where_lbfgsb_stopped_short(self, rep, lbfgsb_negloglik):
        # reps of scripts/configs/winners_compare.json, where an L-BFGS-B
        # search stopped at these values, with projected gradients 0.071 and
        # 0.105, 0.036 and 0.059 short of the optimum
        theta = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        data = WinnersData(theta + rep_rng(20260808, rep).standard_normal(5))
        y = np.concatenate(([data.winner], data.losers))
        th = _joint_selective_mle(y, 1.0)
        assert np.abs(_projected_gradient(th, y, 1.0)).max() <= 1e-8
        assert _negloglik(th, y) < lbfgsb_negloglik - 0.03

    def test_stops_where_the_step_rounds_away(self, monkeypatch):
        # |y| / sigma near 6e6: the likelihood's rounding stalls backtracking
        # with the decrement at 2.7e-10, and a step that no longer moves theta
        # used to be taken again and again, 1771 passes in all
        y = np.array([6584.15215423795, 6584.15174925957, 6584.151364145411,
                      6584.151818072871, 6584.151679371491, 6584.151922203143])
        sigma = 0.0011188041053654281
        calls = []
        real = winners._joint_pass
        monkeypatch.setattr(winners, "_joint_pass", lambda *a: calls.append(a) or real(*a))
        th = _joint_selective_mle(y, sigma)
        assert len(calls) <= 60
        assert np.abs(_projected_gradient(th, y, sigma)).max() * sigma <= 1e-6
