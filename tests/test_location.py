"""Tests for conditional inference in location families."""
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import log_ndtr, ndtr, ndtri

from selectcond import location
from selectcond.distributions import TruncatedGaussian, truncated_cdf
from selectcond.harness.scenarios import ks_uniform, rep_rng, run_replication
from selectcond.location import (
    Configuration,
    LocationFamily,
    _log_tail_mass,
    _log_total_mass,
    _profile_loglik,
    _tail_table,
    conditional_density_constant,
    decompose,
    get_family,
    location_pvalue,
    register_family,
    selective_location_inference,
)
from selectcond.selective import invert_monotone_cdf

GAUSS = get_family("gaussian")
LAPLACE = get_family("laplace")
LOGISTIC = get_family("logistic")


class TestRegistry:
    def test_registered_families_normalized(self):
        for fam in (GAUSS, LAPLACE, LOGISTIC):
            total, _ = quad(lambda x: math.exp(float(fam.log_g(x))),
                            -40 * fam.scale, 40 * fam.scale, limit=200)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_rejects_unnormalized(self):
        bad = LocationFamily("bad", lambda x: np.asarray(x) * 0.0, np.zeros_like, 1.0,
                             lambda rng, size: rng.standard_normal(size))
        with pytest.raises(ValueError):
            register_family(bad)

    @pytest.mark.parametrize("fam", [GAUSS, LAPLACE, LOGISTIC], ids=lambda f: f.name)
    def test_dlog_g_is_the_slope_of_log_g(self, fam):
        # the offset keeps the points off the laplace kink at 0
        x = np.linspace(-30.0, 30.0, 601) * fam.scale + 0.0123
        h = 1e-5 * fam.scale
        slope = (fam.log_g(x + h) - fam.log_g(x - h)) / (2.0 * h)
        np.testing.assert_allclose(fam.dlog_g(x), slope, rtol=1e-6, atol=1e-8)

    def test_unknown_family(self):
        with pytest.raises(KeyError):
            get_family("cauchy")


class TestDecompose:
    def test_gaussian_mle_is_mean(self):
        y = np.array([0.8, 1.3, 0.2, 1.9, 0.5])
        conf = decompose(y, GAUSS)
        assert conf.theta_hat == pytest.approx(float(y.mean()), abs=1e-10)

    def test_gaussian_residuals_sum_to_zero(self):
        # the exact score roots theta_hat at the mean to within rounding,
        # 5.5e-16 max(1, max|y|) at worst over these samples
        rng = np.random.default_rng(24)
        for _ in range(200):
            y = 0.5 + rng.standard_normal(5)
            conf = decompose(y, GAUSS)
            scale = max(1.0, float(np.abs(y).max()))
            assert abs(conf.theta_hat - float(y.mean())) <= 1e-13 * scale
            assert abs(float(conf.residuals.sum())) <= 1e-13 * scale

    def test_laplace_mle_is_median(self):
        y = np.array([0.3, -1.2, 0.8, 2.0, -0.5, 0.1, 0.9])
        conf = decompose(y, LAPLACE)
        assert conf.theta_hat == pytest.approx(float(np.median(y)), abs=1e-8)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(3)
        y = rng.logistic(0.0, 1.0, 9)
        c0 = decompose(y, LOGISTIC)
        c1 = decompose(y + 4.2, LOGISTIC)
        assert c1.theta_hat - c0.theta_hat == pytest.approx(4.2, abs=1e-8)
        assert np.abs(c1.residuals - c0.residuals).max() < 1e-8

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            decompose(np.array([1.0, math.inf]), GAUSS)

    def test_laplace_median_next_to_an_observation(self):
        # 1.00005 lies inside the validation step of the exact median 1.0
        conf = decompose(np.array([0.0, 1.0, 1.00005]), LAPLACE)
        assert conf.theta_hat == 1.0

    def test_laplace_even_n_close_middle_pair(self):
        # any point between the middle pair 0 and 5e-5 maximizes the likelihood;
        # the exact score is 0 at the median, their midpoint
        conf = decompose(np.array([-1.0, 0.0, 5e-5, 2.0]), LAPLACE)
        assert conf.theta_hat == 2.5e-5

    def test_rejects_a_point_off_the_maximum(self, monkeypatch):
        monkeypatch.setattr(location, "solve_monotone", lambda g, center, *rest: center + 1e-3)
        with pytest.raises(ValueError, match="not a configuration"):
            decompose(np.array([0.8, 1.3, 0.2, 1.9, 0.5]), GAUSS)


class TestConditionalConstant:
    def test_theta_independence(self):
        conf = decompose(np.array([0.4, -0.8, 1.1, 0.0]), GAUSS)
        c0 = conditional_density_constant(0.0, conf, GAUSS)
        c1 = conditional_density_constant(1.0, conf, GAUSS)
        assert c0 == pytest.approx(c1, rel=1e-12)

    def test_gaussian_closed_form(self):
        # residuals sum to zero, so the product integral collapses to
        # (2 pi)^(-(n-1)/2) n^(-1/2) exp(-sum a^2 / 2)
        y = np.array([0.8, 1.3, 0.2, 1.9, 0.5, -0.4])
        conf = decompose(y, GAUSS)
        n = conf.n
        a2 = float(np.sum(conf.residuals**2))
        log_c = 0.5 * math.log(n) + 0.5 * (n - 1) * math.log(2 * math.pi) + 0.5 * a2
        got = conditional_density_constant(0.0, conf, GAUSS)
        assert math.log(got) == pytest.approx(log_c, abs=1e-8)

    def test_logistic_quadrature_vs_importance_sampling(self):
        conf = decompose(np.array([0.4, -0.8, 1.1]), LOGISTIC)
        a = conf.residuals
        rng = np.random.default_rng(41)
        prop_sd = 4.0
        u = rng.normal(0.0, prop_sd, 10_000_000)
        log_w = (LOGISTIC.log_g(u[:, None] + a[None, :]).sum(axis=1)
                 + 0.5 * (u / prop_sd) ** 2
                 + math.log(prop_sd) + 0.5 * math.log(2 * math.pi))
        w = np.exp(log_w)
        est = float(w.mean())
        se = float(w.std(ddof=1) / math.sqrt(w.size))
        got = math.exp(_log_total_mass(a, LOGISTIC))
        assert abs(got - est) <= 3.0 * se

    def test_tail_mass_matches_quad(self):
        import warnings
        from scipy.integrate import IntegrationWarning
        for fam in (GAUSS, LAPLACE, LOGISTIC):
            rng = np.random.default_rng(5)
            conf = decompose(rng.normal(0, 1, 6), fam)
            a = conf.residuals
            for x in (-math.inf, -1.0, 0.0, 0.8, 3.0):
                lo = max(x, -40 * fam.scale)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", IntegrationWarning)
                    val, _ = quad(
                        lambda u: math.exp(float(np.sum(fam.log_g(u + a)))),
                        lo, 40 * fam.scale, limit=400, epsabs=1e-300, epsrel=1e-11,
                    )
                got = _log_tail_mass(x, a, fam)
                assert got == pytest.approx(math.log(val), abs=1e-8)


class TestLocationPvalue:
    def test_gaussian_closed_form(self):
        y = np.array([0.8, 1.3, 0.2, 1.9, 0.5])
        conf = decompose(y, GAUSS)
        expected = 1.0 - float(ndtr(math.sqrt(conf.n) * conf.theta_hat))
        assert location_pvalue(conf, GAUSS) == pytest.approx(expected, abs=1e-8)

    def test_half_at_conditional_median(self):
        # oracle median: bisect the quadrature tail ratio directly
        conf = decompose(np.array([0.2, -0.9, 1.4, 0.6]), LOGISTIC)
        a = conf.residuals

        def tail_ratio(t):
            num, _ = quad(lambda u: math.exp(float(np.sum(LOGISTIC.log_g(u + a)))),
                          t, 60.0, limit=300)
            den, _ = quad(lambda u: math.exp(float(np.sum(LOGISTIC.log_g(u + a)))),
                          -60.0, 60.0, limit=300)
            return num / den

        lo, hi = -5.0, 5.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if tail_ratio(mid) > 0.5:
                lo = mid
            else:
                hi = mid
        median = 0.5 * (lo + hi)
        conf_at_median = Configuration(a, median)
        assert location_pvalue(conf_at_median, LOGISTIC) == pytest.approx(0.5, abs=1e-8)

    def test_decreasing_in_t(self):
        conf = decompose(np.array([0.1, -0.4, 0.9]), LAPLACE)
        a = conf.residuals
        vals = [location_pvalue(Configuration(a, t), LAPLACE)
                for t in np.linspace(-2, 2, 21)]
        assert all(b <= a_ + 1e-12 for a_, b in zip(vals, vals[1:]))

    def test_uniform_under_null_each_family(self):
        for fam, seed in ((GAUSS, 1), (LAPLACE, 2), (LOGISTIC, 3)):
            rng = np.random.default_rng(seed)
            us = []
            for _ in range(5000):
                y = fam.sampler(rng, 6)
                us.append(location_pvalue(decompose(y, fam), fam))
            assert ks_uniform(us) < 0.03


class TestSelectiveInference:
    def test_gaussian_reduces_to_truncated_normal(self):
        rng = np.random.default_rng(9)
        n, alpha = 5, 0.2
        while True:
            y = 0.9 + rng.standard_normal(n)
            conf = decompose(y, GAUSS)
            if location_pvalue(conf, GAUSS) <= alpha:
                break
        res = selective_location_inference(conf, GAUSS, alpha, 0.9)
        cutoff = float(ndtri(1 - alpha)) / math.sqrt(n)
        assert res.diagnostics["selection_cutoff"] == pytest.approx(cutoff, abs=1e-8)
        sd = 1.0 / math.sqrt(n)

        def tg_cdf(theta):
            return truncated_cdf(conf.theta_hat,
                                 TruncatedGaussian(theta, sd, [(cutoff, math.inf)]))

        lo = invert_monotone_cdf(tg_cdf, 0.95, conf.theta_hat, step=sd)
        hi = invert_monotone_cdf(tg_cdf, 0.05, conf.theta_hat, step=sd)
        assert res.ci[0] == pytest.approx(lo, abs=1e-6)
        assert res.ci[1] == pytest.approx(hi, abs=1e-6)
        # truncated-normal MLE grid oracle
        grid = np.arange(conf.theta_hat - 4, conf.theta_hat + 2, 1e-4)
        ll = [-0.5 * n * (conf.theta_hat - t) ** 2
              - float(np.log(ndtr((t - cutoff) * math.sqrt(n)))) for t in grid]
        oracle = float(grid[np.argmax(ll)])
        assert res.estimate == pytest.approx(oracle, abs=1e-3)

    def test_alpha_one_recovers_unconditional(self):
        y = np.array([1.2, 0.3, 0.8, 1.6, 0.9])
        conf = decompose(y, GAUSS)
        res = selective_location_inference(conf, GAUSS, 1.0, 0.9)
        n = conf.n
        z = float(ndtri(0.95))
        assert res.estimate == pytest.approx(conf.theta_hat, abs=1e-6)
        assert res.ci[0] == pytest.approx(conf.theta_hat - z / math.sqrt(n), abs=1e-6)
        assert res.ci[1] == pytest.approx(conf.theta_hat + z / math.sqrt(n), abs=1e-6)

    def test_rejects_unselected(self):
        y = np.array([-0.5, -1.0, 0.2, -0.8])
        conf = decompose(y, GAUSS)
        assert location_pvalue(conf, GAUSS) > 0.05
        with pytest.raises(ValueError):
            selective_location_inference(conf, GAUSS, 0.05, 0.9)

    def test_shift_equivariance_of_pipeline(self):
        # shifting the data and the screening null together shifts every
        # output; the screening test itself is anchored at the null
        rng = np.random.default_rng(13)
        alpha, delta = 0.15, 3.1
        while True:
            y = 1.5 + rng.logistic(0.0, 1.0, 6)
            conf = decompose(y, LOGISTIC)
            if location_pvalue(conf, LOGISTIC) <= alpha:
                break
        r0 = selective_location_inference(conf, LOGISTIC, alpha, 0.9)
        conf_shift = decompose(y + delta, LOGISTIC)
        r1 = selective_location_inference(conf_shift, LOGISTIC, alpha, 0.9,
                                          null_value=delta)
        assert r1.pvalue == pytest.approx(r0.pvalue, abs=1e-9)
        assert r1.estimate - r0.estimate == pytest.approx(delta, abs=1e-6)
        assert r1.ci[1] - r0.ci[1] == pytest.approx(delta, abs=1e-6)
        if math.isfinite(r0.ci[0]):
            assert r1.ci[0] - r0.ci[0] == pytest.approx(delta, abs=1e-6)

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from(["gaussian", "laplace", "logistic"]), st.integers(0, 2**16),
           st.integers(2, 8), st.sampled_from([0.05, 0.2, 0.5]),
           st.lists(st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99]), min_size=2, max_size=2,
                    unique=True))
    def test_ci_nests_in_level(self, name, seed, n, alpha, levels):
        narrow, wide = sorted(levels)
        fam = get_family(name)
        conf = decompose(_draw_selected(fam, seed, n, alpha), fam)
        lo1, hi1 = selective_location_inference(conf, fam, alpha, narrow).ci
        lo2, hi2 = selective_location_inference(conf, fam, alpha, wide).ci
        assert lo2 <= lo1 <= hi1 <= hi2

    def test_conditional_density_integrates_to_one(self):
        for fam in (GAUSS, LAPLACE, LOGISTIC):
            conf = decompose(np.array([0.5, -0.2, 1.1, 0.7]), fam)
            c = conditional_density_constant(0.0, conf, fam)
            total, _ = quad(
                lambda t: c * math.exp(float(np.sum(fam.log_g(t + conf.residuals)))),
                -30 * fam.scale, 30 * fam.scale, limit=300)
            assert total == pytest.approx(1.0, abs=1e-8)


class TestFlatLikelihood:
    # logistic sample (replication 3 of location-coverage at seed 101):
    # the selective likelihood only levels off as theta -> -inf
    PLATEAU_Y = np.array([0.6143575891355113, 1.0259675910715238, 1.211950444210925,
                          -0.3587490546104912, 2.9102893176781084])

    def test_plateau_is_divergent(self):
        conf = decompose(self.PLATEAU_Y, LOGISTIC)
        res = selective_location_inference(conf, LOGISTIC, 0.1, 0.9)
        assert res.estimate == -math.inf
        assert "divergent-mle" in res.diagnostics["flags"]

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.2])
    def test_rejects_level_outside_unit_interval(self, level):
        conf = decompose(np.array([2.1, 1.4, 2.8, 0.9, 1.7]), GAUSS)
        with pytest.raises(ValueError):
            selective_location_inference(conf, GAUSS, 0.5, level)


class TestEmptyInterval:
    def test_empty_set_is_not_covered(self):
        # replication 81 of the canonical logistic study: the selective CDF
        # stays below alpha/2 for every theta in the box, so every accepted
        # theta lies below it and the interval covers nothing inside it
        config = Path(__file__).resolve().parents[1] / "scripts" / "configs" / \
            "location_coverage_logistic.json"
        params = json.loads(config.read_text())["params"]
        (row,) = run_replication("location-coverage", params, 20260808, 81)
        assert row["lo"] == row["hi"] == -math.inf
        assert row["covered"] == 0.0
        assert math.isnan(row["length"])
        assert "unbounded-ci-upper" in row["flags"]


def _sample_configuration(fam, n, seed):
    return decompose(fam.sampler(np.random.default_rng(seed), n), fam)


class TestTailTable:
    @settings(deadline=None, max_examples=40)
    @given(st.sampled_from(["gaussian", "laplace", "logistic"]), st.integers(2, 8),
           st.integers(0, 2**32 - 1), st.floats(-60.0, 40.0))
    def test_reads_match_tail_mass(self, name, n, seed, x):
        fam = get_family(name)
        a = _sample_configuration(fam, n, seed).residuals
        log_tail = _tail_table(a, fam)
        s = fam.scale
        w = s / math.sqrt(n)
        # grid edges are w * k; -40 s is the table's left end, past 20 s a
        # read falls back to the panel layout of _log_tail_mass
        points = [x * s, -math.inf, -60.0 * s, -40.0 * s, -8.0 * s, -16.0 * w, 0.0, 3.0 * w,
                  20.0 * s, math.nextafter(20.0 * s, math.inf), 20.0 * s + w]
        points += [float(k0) - ai for k0 in fam.kinks for ai in a]
        for p in points:
            want = _log_tail_mass(p, a, fam)
            assert log_tail(p) == pytest.approx(want, rel=1e-12, abs=0.0), p

    @settings(deadline=None, max_examples=20)
    @given(st.sampled_from(["gaussian", "laplace", "logistic"]), st.integers(2, 8),
           st.integers(0, 2**32 - 1))
    def test_reads_non_increasing(self, name, n, seed):
        fam = get_family(name)
        conf = _sample_configuration(fam, n, seed)
        log_tail = _tail_table(conf.residuals, fam)
        xs = np.concatenate([np.linspace(-60.0, 40.0, 801) * fam.scale,
                             [float(k0) - ai for k0 in fam.kinks for ai in conf.residuals]])
        reads = [log_tail(p) for p in np.sort(xs).tolist()]
        assert all(b <= a_ for a_, b in zip(reads, reads[1:]))

    @settings(deadline=None, max_examples=20)
    @given(st.sampled_from(["gaussian", "laplace", "logistic"]), st.integers(2, 8),
           st.integers(0, 2**32 - 1), st.floats(-3.0, 6.0))
    def test_slope_is_density_over_tail(self, name, n, seed, x):
        # L'(x) = -exp(log f(x) - L(x)), the slope the estimate's score uses
        fam = get_family(name)
        a = _sample_configuration(fam, n, seed).residuals
        log_tail = _tail_table(a, fam)
        x *= fam.scale
        h = 1e-5 * fam.scale
        slope = -math.exp(_profile_loglik(x, a, fam) - log_tail(x))
        central = (log_tail(x + h) - log_tail(x - h)) / (2.0 * h)
        assert central == pytest.approx(slope, rel=1e-5, abs=1e-8)


class TestPinnedEstimate:
    @pytest.mark.parametrize("seed", range(12))
    def test_gaussian_estimate_is_the_truncated_normal_score_root(self, seed):
        # exact gaussian configuration: theta_hat the mean, residuals about it
        rng = np.random.default_rng(seed)
        n, alpha = 2 + seed % 7, 0.2
        cutoff = float(ndtri(1.0 - alpha)) / math.sqrt(n)
        while True:
            y = 0.5 + rng.standard_normal(n)
            conf = Configuration(y - y.mean(), float(y.mean()))
            # nearer the cut the information vanishes and the root is
            # ill-conditioned
            if math.sqrt(n) * (conf.theta_hat - cutoff) >= 0.2:
                break
        res = selective_location_inference(conf, GAUSS, alpha, 0.9)
        t, r = conf.theta_hat, math.sqrt(n)

        def score(theta):
            z = r * (theta - cutoff)
            return n * (t - theta) - r * math.exp(-0.5 * z * z - 0.5 * math.log(2.0 * math.pi)
                                                 - float(log_ndtr(z)))

        root = brentq(score, t - 40.0, t + 5.0, xtol=1e-15, rtol=1e-15)
        assert res.estimate == pytest.approx(root, abs=1e-9)


def _draw_selected(fam, seed, n, alpha):
    rng = np.random.default_rng(seed)
    while True:
        y = 0.5 * fam.scale + fam.sampler(rng, n)
        if location_pvalue(decompose(y, fam), fam) <= alpha:
            return y


def _check_shift_equivariance(fam, seed, n, a):
    # shifting y and the null by a moves theta_hat, the estimate and both
    # CI ends by a. Within half a standard error of the cut the information
    # vanishes and the estimate is ill-conditioned, so those data are left out
    alpha = 0.2
    y = _draw_selected(fam, seed, n, alpha)
    conf = decompose(y, fam)
    r0 = selective_location_inference(conf, fam, alpha, 0.9)
    cut = r0.diagnostics["selection_cutoff"]
    assume(math.sqrt(n) * (conf.theta_hat - cut) >= 0.5 * fam.scale)
    shifted = decompose(y + a, fam)
    r1 = selective_location_inference(shifted, fam, alpha, 0.9, null_value=a)
    tol = 1e-9 * max(1.0, abs(a))
    assert shifted.theta_hat - conf.theta_hat == pytest.approx(a, abs=tol)
    for got, want in ((r1.estimate, r0.estimate), *zip(r1.ci, r0.ci)):
        assert got == want if math.isinf(want) else got - want == pytest.approx(a, abs=tol)


def _check_ci_shift_equivariance(fam, seed, n, a):
    # the CI's search box is centred at theta_hat, so both CI ends move by a,
    # or keep their infinite side, at any distance from the cut; the estimate
    # is checked only where it is well-conditioned, half a standard error or
    # more above the cut
    alpha = 0.2
    y = _draw_selected(fam, seed, n, alpha)
    conf, shifted = decompose(y, fam), decompose(y + a, fam)
    r0 = selective_location_inference(conf, fam, alpha, 0.9)
    r1 = selective_location_inference(shifted, fam, alpha, 0.9, null_value=a)
    pairs = list(zip(r1.ci, r0.ci))
    if math.sqrt(n) * (conf.theta_hat - r0.diagnostics["selection_cutoff"]) >= 0.5 * fam.scale:
        pairs.append((r1.estimate, r0.estimate))
    tol = 1e-9 * max(1.0, abs(a))
    for got, want in pairs:
        assert got == want if math.isinf(want) else got - want == pytest.approx(a, abs=tol)


class TestTranslationEquivariance:
    @settings(deadline=None, max_examples=40)
    @given(st.sampled_from(["gaussian", "logistic"]), st.integers(0, 2**16),
           st.integers(2, 8), st.floats(-60.0, 60.0))
    def test_shift_moves_every_output(self, name, seed, n, a):
        _check_shift_equivariance(get_family(name), seed, n, a)

    @settings(deadline=None, max_examples=150)
    @example(0, 5, 1.0)
    @example(119, 4, 1.0)
    @given(st.integers(0, 2**16), st.integers(2, 8), st.floats(-60.0, 60.0))
    def test_laplace_shift_moves_every_output(self, seed, n, a):
        _check_shift_equivariance(LAPLACE, seed, n, a)

    # the examples lie within 0.05 standard errors of the cut
    @settings(deadline=None, max_examples=150)
    @example("gaussian", 29, 2, 43.24004234352887)
    @example("gaussian", 42, 3, 43.24004234352887)
    @given(st.sampled_from(["gaussian", "logistic"]), st.integers(0, 2**16),
           st.integers(2, 8), st.floats(-60.0, 60.0))
    def test_ci_ends_move_at_any_distance_from_the_cut(self, name, seed, n, a):
        _check_ci_shift_equivariance(get_family(name), seed, n, a)

    @settings(deadline=None, max_examples=150)
    @example(119, 4, 1.0)
    @given(st.integers(0, 2**16), st.integers(2, 8), st.floats(-60.0, 60.0))
    def test_laplace_ci_ends_move_at_any_distance_from_the_cut(self, seed, n, a):
        _check_ci_shift_equivariance(LAPLACE, seed, n, a)


class TestLaplaceEstimate:
    # the likelihood is convex between observations, so it peaks at one of
    # them or on the plateau theta <= t_alpha + min a_i
    Y = np.array([2.169436769435121, 1.845088847979993, 0.8885964257239388,
                  1.554745953903276, -1.676850990188195])

    @pytest.mark.parametrize("a", [0.0, 5.0, 43.24004234352887, -20.0])
    def test_peak_at_the_median(self, a):
        conf = decompose(self.Y + a, LAPLACE)
        res = selective_location_inference(conf, LAPLACE, 0.2, 0.9, null_value=a)
        assert res.estimate - a == pytest.approx(1.554745953903276, abs=1e-9 * max(1.0, abs(a)))
        assert "flags" not in res.diagnostics

    @pytest.mark.parametrize("rep", range(12))
    def test_estimate_maximizes_the_likelihood(self, rep):
        # drawn as location-coverage draws them; the grid spans the box
        # [t - 30 scale, t + 10 scale] and adds the observations
        rng, alpha = rep_rng(20260808, rep), 0.1
        while True:
            conf = decompose(1.0 + LAPLACE.sampler(rng, 5), LAPLACE)
            if location_pvalue(conf, LAPLACE) <= alpha:
                break
        res = selective_location_inference(conf, LAPLACE, alpha, 0.9)
        t, a, cut = conf.theta_hat, conf.residuals, res.diagnostics["selection_cutoff"]
        log_tail = _tail_table(a, LAPLACE)

        def loglik(theta):
            return float(_profile_loglik(t - theta, a, LAPLACE)) - log_tail(cut - theta)

        s = LAPLACE.scale
        grid = np.concatenate([np.linspace(t - 30.0 * s, t + 10.0 * s, 20001), a + t])
        assert math.isfinite(res.estimate)
        assert loglik(res.estimate) >= max(map(loglik, grid)) - 1e-12
