"""Tests for the two-stage screening models."""
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
import mpmath
from scipy.special import log_ndtr, ndtr

from selectcond.two_stage import (
    SampleSizePrior,
    TwoStageData,
    compare_two_stage_inference,
    conditional_loglik,
    file_drawer_loglik,
    file_drawer_mle,
    infer_conditional,
    infer_unconditional,
    sample_size_pmf_given_selection,
    unconditional_loglik,
    _conditional_mle,
    _sum_tail,
    _unconditional_mle,
)
from selectcond.distributions import TruncatedGaussian, truncated_logpdf


def make_selected(theta, n1, n2, seed, z=1.96):
    rng = np.random.default_rng(seed)
    while True:
        s1 = theta + rng.standard_normal(n1)
        if s1.sum() > z * math.sqrt(n1):
            return TwoStageData(s1, theta + rng.standard_normal(n2), z)


class TestDataValidation:
    def test_rejects_unselected(self):
        with pytest.raises(ValueError):
            TwoStageData(np.array([-1.0, 0.0]), np.array([0.5]))

    @pytest.mark.parametrize("threshold", [-math.inf, math.inf, math.nan])
    def test_rejects_non_finite_threshold(self, threshold):
        # -inf would select every dataset and give a zero-width CI with a NaN p-value
        with pytest.raises(ValueError, match="threshold must be finite"):
            TwoStageData(np.array([2.5, 1.0, 0.3]), np.array([0.5]), threshold)

    def test_randomized_bypass(self):
        d = TwoStageData(np.array([-1.0, 0.0]), np.array([0.5]),
                         enforce_selection=False)
        assert d.n1 == 2 and d.n2 == 1


class TestLikelihoods:
    def test_point_mass_prior_equals_conditional(self):
        data = make_selected(0.5, 10, 20, 1)
        prior = SampleSizePrior.point_mass(10)
        for theta in [-0.5, 0.0, 0.5, 1.2]:
            assert unconditional_loglik(data, prior, theta) == pytest.approx(
                conditional_loglik(data, theta), abs=1e-12)

    def test_theta_zero_denominator_is_prior_free(self):
        # at theta = 0 every mixture term carries the same Phi(-z)
        data = make_selected(0.8, 10, 5, 2)
        priors = [
            SampleSizePrior((10, 20), np.array([0.5, 0.5])),
            SampleSizePrior((5, 10, 40), np.array([0.2, 0.3, 0.5])),
        ]
        base = conditional_loglik(data, 0.0)
        for prior in priors:
            val = unconditional_loglik(data, prior, 0.0)
            assert val == pytest.approx(base + math.log(prior.pmf(10)), abs=1e-12)

    def test_two_point_denominator_direct_summation(self):
        data = make_selected(1.0, 5, 0, 3)
        prior = SampleSizePrior((5, 12), np.array([0.4, 0.6]))
        theta = 1.0
        direct = 0.4 * ndtr(theta * math.sqrt(5) - 1.96) + \
            0.6 * ndtr(theta * math.sqrt(12) - 1.96)
        got = unconditional_loglik(data, prior, theta)
        manual = math.log(prior.pmf(5)) + sum(
            -0.5 * (v - theta) ** 2 - 0.5 * math.log(2 * math.pi) for v in data.stage1
        ) - math.log(direct)
        assert got == pytest.approx(manual, abs=1e-12)

    def test_conditional_mle_grid_oracle(self):
        data = make_selected(0.5, 10, 20, 4)
        grid = np.arange(-2.0, 3.0, 1e-4)
        vals = np.array([conditional_loglik(data, t) for t in grid])
        oracle = float(grid[np.argmax(vals)])
        assert infer_conditional(data, 0.9).estimate == pytest.approx(oracle, abs=2e-4)

    def test_single_stage_reduces_to_truncated_gaussian(self):
        data = make_selected(0.7, 8, 0, 5)
        n1, z = 8, 1.96
        ybar = data.stage1.mean()
        tg_cut = z / math.sqrt(n1)
        for t1, t2 in [(-0.3, 0.4), (0.1, 0.9)]:
            lhs = conditional_loglik(data, t1) - conditional_loglik(data, t2)
            tg1 = TruncatedGaussian(t1, 1 / math.sqrt(n1), [(tg_cut, math.inf)])
            tg2 = TruncatedGaussian(t2, 1 / math.sqrt(n1), [(tg_cut, math.inf)])
            rhs = truncated_logpdf(ybar, tg1) - truncated_logpdf(ybar, tg2)
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestSampleSizePmf:
    def test_theta_zero_returns_prior_exactly(self):
        prior = SampleSizePrior((5, 10, 20), np.array([0.3, 0.4, 0.3]))
        pmf = sample_size_pmf_given_selection(prior, 0.0)
        assert np.abs(pmf - prior.probs).max() <= 1e-14

    def test_saturation_returns_prior(self):
        prior = SampleSizePrior((5, 10, 20), np.array([0.3, 0.4, 0.3]))
        pmf = sample_size_pmf_given_selection(prior, 100.0)
        assert np.abs(pmf - prior.probs).max() <= 1e-10

    def test_upward_distortion_and_mc(self):
        prior = SampleSizePrior((5, 10, 20), np.full(3, 1 / 3))
        theta = 0.5
        pmf = sample_size_pmf_given_selection(prior, theta)
        mean_sel = float(np.dot(pmf, prior.support))
        prior_mean = float(np.dot(prior.probs, prior.support))
        assert mean_sel > prior_mean
        # MC over the generative process
        rng = np.random.default_rng(17)
        n = 1_000_000
        sizes = rng.choice(prior.support, size=n, p=prior.probs)
        sums = theta * sizes + np.sqrt(sizes) * rng.standard_normal(n)
        kept = sizes[sums > 1.96 * np.sqrt(sizes)]
        emp_mean = float(kept.mean())
        se = float(kept.std(ddof=1) / math.sqrt(kept.size))
        assert abs(mean_sel - emp_mean) <= 3.0 * se

    def test_simplex_across_theta(self):
        prior = SampleSizePrior((2, 7, 30), np.array([0.25, 0.5, 0.25]))
        for theta in np.linspace(-10, 10, 41):
            pmf = sample_size_pmf_given_selection(prior, float(theta))
            assert np.all(pmf >= 0)
            assert pmf.sum() == pytest.approx(1.0, abs=1e-12)

    def test_likelihood_ratio_monotone(self):
        prior = SampleSizePrior((3, 8, 15, 40), np.full(4, 0.25))
        for theta in (0.2, 0.7, 1.5):
            pmf = sample_size_pmf_given_selection(prior, theta)
            ratio = pmf / prior.probs
            assert np.all(np.diff(ratio) >= -1e-12)

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            SampleSizePrior((5, 10), np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            SampleSizePrior((0, 10), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            SampleSizePrior((5, 5), np.array([0.5, 0.5]))


class TestCompare:
    def test_point_mass_identical(self):
        data = make_selected(0.4, 12, 6, 7)
        pair = compare_two_stage_inference(data, SampleSizePrior.point_mass(12), 0.9)
        assert abs(pair.estimate_delta) <= 1e-10
        assert abs(pair.length_delta) <= 1e-8

    @settings(deadline=None, max_examples=40)
    @given(st.floats(0.0, 1.5), st.integers(1, 30), st.integers(0, 30),
           st.integers(0, 2**32 - 1))
    def test_point_mass_inference_equals_conditional(self, theta, n1, n2, seed):
        data = make_selected(theta, n1, n2, seed)
        cond = infer_conditional(data, 0.9)
        unc = infer_unconditional(data, SampleSizePrior.point_mass(n1), 0.9)
        assert unc.pvalue == cond.pvalue
        # the two MLE routes give slightly different CI centers
        assert unc.ci == pytest.approx(cond.ci, abs=1e-7)

    def test_dispersed_prior_moves_estimate(self):
        prior = SampleSizePrior((5, 10, 20), np.array([0.3, 0.4, 0.3]))
        data = make_selected(0.05, 10, 5, 11)
        pair = compare_two_stage_inference(data, prior, 0.9)
        assert abs(pair.estimate_delta) > 1e-4

    def test_conditional_inference_prior_free(self):
        data = make_selected(0.6, 10, 10, 13)
        p1 = SampleSizePrior((10, 40), np.array([0.9, 0.1]))
        p2 = SampleSizePrior((2, 10), np.array([0.6, 0.4]))
        r1 = compare_two_stage_inference(data, p1, 0.9).conditional
        r2 = compare_two_stage_inference(data, p2, 0.9).conditional
        assert r1.estimate == r2.estimate
        assert r1.ci == r2.ci

    @settings(deadline=None, max_examples=60)
    @given(st.floats(0.0, 1.5), st.integers(1, 12), st.integers(0, 20),
           st.integers(0, 2**16), st.lists(st.integers(1, 24), max_size=3),
           st.lists(st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99]), min_size=2, max_size=2,
                    unique=True))
    def test_ci_nests_in_level(self, theta, n1, n2, seed, sizes, levels):
        narrow, wide = sorted(levels)
        data = make_selected(theta, n1, n2, seed)
        support = sorted({n1, *sizes})
        prior = SampleSizePrior(tuple(support), np.full(len(support), 1.0 / len(support)))
        for infer in (infer_conditional, partial(infer_unconditional, prior=prior)):
            lo1, hi1 = infer(data, level=narrow).ci
            lo2, hi2 = infer(data, level=wide).ci
            assert lo2 <= lo1 <= hi1 <= hi2

    @pytest.mark.slow
    def test_conditional_coverage_own_regimes(self):
        # conditional model under fixed-n1 resampling, unconditional model
        # under joint resampling; 5e3 selected datasets each
        from selectcond.harness import parse_config, run
        prior = {"support": [5, 10, 20], "probs": [0.3, 0.4, 0.3]}
        for regime, kind in (("fixed-n1", "conditional"), ("joint", "unconditional")):
            cfg = parse_config({
                "scenario": "two-stage-compare",
                "params": {"prior": prior, "n2": 20, "theta": 0.5, "level": 0.9,
                           "regime": regime, "n_reps": 5000},
                "seed": 2026,
                "parallelism": 2,
            })
            cov = run(cfg).summary[f"coverage[{kind}]"]
            assert abs(cov - 0.9) <= 0.02


class TestFileDrawer:
    def test_large_noise_recovers_unadjusted_mle(self):
        data = make_selected(0.8, 10, 10, 19)
        est = file_drawer_mle(data, randomization_scale=1e6)
        assert est == pytest.approx(data.total_sum / data.n, abs=1e-4)

    def test_small_noise_recovers_deterministic(self):
        data = make_selected(0.8, 10, 10, 23)
        est_det = file_drawer_mle(data, None)
        est_rand = file_drawer_mle(data, randomization_scale=1e-8)
        assert est_rand == pytest.approx(est_det, abs=1e-4)

    def test_randomized_normalizer_vs_mc(self):
        # E over (data, W) of 1{sum(stage1) + W > z sqrt(n1)}
        theta, n1, gamma, z = 0.35, 6, 1.4, 1.96
        rng = np.random.default_rng(29)
        n = 10_000_000
        sums = theta * n1 + math.sqrt(n1) * rng.standard_normal(n)
        w = gamma * rng.standard_normal(n)
        emp = float(np.mean(sums + w > z * math.sqrt(n1)))
        se = math.sqrt(emp * (1 - emp) / n)
        closed = float(np.exp(log_ndtr(
            (theta * n1 - z * math.sqrt(n1)) / math.sqrt(n1 + gamma**2))))
        assert abs(closed - emp) <= 3.0 * se

    def test_pointwise_convergence_to_deterministic(self):
        data = make_selected(0.6, 8, 4, 31)
        det = conditional_loglik(data, 0.4)
        prev_gap = math.inf
        for gamma in (1.0, 0.3, 0.1, 0.03, 0.01):
            rand = file_drawer_loglik(data, 0.4, randomization_scale=gamma)
            gap = abs(rand - det)
            assert gap <= prev_gap + 1e-12
            prev_gap = gap
        assert prev_gap < 1e-3


class TestUnconditionalMle:
    # bimodal below concavity (n = 1 < 6): the global maximum is at -0.67251
    # (log likelihood -0.5235), while the score root uphill from S/n = 2.5 is
    # the other maximum, 2.26374 (log likelihood -1.4288)
    @pytest.mark.parametrize("data, prior, lo, hi", [
        (make_selected(0.3, 10, 5, 37),
         SampleSizePrior((5, 10, 20), np.array([0.3, 0.4, 0.3])), -1.0, 2.0),
        (TwoStageData(np.array([2.5]), np.array([])),
         SampleSizePrior((1, 6), np.array([0.5, 0.5])), -5.0, 5.0),
    ], ids=["concave", "bimodal"])
    def test_matches_grid(self, data, prior, lo, hi):
        grid = np.arange(lo, hi, 1e-4)
        vals = np.array([unconditional_loglik(data, prior, t) for t in grid])
        oracle = float(grid[np.argmax(vals)])
        assert _unconditional_mle(data, prior) == pytest.approx(oracle, abs=2e-4)


class TestScoreRoots:
    """MLEs of concave log likelihoods are the roots of their scores."""

    @pytest.mark.parametrize("gamma", [0.5, 1.4, 3.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_randomized_file_drawer_mle_against_mpmath(self, gamma, seed):
        # a bounded likelihood search stops near sqrt(eps): it was 3e-8 off
        data = make_selected(0.8, 10, 10, seed)
        with mpmath.workdps(40):
            s, n1, n = mpmath.mpf(data.total_sum), data.n1, data.n
            cut = mpmath.mpf(data.threshold) * mpmath.sqrt(n1)
            r = mpmath.sqrt(n1 + mpmath.mpf(gamma) ** 2)

            def score(th):
                x = (th * n1 - cut) / r
                return s - n * th - n1 / r * mpmath.npdf(x) / mpmath.ncdf(x)

            root = float(mpmath.findroot(score, s / n))
        assert file_drawer_mle(data, randomization_scale=gamma) == pytest.approx(
            root, rel=1e-12, abs=0.0)

    @settings(deadline=None, max_examples=60)
    @given(st.floats(0.0, 2.0), st.integers(1, 12), st.integers(1, 12),
           st.integers(0, 2**16), st.lists(st.integers(1, 24), max_size=3),
           st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4))
    def test_mle_is_a_maximum_when_concave(self, theta, n1, n2, seed, sizes, weights):
        # max(support) <= n: the likelihood is concave and the MLE one score root.
        # With no second stage, a point mass and S1 barely past the cut, the
        # likelihood flattens far out (test_mle_when_stage1_barely_passes), and
        # unconditional_loglik's own rounding there exceeds its fall over delta
        data = make_selected(theta, n1, n2, seed)
        support = sorted({n1, *(k for k in sizes if k <= data.n)})
        probs = np.array(weights[:len(support)])
        prior = SampleSizePrior(tuple(support), probs / probs.sum())
        est = _unconditional_mle(data, prior)
        at_est = unconditional_loglik(data, prior, est)
        for delta in (1e-4, 1e-2, 1.0):
            assert at_est >= unconditional_loglik(data, prior, est - delta)
            assert at_est >= unconditional_loglik(data, prior, est + delta)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(1, 10), st.integers(0, 20), st.integers(0, 2**16),
           st.floats(-60.0, 60.0))
    def test_conditional_translation_equivariance(self, n1, n2, seed, a):
        # shifting both stages by a and the threshold by a sqrt(n1) shifts theta by a.
        # Within half a standard error of the cut the estimate runs far out and is
        # ill-conditioned, so those data are left out
        data = make_selected(0.5, n1, n2, seed)
        assume(data.stage1_sum - data.threshold * math.sqrt(n1) >= 0.5 * math.sqrt(n1))
        shifted = TwoStageData(data.stage1 + a, data.stage2 + a,
                               data.threshold + a * math.sqrt(n1))
        r0, r1 = infer_conditional(data), infer_conditional(shifted)
        tol = 1e-9 * max(1.0, abs(a))
        for got, want in ((r1.estimate, r0.estimate), *zip(r1.ci, r0.ci)):
            # an end that escaped the search box keeps its infinite side
            assert got == want if math.isinf(want) else got - want == pytest.approx(a, abs=tol)

    @settings(deadline=None, max_examples=150)
    @example(1, 0, 0, 33.0)
    @given(st.integers(1, 10), st.integers(0, 20), st.integers(0, 2**16),
           st.floats(-60.0, 60.0))
    def test_conditional_ci_ends_move_at_any_distance_from_the_cut(self, n1, n2, seed, a):
        # the CI's search box is centred at the estimate, so both CI ends move
        # by a, or keep their infinite side, however close S1 sits to the cut;
        # the estimate is checked only half a standard error or more above it
        data = make_selected(0.5, n1, n2, seed)
        shifted = TwoStageData(data.stage1 + a, data.stage2 + a,
                               data.threshold + a * math.sqrt(n1))
        r0, r1 = infer_conditional(data), infer_conditional(shifted)
        pairs = list(zip(r1.ci, r0.ci))
        if data.stage1_sum - data.threshold * math.sqrt(n1) >= 0.5 * math.sqrt(n1):
            pairs.append((r1.estimate, r0.estimate))
        tol = 1e-9 * max(1.0, abs(a))
        for got, want in pairs:
            assert got == want if math.isinf(want) else got - want == pytest.approx(a, abs=tol)


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5])
def test_infer_rejects_level_outside_unit_interval(level):
    data = make_selected(0.5, 6, 4, 3)
    with pytest.raises(ValueError):
        infer_conditional(data, level)
    with pytest.raises(ValueError):
        infer_unconditional(data, SampleSizePrior.point_mass(6), level)


class TestDeepPrecision:
    """p-values from the upper tail and a score free of cancellation,
    against mpmath."""

    @staticmethod
    def mpmath_pvalue(s, n1, n2, z=1.96):
        # P_0(S > s | S1 > z sqrt(n1)) for S1 ~ N(0, n1), S2 ~ N(0, n2)
        with mpmath.workdps(40):
            s, c = mpmath.mpf(s), z * mpmath.sqrt(n1)
            sd1, sd2 = mpmath.sqrt(n1), mpmath.sqrt(n2)
            peak = max(c, n1 * s / (n1 + n2))

            def f(u):
                return mpmath.npdf(u / sd1) / sd1 * mpmath.ncdf((u - s) / sd2)

            num = mpmath.quad(f, sorted({c, peak, peak + 2 * sd1, mpmath.inf}))
            return float(num / mpmath.ncdf(-c / sd1))

    @pytest.mark.parametrize("total", [20.0, 26.0, 35.0])
    def test_conditional_pvalue_against_mpmath(self, total):
        # 1 - cdf(0) was off by 2e-13, 2.3e-10 and 7.7e-6 relative
        data = TwoStageData(np.ones(5), np.full(20, (total - 5.0) / 20.0))
        want = self.mpmath_pvalue(data.total_sum, 5, 20)
        assert infer_conditional(data).pvalue == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_mle_when_stage1_barely_passes(self):
        # S1 passes the cut by 2.6e-4, which puts the root near -3869; a
        # score that subtracts the hazard from S - n theta cancels two
        # numbers near 3871, and its roots were 4e-10 and 1.7e-9 off
        data = make_selected(0.0, 1, 0, 0)
        with mpmath.workdps(50):
            s, z = mpmath.mpf(data.total_sum), mpmath.mpf(data.threshold)
            root = float(mpmath.findroot(
                lambda th: s - th - mpmath.npdf(z - th) / mpmath.ncdf(th - z), -3869.0))
        assert _conditional_mle(data) == pytest.approx(root, rel=1e-12, abs=0.0)
        assert _unconditional_mle(data, SampleSizePrior.point_mass(1)) == pytest.approx(
            root, rel=1e-12, abs=0.0)


class TestMixtureTail:
    """The tail under a prior on n1 mixes the point-mass tails with the
    selective pmf of n1."""

    PRIOR = SampleSizePrior((5, 10, 20), np.array([0.3, 0.4, 0.3]))

    @settings(deadline=None, max_examples=80)
    @given(st.floats(-1.5, 2.5), st.floats(-20.0, 80.0), st.booleans(),
           st.sampled_from([0, 1, 20]))
    def test_mixture_of_point_mass_tails(self, theta, s, upper, n2):
        z = 1.96
        pmf = sample_size_pmf_given_selection(self.PRIOR, theta, z)
        want = sum(p * _sum_tail(s, SampleSizePrior.point_mass(k), n2, z, theta, upper)
                   for k, p in zip(self.PRIOR.support, pmf))
        got = _sum_tail(s, self.PRIOR, n2, z, theta, upper)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
