"""Tests for the generic selective model machinery."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize
from scipy.integrate import quad
from scipy.special import erfcx, log_ndtr, ndtr

from selectcond import location, two_stage, winners
from selectcond.distributions import TruncatedGaussian, std_normal_log_pdf, truncated_cdf
from selectcond.selective import (
    ClosedFormNormalizer,
    DatumNotSelectedError,
    DivergentMLEError,
    MonteCarloNormalizer,
    ParametricFamily,
    SelectionFunction,
    SelectiveModel,
    UnsupportedSelectionError,
    gaussian_iid,
    indicator_above,
    invert_equal_tailed,
    invert_monotone_cdf,
    indicator_two_sided,
    randomized_above,
    randomized_selection_prob,
    scalar_gaussian,
    selection_probability,
    selective_cdf,
    selective_ci,
    selective_log_density,
    selective_mle,
    solve_monotone,
)

PHI_MINUS_1_OVER_SQRT2 = 0.23975006109347674  # Phi(-1/sqrt(2)), convolution oracle
PHI_1 = 0.8413447460685429
Z_975 = 1.959963984540054


def always_selected():
    return SelectionFunction("deterministic", lambda y: 1.0)


def decreasing(shape, root):
    """A function decreasing through its one root, linear or flattening out."""
    if shape == "linear":
        return lambda x: root - x
    if shape == "tanh":
        return lambda x: math.tanh(root - x)
    return lambda x: float(np.cbrt(root - x))


class TestSelectionProbability:
    def test_no_selection_is_one(self):
        m = SelectiveModel(scalar_gaussian(), always_selected())
        for theta in [-2.0, 0.0, 3.5]:
            assert selection_probability(m, theta) == pytest.approx(1.0, abs=1e-10)

    def test_half_space_symmetry(self):
        m = SelectiveModel(scalar_gaussian(), indicator_above(0.0))
        assert selection_probability(m, 0.0) == pytest.approx(0.5, abs=1e-9)

    def test_randomized_convolution_closed_form(self):
        # p(y) = Phi(y - 1), theta = 0: E[p(Y)] = Phi(-1/sqrt(2))
        m = SelectiveModel(scalar_gaussian(), randomized_above(1.0, 1.0))
        assert selection_probability(m, 0.0) == pytest.approx(
            PHI_MINUS_1_OVER_SQRT2, abs=1e-9)

    def test_randomized_matches_mc(self):
        m = SelectiveModel(scalar_gaussian(), randomized_above(1.0, 1.0),
                           normalizer=MonteCarloNormalizer(400_000))
        rng = np.random.default_rng(21)
        est = selection_probability(m, 0.0, rng)
        se = math.sqrt(PHI_MINUS_1_OVER_SQRT2 * 0.76 / 400_000) * 2  # loose bound
        assert abs(est - PHI_MINUS_1_OVER_SQRT2) <= 3.0 * se

    def test_impossible_selection_errors(self):
        m = SelectiveModel(scalar_gaussian(), indicator_above(1e6))
        with pytest.raises(UnsupportedSelectionError):
            selection_probability(m, 0.0)

    def test_mc_requires_rng(self):
        m = SelectiveModel(scalar_gaussian(), always_selected(),
                           normalizer=MonteCarloNormalizer(100))
        with pytest.raises(ValueError):
            selection_probability(m, 0.0)


class TestSelectiveLogDensity:
    def test_no_selection_equals_base(self):
        fam = scalar_gaussian()
        m = SelectiveModel(fam, always_selected())
        for y in [-1.0, 0.3, 2.0]:
            assert selective_log_density(m, y, 0.5) == pytest.approx(
                fam.log_density(y, 0.5), abs=1e-9)

    def test_normalization_integral(self):
        m = SelectiveModel(scalar_gaussian(), indicator_above(0.0))
        total, _ = quad(lambda y: math.exp(selective_log_density(m, y, 0.7)),
                        0.0, 14.0, epsabs=1e-12, epsrel=1e-10, limit=200)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_rejects_unselected_datum(self):
        m = SelectiveModel(scalar_gaussian(), indicator_above(1.0))
        with pytest.raises(DatumNotSelectedError):
            selective_log_density(m, 0.5, 0.0)

    def test_matches_independent_mc_normalizer(self):
        sel = randomized_above(0.5, 0.7)
        quad_model = SelectiveModel(scalar_gaussian(), sel)
        mc_model = SelectiveModel(scalar_gaussian(), sel,
                                  normalizer=MonteCarloNormalizer(500_000))
        rng = np.random.default_rng(3)
        y, theta = 1.2, 0.4
        ld_quad = selective_log_density(quad_model, y, theta)
        ld_mc = selective_log_density(mc_model, y, theta, rng)
        phi = selection_probability(quad_model, theta)
        se_log = math.sqrt(phi * (1 - phi) / 500_000) / phi
        assert abs(ld_quad - ld_mc) <= 3.0 * se_log


class TestSelectiveMle:
    def test_classical_mle_is_sample_mean(self):
        rng = np.random.default_rng(5)
        y = rng.normal(1.3, 1.0, size=12)
        m = SelectiveModel(gaussian_iid(12), always_selected(),
                           normalizer=ClosedFormNormalizer(lambda th: 1.0))
        est = selective_mle(m, y)
        assert est == pytest.approx(float(np.mean(y)), abs=1e-6)

    def test_threshold_selection_grid_oracle(self):
        thetas = np.arange(-5.0, 5.0, 1e-4)
        from scipy.stats import norm
        loglik = norm.logpdf(2.0 - thetas) - norm.logsf(1.645 - thetas)
        oracle = float(thetas[np.argmax(loglik)])
        m = SelectiveModel(scalar_gaussian(), indicator_above(1.645))
        est = selective_mle(m, 2.0)
        assert est < 2.0
        assert est == pytest.approx(oracle, abs=2e-4)

    def test_two_sided_selection_sign_symmetry(self):
        m = SelectiveModel(scalar_gaussian(), indicator_two_sided(1.5))
        est_pos = selective_mle(m, 2.2)
        est_neg = selective_mle(m, -2.2)
        assert est_pos == pytest.approx(-est_neg, abs=1e-6)

    def test_location_shift_equivariance(self):
        delta = 1.3
        m0 = SelectiveModel(scalar_gaussian(), indicator_above(1.0))
        m1 = SelectiveModel(scalar_gaussian(), indicator_above(1.0 + delta))
        est0 = selective_mle(m0, 1.8)
        est1 = selective_mle(m1, 1.8 + delta)
        assert est1 - est0 == pytest.approx(delta, abs=1e-6)

    def test_mle_past_phi_floor_is_divergent(self):
        # the score root lies near -99, beyond the box; phi underflows
        # PHI_FLOOR below about -36.05, where the likelihood still rises
        m = SelectiveModel(scalar_gaussian(), indicator_above(1.0))
        with pytest.raises(DivergentMLEError) as exc:
            selective_mle(m, 1.01)
        np.testing.assert_array_equal(exc.value.direction, [-1.0])

    def test_mle_at_box_end_is_divergent(self):
        fam = scalar_gaussian()
        boxed = ParametricFamily(fam.log_density, fam.sampler, ((-5.0, 5.0),),
                                 fam.integration_window)
        m = SelectiveModel(boxed, indicator_above(1.0))
        with pytest.raises(DivergentMLEError) as exc:
            selective_mle(m, 1.1)  # score root near -8.4
        np.testing.assert_array_equal(exc.value.direction, [-1.0])
        assert selective_mle(m, 1.5) == pytest.approx(
            selective_mle(SelectiveModel(fam, indicator_above(1.0)), 1.5), abs=1e-9)

    def test_two_interval_param_space_rejected(self):
        fam = scalar_gaussian()
        two = ParametricFamily(fam.log_density, fam.sampler, ((-5.0, 5.0), (-5.0, 5.0)),
                               fam.integration_window)
        with pytest.raises(ValueError):
            selective_mle(SelectiveModel(two, indicator_above(1.0)), 1.5)

    @settings(deadline=None, max_examples=100)
    @given(st.floats(-1.0, 30.0), st.floats(0.05, 2.5))
    def test_matches_erfcx_score_root(self, c, gap):
        # the score of N(theta, 1) | y > c is (y - theta) minus the normal
        # hazard at c - theta; flat 20 sigma deep, where it slopes at 1/400
        y = c + gap

        def score(th):
            return (y - th) - math.sqrt(2.0 / math.pi) / erfcx((c - th) / math.sqrt(2.0))

        root = optimize.brentq(score, c - 40.0, y, xtol=1e-14, rtol=1e-15)
        est = selective_mle(SelectiveModel(scalar_gaussian(1.0), indicator_above(c)), y)
        assert abs(est - root) <= 1e-7 * max(1.0, abs(root))

    def test_monte_carlo_normalizer_draws_from_rng(self):
        sel = randomized_above(1.0, 1.0)
        want = selective_mle(SelectiveModel(scalar_gaussian(), sel), 1.5)
        mc = SelectiveModel(scalar_gaussian(), sel, normalizer=MonteCarloNormalizer(50_000))
        with pytest.raises(ValueError):
            selective_mle(mc, 1.5)
        assert selective_mle(mc, 1.5, rng=np.random.default_rng(4)) == pytest.approx(
            want, abs=0.1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_monte_carlo_mle_reuses_its_draws(self, seed):
        # fresh draws at every likelihood evaluation made the bounded search
        # stop anywhere in the noise: 0.142, 0.038 and 0.056 off at these seeds
        sel = randomized_above(1.0, 1.0)
        want = selective_mle(SelectiveModel(scalar_gaussian(), sel), 1.5)
        assert want == pytest.approx(0.90534, abs=1e-5)
        mc = SelectiveModel(scalar_gaussian(), sel, normalizer=MonteCarloNormalizer(20_000))
        assert selective_mle(mc, 1.5, rng=np.random.default_rng(seed)) == pytest.approx(
            want, abs=0.02)


class TestSelectiveCi:
    def test_classical_interval(self):
        m = SelectiveModel(scalar_gaussian(), always_selected())
        lo, hi = selective_ci(m, 0.0, level=0.95)
        assert lo == pytest.approx(-Z_975, abs=1e-6)
        assert hi == pytest.approx(Z_975, abs=1e-6)

    def test_truncated_case_grid_oracle(self):
        # oracle: theta-grid inversion of the survival-form truncated CDF,
        # written with erfc-based tails so the deep-shrinkage endpoint is
        # resolvable; independent of the quadrature path under test
        def trunc_cdf(theta):
            return 1.0 - ndtr(-(2.0 - theta)) / ndtr(-(1.645 - theta))

        grid = np.arange(-12.0, 8.0, 1e-4)
        vals = trunc_cdf(grid)
        lo_oracle = float(grid[np.argmin(np.abs(vals - 0.95))])
        hi_oracle = float(grid[np.argmin(np.abs(vals - 0.05))])

        m = SelectiveModel(scalar_gaussian(), indicator_above(1.645))
        lo, hi = selective_ci(m, 2.0, level=0.9)
        assert lo == pytest.approx(lo_oracle, abs=1e-4)
        assert hi == pytest.approx(hi_oracle, abs=1e-4)

    def test_endpoint_beyond_theta_limit_is_infinite(self):
        # the lower endpoint is -76.7248 (mpmath), outside the search box
        y, c, level = 0.03, 0.0, 0.8

        def tg_cdf(theta):
            return truncated_cdf(y, TruncatedGaussian(theta, 1.0, ((c, math.inf),)))

        lo, hi = selective_ci(SelectiveModel(scalar_gaussian(), indicator_above(c)), y, level)
        assert lo == -math.inf
        assert hi == pytest.approx(invert_equal_tailed(tg_cdf, level, y)[1], abs=1e-7)
        assert hi == pytest.approx(-3.23033, abs=1e-5)

    def test_endpoint_inside_box_near_its_edge(self):
        # mpmath puts the lower endpoint at -36.78298801596; a bracket that
        # doubled from -32 to -64 read it as beyond the box at 50
        y, c, level = 0.0625, 0.0, 0.8
        lo, hi = selective_ci(SelectiveModel(scalar_gaussian(), indicator_above(c)), y, level)
        assert lo == pytest.approx(-36.782988016, abs=1e-7)
        assert hi == pytest.approx(-1.16656, abs=1e-5)


class TestSolveMonotone:
    XTOL, RTOL, LIMIT = 1e-10, 1e-15, 100.0

    # |center| + max(step, 2 |root - center|) stays below LIMIT, so the
    # doubling bracket reaches the root inside the box
    @settings(deadline=None, max_examples=200)
    @given(st.floats(-40.0, 40.0), st.floats(-5.0, 5.0), st.floats(1e-3, 10.0),
           st.sampled_from(["linear", "tanh"]))
    def test_finds_root_inside_box(self, root, center, step, shape):
        g = (lambda x: root - x) if shape == "linear" else (lambda x: math.tanh(root - x))
        got = solve_monotone(g, center, step, self.LIMIT, self.XTOL, self.RTOL)
        assert abs(got - root) <= self.XTOL + self.RTOL * abs(root)

    @settings(deadline=None, max_examples=200)
    @given(st.floats(LIMIT, 1e6, exclude_min=True),
           st.sampled_from([-1.0, 1.0]), st.floats(-5.0, 5.0), st.floats(1e-3, 10.0),
           st.sampled_from(["linear", "tanh"]))
    def test_root_outside_box_is_infinite_on_its_side(self, dist, sign, center, step, shape):
        root = sign * dist
        g = (lambda x: root - x) if shape == "linear" else (lambda x: math.tanh(root - x))
        got = solve_monotone(g, center, step, self.LIMIT, self.XTOL, self.RTOL)
        assert got == sign * math.inf

    # the root comes back if and only if it lies in |x| <= LIMIT; a bracket
    # that doubled from 64 to 128 read a root in (64, 100] as beyond the box
    @settings(deadline=None, max_examples=300)
    @given(st.floats(-2.0 * LIMIT, 2.0 * LIMIT), st.floats(-2.0 * LIMIT, 2.0 * LIMIT),
           st.floats(1e-3, 10.0), st.sampled_from(["linear", "tanh", "cbrt"]))
    def test_box_rule(self, root, center, step, shape):
        got = solve_monotone(decreasing(shape, root), center, step, self.LIMIT,
                             self.XTOL, self.RTOL)
        if abs(root) <= self.LIMIT:
            assert abs(got - root) <= self.XTOL + self.RTOL * abs(got)
        else:
            assert got == math.copysign(math.inf, root)

    def test_root_between_doubling_probes_and_box_edge(self):
        assert solve_monotone(lambda x: -40.0 - x, 0.0, 1.0, 50.0, 1e-10, 1e-15) == (
            pytest.approx(-40.0, abs=1e-10))
        assert solve_monotone(lambda x: math.tanh(-40.0 - x), 0.0, 1.0, 50.0, 1e-10,
                              1e-15) == pytest.approx(-40.0, abs=1e-10)

    @settings(deadline=None, max_examples=200)
    @given(st.floats(-2.0 * LIMIT, 2.0 * LIMIT), st.floats(-LIMIT, LIMIT),
           st.floats(1e-3, 10.0), st.sampled_from(["linear", "tanh", "cbrt"]))
    def test_never_evaluates_a_point_twice(self, root, center, step, shape):
        f, seen = decreasing(shape, root), []

        def g(x):
            seen.append(x)
            return f(x)

        solve_monotone(g, center, step, self.LIMIT, self.XTOL, self.RTOL)
        assert len(set(seen)) == len(seen)

    @pytest.mark.parametrize("center, step, edge", [(0.0, 1.0, 1.5), (0.0, 0.1, 3.0),
                                                    (math.inf, 1.0, 1.5)])
    def test_a_nan_value_raises(self, center, step, edge):
        # g falls through its root at 5 but reads NaN past edge, as a score
        # does at an infinite observation; a NaN value once spun the finish
        # without end, so g gives up after 1000 calls rather than hang the test
        calls = []

        def g(x):
            calls.append(x)
            if len(calls) > 1000:
                raise RuntimeError("solve_monotone did not stop at a NaN value")
            return 5.0 - x if x <= edge else math.nan

        with pytest.raises(ValueError, match="NaN"):
            solve_monotone(g, center, step, math.inf, self.XTOL, self.RTOL)

    # the probit pivot of an untruncated Gaussian is linear in theta: the
    # first secant brackets a root within 4 steps and regula falsi lands on it
    @settings(deadline=None, max_examples=200)
    @given(st.floats(-10.0, 10.0), st.floats(0.1, 10.0), st.floats(-4.0, 4.0),
           st.floats(0.1, 10.0))
    def test_linear_takes_at_most_five_evaluations(self, center, step, offset, slope):
        root, seen = center + offset * step, []

        def g(x):
            seen.append(x)
            return slope * (root - x)

        got = solve_monotone(g, center, step, self.LIMIT, self.XTOL, self.RTOL)
        assert abs(got - root) <= self.XTOL + self.RTOL * abs(got)
        assert len(seen) <= 5


class TestInvertEqualTailed:
    @pytest.mark.parametrize("cdf_value, end", [(0.001, -math.inf), (0.999, math.inf)])
    def test_empty_set_keeps_its_side(self, cdf_value, end):
        # a CDF below (above) both levels over the whole box puts both
        # endpoints past its left (right) edge: no theta in the box is
        # accepted, and the interval must not read as the whole line
        diagnostics = {}
        ci = invert_equal_tailed(lambda th: cdf_value, 0.9, 0.0, diagnostics=diagnostics)
        assert ci == (end, end)
        assert diagnostics["flags"] == ["unbounded-ci-lower", "unbounded-ci-upper"]

    @settings(deadline=None, max_examples=10)
    @given(st.integers(0, 2**32 - 1))
    def test_truncated_gaussian_endpoints_cost_few_cdf_evaluations(self, seed):
        # 40 CIs for N(theta, 1) | y > c; a doubling bracket and brentq took
        # about 13 CDF evaluations per endpoint
        rng = np.random.default_rng(seed)
        evals = 0
        for _ in range(40):
            c, gap = rng.uniform(-2.0, 2.0), rng.uniform(0.05, 3.0)
            level = rng.choice([0.8, 0.9, 0.95])

            def cdf(theta):
                nonlocal evals
                evals += 1
                return truncated_cdf(c + gap, TruncatedGaussian(theta, 1.0, ((c, math.inf),)))

            invert_equal_tailed(cdf, level, c + gap)
        assert evals / 80 <= 7.5

    @pytest.mark.parametrize("level", [-0.5, 0.0, 1.0, 1.5, math.nan])
    def test_rejects_level_outside_unit_interval(self, level):
        with pytest.raises(ValueError, match="level"):
            invert_equal_tailed(lambda th: float(ndtr(1.0 - th)), level, 0.0)

    @pytest.mark.parametrize("cdf_value, end", [(0.001, -math.inf), (0.999, math.inf)])
    def test_monotone_solution_past_the_box_is_infinite(self, cdf_value, end):
        assert invert_monotone_cdf(lambda th: cdf_value, 0.5, 0.0) == end
        # a solution inside the box stays finite
        assert invert_monotone_cdf(lambda th: float(ndtr(1.0 - th)), 0.5, 0.0) \
            == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("center", [-100.0, -20.0, 0.0, 20.0, 100.0])
    @pytest.mark.parametrize("offset, step, want", [
        (-60.0, 1.0, -math.inf), (-40.0, 1.0, -40.0), (60.0, 1.0, math.inf),
        (40.0, 1.0, 40.0), (-90.0, 2.0, -90.0), (-110.0, 2.0, -math.inf)])
    def test_box_is_centred_at_center(self, center, offset, step, want):
        # the box |theta - center| <= 50 max(1, step) moves with center, so
        # the solution's offset from center reads the same wherever it sits
        got = invert_monotone_cdf(lambda th: float(ndtr((center + offset - th) / step)),
                                  0.5, center, step=step)
        assert got - center == (want if math.isinf(want) else pytest.approx(want, abs=1e-8))


class TestModelPivots:
    """Each model hands equal_tailed_inference the two tails of its pivot:
    they sum to one, the lower tail falls in theta, and the p-value is the
    upper tail at the null. Both checks allow 1e-12 of rounding; where the
    observation sits on the cut, the lower tail is 0 give or take 4e-15."""

    @staticmethod
    def check_pivot(module, infer, monotone=True):
        seen = {}
        real = module.equal_tailed_inference

        def spy(tail, level, center, step, estimate, kind, diagnostics, null=0.0):
            seen.update(tail=tail, center=center, step=step, null=null)
            return real(tail, level, center, step, estimate, kind, diagnostics, null)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, "equal_tailed_inference", spy)
            res = infer()
        tail = seen["tail"]
        thetas = seen["center"] + seen["step"] * np.linspace(-6.0, 6.0, 13)
        lower = [tail(th, False) for th in thetas]
        for th, low in zip(thetas, lower):
            assert abs(low + tail(th, True) - 1.0) <= 1e-12
        if monotone:
            assert all(b <= a + 1e-12 for a, b in zip(lower, lower[1:]))
        assert res.pvalue == tail(seen["null"], True)
        assert 0.0 <= res.pvalue <= 1.0

    @settings(deadline=None, max_examples=25)
    @given(st.integers(1, 20), st.integers(0, 30), st.floats(-0.5, 2.0),
           st.floats(0.05, 5.0), st.integers(0, 2**32 - 1), st.booleans())
    def test_two_stage(self, n1, n2, theta, gap, seed, mixture):
        rng = np.random.default_rng(seed)
        stage1 = theta + rng.standard_normal(n1)
        # shift stage 1 to pass the cut by gap. The estimate, the grid's
        # center, then lies about sqrt(n1) / gap sigma below the cut: at most
        # 90 sigma here. At 260 sigma (n1 = 1, gap 0.0039) the log tails near
        # -3.4e4 carry 3e-12 of rounding, and the two tails miss a sum of one
        # by 1.5e-12.
        stage1 += (1.96 * math.sqrt(n1) + gap - stage1.sum()) / n1
        data = two_stage.TwoStageData(stage1, theta + rng.standard_normal(n2))
        if mixture:
            # S alone is not sufficient once n1 is random: its law mixed
            # over n1 need not fall in theta (n1 = 1, n2 = 0, gap 1 and a
            # prior on {1, 6} rise from 0.17 to 0.22 between theta = 0.8
            # and 1.8), so only the other two checks apply
            prior = two_stage.SampleSizePrior((n1, n1 + 5), np.array([0.5, 0.5]))
            self.check_pivot(two_stage, lambda: two_stage.infer_unconditional(data, prior),
                             monotone=False)
        else:
            self.check_pivot(two_stage, lambda: two_stage.infer_conditional(data))

    @settings(deadline=None, max_examples=40)
    @given(st.floats(-5.0, 5.0), st.floats(0.0, 4.0), st.floats(0.2, 3.0),
           st.sampled_from(list(winners.WinnersModelKind)))
    def test_winners(self, t, gap, sigma, kind):
        data = winners.WinnersData(np.array([t, t - gap, t - gap - sigma]), sigma)
        self.check_pivot(winners, lambda: winners.infer_winner(data, kind))

    @settings(deadline=None, max_examples=15)
    @given(st.sampled_from(["gaussian", "laplace", "logistic"]), st.integers(3, 8),
           st.floats(-1.0, 1.0), st.floats(1.0, 5.0), st.integers(0, 2**32 - 1))
    def test_location(self, name, n, null, widen, seed):
        fam = location.get_family(name)
        conf = location.decompose(1.0 + fam.sampler(np.random.default_rng(seed), n), fam)
        # the smallest selection level that admits the data, widened
        alpha = min(1.0, widen * location.location_pvalue(conf, fam, null))
        self.check_pivot(location, lambda: location.selective_location_inference(
            conf, fam, alpha, 0.9, null))


class TestRandomizedSelectionProb:
    def test_at_threshold(self):
        assert randomized_selection_prob(1.0, 1.0, 2.0) == pytest.approx(0.5)

    def test_degenerate_limit_is_indicator(self):
        assert randomized_selection_prob(1.0, 0.5, 1e-8) == pytest.approx(1.0)
        assert randomized_selection_prob(0.5, 1.0, 1e-8) == pytest.approx(0.0, abs=1e-300)

    def test_unit_gap(self):
        assert randomized_selection_prob(1.0, 0.0, 1.0) == pytest.approx(PHI_1, abs=1e-12)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            randomized_selection_prob(0.0, 0.0, 0.0)


class TestPValueUniformity:
    def test_selective_cdf_transform_is_uniform(self):
        theta = 0.3
        m = SelectiveModel(scalar_gaussian(), indicator_above(1.0))
        rng = np.random.default_rng(31)
        raw = rng.normal(theta, 1.0, 120_000)
        selected = raw[raw > 1.0][:10_000]
        assert selected.size == 10_000
        u = np.sort([selective_cdf(m, y, theta) for y in selected])
        grid = np.arange(1, u.size + 1) / u.size
        ks = float(np.maximum(grid - u, u - (grid - 1.0 / u.size)).max())
        assert ks < 0.02


class TestAncillaryConditioning:
    def test_reduced_identity_on_discrete_example(self):
        # T in {0,1,2}, A in {0,1}; the conditional law of T given a is the
        # family; selection acts through p(t, a)
        t_vals = np.array([0.0, 1.0, 2.0])

        def cond_pmf(a, theta):
            w = np.exp(theta * t_vals + 0.3 * a * t_vals)
            return w / w.sum()

        p_ta = np.array([[0.9, 0.5, 0.1],
                         [0.2, 0.6, 0.8]])  # indexed [a, t]

        a_obs, theta = 1, 0.4

        sel = SelectionFunction(
            "randomized",
            prob=lambda t: p_ta[a_obs, int(t)],
            reduced_prob=lambda t, a: p_ta[int(a), int(t)],
        )
        fam = ParametricFamily(
            log_density=lambda t, th: float(np.log(cond_pmf(a_obs, float(np.atleast_1d(th)[0]))[int(t)])),
            sampler=lambda th, rng, size=None: rng.choice(
                t_vals, size=size, p=cond_pmf(a_obs, float(np.atleast_1d(th)[0]))),
            param_space=((-5.0, 5.0),),
        )
        phi_closed = ClosedFormNormalizer(
            lambda th: float(np.sum(cond_pmf(a_obs, float(np.atleast_1d(th)[0])) * p_ta[a_obs])))
        model = SelectiveModel(fam, sel, normalizer=phi_closed,
                               conditioning="selection-and-ancillary",
                               ancillary=a_obs)

        # implemented identity: f_S(t | a) = p(t, a) f(t | a) / phi(theta; a)
        pmf = cond_pmf(a_obs, theta)
        phi_a = float(np.sum(pmf * p_ta[a_obs]))
        for t in (0, 1, 2):
            expected = math.log(p_ta[a_obs, t] * pmf[t] / phi_a)
            assert selective_log_density(model, t, theta) == pytest.approx(expected, abs=1e-12)

        # generative check: run the actual selection process conditioned on a
        rng = np.random.default_rng(99)
        n = 400_000
        draws = rng.choice(3, size=n, p=pmf)
        accept = rng.random(n) < p_ta[a_obs][draws]
        kept = draws[accept]
        for t in (0, 1, 2):
            emp = float(np.mean(kept == t))
            se = math.sqrt(emp * (1 - emp) / kept.size)
            model_prob = math.exp(selective_log_density(model, t, theta))
            assert abs(emp - model_prob) <= 3.0 * se


class TestValidation:
    def test_deterministic_must_be_indicator(self):
        sel = SelectionFunction("deterministic", lambda y: 0.7)
        with pytest.raises(ValueError):
            sel(1.0)

    def test_probability_bounds_enforced(self):
        sel = SelectionFunction("randomized", lambda y: 1.2)
        with pytest.raises(ValueError):
            sel(0.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SelectionFunction("sometimes", lambda y: 1.0)

    def test_ancillary_conditioning_needs_reduced_prob(self):
        with pytest.raises(ValueError):
            SelectiveModel(scalar_gaussian(), always_selected(),
                           conditioning="selection-and-ancillary")


class TestQuadratureNormalizer:
    """The log-space panel normalizer against closed forms for N(theta, 1)."""

    @settings(deadline=None, max_examples=200)
    @given(st.floats(-5.0, 30.0), st.floats(-12.0, 37.0))
    def test_indicator_phi_relative_accuracy(self, c, depth):
        theta = c - depth
        m = SelectiveModel(scalar_gaussian(), indicator_above(c))
        want = math.exp(log_ndtr(theta - c))
        assert selection_probability(m, theta) == pytest.approx(want, rel=1e-10)

    @settings(deadline=None, max_examples=200)
    @given(st.floats(-5.0, 30.0), st.floats(-12.0, 37.0), st.floats(0.0, 8.0))
    def test_cdf_matches_truncated_gaussian(self, c, depth, above):
        theta = c - depth
        y = c + above
        m = SelectiveModel(scalar_gaussian(), indicator_above(c))
        want = truncated_cdf(y, TruncatedGaussian(theta, 1.0, ((c, math.inf),)))
        assert selective_cdf(m, y, theta) == pytest.approx(want, abs=1e-10)

    # past 37 sigma phi falls below PHI_FLOOR, but the CDF is a ratio taken
    # in log space; raising there made selective_ci read the CDF as 1
    @settings(deadline=None, max_examples=100)
    @given(st.floats(-5.0, 30.0), st.floats(37.0, 130.0), st.floats(0.0, 3.0))
    def test_cdf_past_phi_floor_matches_truncated_gaussian(self, c, depth, above):
        theta, y = c - depth, c + above
        m = SelectiveModel(scalar_gaussian(), indicator_above(c))
        want = truncated_cdf(y, TruncatedGaussian(theta, 1.0, ((c, math.inf),)))
        assert selective_cdf(m, y, theta) == pytest.approx(want, abs=1e-10)

    @settings(deadline=None, max_examples=30)
    @given(st.floats(-2.0, 30.0), st.floats(0.2, 3.0), st.sampled_from([0.8, 0.9, 0.95]))
    def test_ci_matches_truncated_gaussian(self, c, above, level):
        y = c + above
        m = SelectiveModel(scalar_gaussian(), indicator_above(c))

        def tg_cdf(theta):
            return truncated_cdf(y, TruncatedGaussian(theta, 1.0, ((c, math.inf),)))

        want = invert_equal_tailed(tg_cdf, level, y)
        got = selective_ci(m, y, level)
        assert got == pytest.approx(want, abs=1e-7)

    @settings(deadline=None, max_examples=100)
    @given(st.floats(-3.0, 3.0), st.floats(-30.0, 10.0))
    def test_randomized_phi_relative_accuracy(self, t, offset):
        # p(y) = Phi(y - t): E[p(Y)] = Phi((theta - t) / sqrt(2))
        theta = t + offset
        m = SelectiveModel(scalar_gaussian(), randomized_above(t, 1.0))
        want = math.exp(log_ndtr(offset / math.sqrt(2.0)))
        assert selection_probability(m, theta) == pytest.approx(want, rel=1e-10)

    def test_scalar_only_family_uses_fallback(self):
        def log_density(y, theta):
            return float(std_normal_log_pdf(float(y) - float(np.atleast_1d(theta)[0])))

        fam = ParametricFamily(log_density, scalar_gaussian().sampler,
                               integration_window=scalar_gaussian().integration_window)
        m = SelectiveModel(fam, indicator_above(1.0))
        ref = SelectiveModel(scalar_gaussian(), indicator_above(1.0))
        for theta in (-3.0, 0.5, 2.0):
            assert selection_probability(m, theta) == pytest.approx(
                selection_probability(ref, theta), rel=1e-13)
        assert selective_cdf(m, 1.7, 0.5) == pytest.approx(selective_cdf(ref, 1.7, 0.5),
                                                           abs=1e-13)

    def test_scalar_only_selection_uses_fallback(self):
        sel = SelectionFunction("deterministic", lambda y: 1.0 if y > 1.0 else 0.0,
                                breakpoints=(1.0,))
        m = SelectiveModel(scalar_gaussian(), sel)
        ref = SelectiveModel(scalar_gaussian(), indicator_above(1.0))
        for theta in (-3.0, 0.5, 2.0):
            assert selection_probability(m, theta) == pytest.approx(
                selection_probability(ref, theta), rel=1e-13)

    @pytest.mark.parametrize("kind, prob", [
        ("deterministic", lambda y: np.full(np.shape(y), 0.7)),
        ("deterministic", lambda y: 0.7),
        ("randomized", lambda y: np.full(np.shape(y), 1.2)),
        ("randomized", lambda y: np.where(np.asarray(y) > 0.0, np.nan, 0.5)),
    ], ids=["indicator-vector", "indicator-scalar", "range-vector", "nan-vector"])
    def test_invalid_probabilities_raise(self, kind, prob):
        m = SelectiveModel(scalar_gaussian(), SelectionFunction(kind, prob))
        with pytest.raises(ValueError):
            selection_probability(m, 0.0)
        with pytest.raises(ValueError):
            selective_cdf(m, 0.3, 0.0)

    def test_family_without_window_rejected(self):
        m = SelectiveModel(gaussian_iid(3), always_selected())
        with pytest.raises(ValueError, match="integration_window"):
            selection_probability(m, 0.0)
