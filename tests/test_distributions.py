"""Tests for the Gaussian and truncated-Gaussian primitives.

Expected values are computed from independent oracles: direct quadrature
of the normal density, an asymptotic Mills-ratio series for deep tails,
bisection of the plain CDF ratio, and seeded rejection sampling.
"""
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.special import logsumexp as scipy_logsumexp

from selectcond.distributions import (
    _LSE_LOOP_MAX,
    _log_interval_mass,
    _logsumexp,
    EmptyTruncationError,
    TruncatedGaussian,
    mills_excess,
    mills_ratio,
    std_normal_cdf,
    std_normal_log_sf,
    std_normal_sf,
    truncated_cdf,
    truncated_quantile,
    truncated_sample,
    truncated_sf,
)

INF = math.inf

# Phi(1.96) from quadrature of exp(-t^2/2)/sqrt(2 pi) over (-60, 1.96)
PHI_196 = 0.9750021048517796


def oracle_sf(x: float) -> float:
    """Survival function by quadrature (moderate x) or the Mills series (deep)."""
    if x < 12.0:
        with warnings.catch_warnings():
            # pure-relative tolerance trips quad's roundoff notice
            warnings.simplefilter("ignore", IntegrationWarning)
            val, _ = quad(lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi),
                          x, x + 45.0, epsabs=1e-300, epsrel=1e-14, limit=400)
        return val
    # phi(x)/x * sum_k (-1)^k (2k-1)!! / x^(2k); alternating, terms shrink
    # monotonically out to k ~ x^2/2, so truncation error < first omitted term
    term, total = 1.0, 1.0
    for k in range(1, 15):
        term *= -(2 * k - 1) / (x * x)
        total += term
    return math.exp(-0.5 * x * x) / (x * math.sqrt(2 * math.pi)) * total


class TestStdNormal:
    def test_symmetry_point(self):
        assert std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-16)

    def test_limits(self):
        assert std_normal_cdf(INF) == 1.0
        assert std_normal_cdf(-INF) == 0.0

    def test_value_196_vs_quadrature_oracle(self):
        assert std_normal_cdf(1.96) == pytest.approx(PHI_196, abs=1e-14)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0, 8.0, 12.0, 20.0, 30.0, 37.0])
    def test_survival_relative_error(self, x):
        expected = oracle_sf(x)
        assert std_normal_sf(x) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("x", [40.0, 100.0, 300.0])
    def test_log_survival_deep_tails(self, x):
        # log sf(x) ~ -x^2/2 - log(x sqrt(2 pi)) + log(series)
        approx = -0.5 * x * x - math.log(x * math.sqrt(2 * math.pi))
        assert std_normal_log_sf(x) == pytest.approx(approx, rel=1e-4)
        assert math.isfinite(std_normal_log_sf(x))


def mpmath_hazard(x: float) -> float:
    """phi(x) / (1 - Phi(x)) at 50 digits."""
    with mpmath.workdps(50):
        xm = mpmath.mpf(x)
        return float(mpmath.npdf(xm) / mpmath.ncdf(-xm))


class TestMillsRatio:
    @settings(deadline=None, max_examples=300)
    @given(st.floats(-37.0, 1e4))
    def test_against_mpmath(self, x):
        assert mills_ratio(x) == pytest.approx(mpmath_hazard(x), rel=1e-13, abs=0.0)

    def test_left_tail_grid(self):
        # where erfcx of a rounded x / sqrt(2) would lose 2e-13
        for x in np.linspace(-37.0, 0.0, 371):
            assert mills_ratio(x) == pytest.approx(mpmath_hazard(x), rel=1e-13, abs=0.0)

    def test_limits(self):
        assert mills_ratio(-40.0) == 0.0
        assert mills_ratio(0.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-15)
        assert mills_ratio(1e8) == pytest.approx(1e8, rel=1e-15)


def mpmath_excess(s: float) -> float:
    """phi(s) / (1 - Phi(s)) - s at 50 digits."""
    with mpmath.workdps(50):
        sm = mpmath.mpf(s)
        return float(mpmath.npdf(sm) / mpmath.ncdf(-sm) - sm)


class TestMillsExcess:
    @settings(deadline=None, max_examples=300)
    @given(st.floats(-37.0, 1e4))
    def test_against_mpmath(self, s):
        assert mills_excess(s) == pytest.approx(mpmath_excess(s), rel=1e-13, abs=0.0)

    def test_across_the_continued_fraction_switch(self):
        for s in np.linspace(6.0, 12.0, 241):
            assert mills_excess(s) == pytest.approx(mpmath_excess(s), rel=1e-13, abs=0.0)

    def test_tends_to_reciprocal(self):
        # mills_ratio(1e8) - 1e8 is 0 in floating point; the excess is 1/s
        assert mills_excess(1e8) == pytest.approx(1e-8, rel=1e-15)


class TestTruncatedGaussianValidation:
    def test_rejects_empty_interval_list(self):
        with pytest.raises(EmptyTruncationError):
            TruncatedGaussian(0.0, 1.0, ())

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            TruncatedGaussian(0.0, 1.0, [(1.0, 1.0)])

    def test_rejects_overlapping_intervals(self):
        with pytest.raises(ValueError):
            TruncatedGaussian(0.0, 1.0, [(0.0, 2.0), (1.0, 3.0)])

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            TruncatedGaussian(0.0, -1.0, [(0.0, 1.0)])


class TestTruncatedCdf:
    def test_zero_at_lower_endpoint(self):
        tg = TruncatedGaussian(0.0, 1.0, [(-1.0, 2.0)])
        assert truncated_cdf(-1.0, tg) == 0.0

    def test_no_truncation_matches_std_cdf(self):
        tg = TruncatedGaussian(0.7, 2.0)
        for x in [-3.0, -0.5, 0.7, 1.4, 6.0]:
            assert truncated_cdf(x, tg) == pytest.approx(
                float(std_normal_cdf((x - 0.7) / 2.0)), abs=1e-14)

    def test_half_normal_median_vs_rejection_oracle(self):
        # oracle: 1e7 standard normals, keep the nonnegative ones
        rng = np.random.default_rng(915253)
        draws = rng.standard_normal(10_000_000)
        draws = draws[draws >= 0.0]
        x = 0.6745
        emp = float(np.mean(draws <= x))
        se = math.sqrt(emp * (1 - emp) / draws.size)
        tg = TruncatedGaussian(0.0, 1.0, [(0.0, INF)])
        assert abs(truncated_cdf(x, tg) - emp) <= 3.0 * se

    def test_normalization_at_sup(self):
        tg = TruncatedGaussian(0.3, 1.2, [(-2.0, -0.5), (0.5, 1.0), (3.0, INF)])
        assert truncated_cdf(INF, tg) == pytest.approx(1.0, abs=1e-12)
        assert truncated_cdf(tg.upper, tg) == pytest.approx(1.0, abs=1e-12)

    def test_sf_complements_cdf(self):
        tg = TruncatedGaussian(0.0, 1.0, [(-2.0, -1.0), (1.0, 3.0)])
        for x in [-1.5, -1.0, 1.2, 2.5]:
            assert truncated_cdf(x, tg) + truncated_sf(x, tg) == pytest.approx(1.0, abs=1e-12)

    def test_tail_stability_30_31(self):
        tg = TruncatedGaussian(0.0, 1.0, [(30.0, 31.0)])
        xs = np.linspace(30.0, 31.0, 101)
        vals = [truncated_cdf(x, tg) for x in xs]
        assert all(0.0 <= v <= 1.0 and math.isfinite(v) for v in vals)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[0] == 0.0
        assert vals[-1] == pytest.approx(1.0, abs=1e-12)


BISECTED_MEDIAN_2INF = 2.2776048388094585


def bisect_oracle_quantile(q, lo, hi, cdf, iters=200):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestTruncatedQuantile:
    def test_symmetric_median_is_zero(self):
        tg = TruncatedGaussian(0.0, 1.0, [(-1.7, 1.7)])
        assert truncated_quantile(0.5, tg) == pytest.approx(0.0, abs=1e-12)

    def test_median_2_inf_vs_bisection_oracle(self):
        # oracle bisects the plain ndtr ratio, independent of the log-space path
        def plain_cdf(x):
            return (std_normal_cdf(x) - std_normal_cdf(2.0)) / std_normal_sf(2.0)

        oracle = bisect_oracle_quantile(0.5, 2.0, 10.0, plain_cdf)
        assert oracle == pytest.approx(BISECTED_MEDIAN_2INF, abs=1e-12)
        tg = TruncatedGaussian(0.0, 1.0, [(2.0, INF)])
        assert truncated_quantile(0.5, tg) == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("intervals", [
        [(-INF, INF)],
        [(0.0, INF)],
        [(-INF, -2.0)],
        [(2.0, INF)],
        [(30.0, 31.0)],
        [(-3.0, -1.0), (0.5, 2.0)],
        [(-1.0, -0.5), (0.0, 0.25), (4.0, INF)],
    ])
    def test_round_trip(self, intervals):
        tg = TruncatedGaussian(0.4, 1.3, intervals)
        for q in [1e-8, 1e-6, 1e-3, 0.25, 0.5, 0.75, 1 - 1e-3, 1 - 1e-6, 1 - 1e-8]:
            x = truncated_quantile(q, tg)
            assert abs(truncated_cdf(x, tg) - q) <= 1e-10

    def test_rejects_bad_q(self):
        tg = TruncatedGaussian(0.0, 1.0)
        for q in [0.0, 1.0, -0.1, 1.1]:
            with pytest.raises(ValueError):
                truncated_quantile(q, tg)


class TestTruncatedSample:
    def test_support_far_tail(self):
        tg = TruncatedGaussian(0.0, 1.0, [(5.0, INF)])
        rng = np.random.default_rng(7)
        draws = truncated_sample(tg, rng, 20_000)
        assert np.all(draws >= 5.0)

    def test_half_normal_mean(self):
        # E |Z| = sqrt(2/pi)
        expected = math.sqrt(2.0 / math.pi)
        sd = math.sqrt(1.0 - 2.0 / math.pi)
        tg = TruncatedGaussian(0.0, 1.0, [(0.0, INF)])
        rng = np.random.default_rng(11)
        draws = truncated_sample(tg, rng, 1_000_000)
        se = sd / math.sqrt(draws.size)
        assert abs(draws.mean() - expected) <= 3.0 * se

    def test_two_interval_masses(self):
        ivs = [(-2.0, -0.5), (1.0, 2.5)]
        tg = TruncatedGaussian(0.0, 1.0, ivs)
        m1 = float(std_normal_cdf(-0.5) - std_normal_cdf(-2.0))
        m2 = float(std_normal_cdf(2.5) - std_normal_cdf(1.0))
        p1 = m1 / (m1 + m2)
        rng = np.random.default_rng(13)
        draws = truncated_sample(tg, rng, 200_000)
        emp = float(np.mean(draws < 0.0))
        se = math.sqrt(p1 * (1 - p1) / draws.size)
        assert abs(emp - p1) <= 3.0 * se

    def test_kolmogorov_distance(self):
        tg = TruncatedGaussian(0.5, 1.5, [(-1.0, 0.0), (1.0, INF)])
        rng = np.random.default_rng(17)
        draws = np.sort(truncated_sample(tg, rng, 100_000))
        grid = np.arange(1, draws.size + 1) / draws.size
        cdf_vals = np.array([truncated_cdf(x, tg) for x in draws[::97]])
        grid_sub = grid[::97]
        assert np.max(np.abs(cdf_vals - grid_sub)) < 0.01


@st.composite
def truncated_gaussians(draw):
    mu = draw(st.floats(-5.0, 5.0))
    sigma = draw(st.floats(0.1, 3.0))
    k = draw(st.integers(1, 3))
    pts = draw(st.lists(st.floats(-8.0, 8.0), min_size=2 * k, max_size=2 * k,
                        unique=True))
    pts = sorted(pts)
    intervals = [(pts[2 * i], pts[2 * i + 1]) for i in range(k)]
    if any(u - l < 1e-3 for l, u in intervals):
        intervals = [(l, l + max(u - l, 1e-3)) for l, u in intervals]
        flat = []
        for l, u in intervals:
            if flat and l <= flat[-1][1]:
                l = flat[-1][1] + 1e-3
                u = max(u, l + 1e-3)
            flat.append((l, u))
        intervals = flat
    return TruncatedGaussian(mu, sigma, intervals)


class TestProperties:
    @settings(deadline=None, max_examples=60)
    @given(truncated_gaussians(), st.lists(st.floats(-10.0, 10.0), min_size=2,
                                           max_size=8))
    def test_cdf_monotone(self, tg, xs):
        xs = sorted(xs)
        vals = [truncated_cdf(x, tg) for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    @settings(deadline=None, max_examples=60)
    @given(truncated_gaussians(), st.floats(1e-6, 1.0 - 1e-6))
    def test_quantile_round_trip(self, tg, q):
        x = truncated_quantile(q, tg)
        assert abs(truncated_cdf(x, tg) - q) <= 1e-10

    @settings(deadline=None, max_examples=40)
    @given(truncated_gaussians())
    def test_sample_in_support(self, tg):
        rng = np.random.default_rng(5)
        draws = truncated_sample(tg, rng, 50)
        for d in draws:
            assert any(l <= d <= u for l, u in tg.intervals)


# lengths on both sides of the loop/numpy switch, plus the quadrature size
LSE_LENGTHS = sorted({0, 1, 2, 3, _LSE_LOOP_MAX - 1, _LSE_LOOP_MAX,
                      _LSE_LOOP_MAX + 1, 800})
EPS = np.finfo(float).eps


@st.composite
def lse_inputs(draw, special=st.nothing()):
    """A tuple, list or ndarray of floats, some -inf, maybe some `special`."""
    n = draw(st.one_of(st.sampled_from(LSE_LENGTHS), st.integers(0, 40)))
    finite = st.one_of(st.floats(-800.0, 800.0), st.floats(-1e300, 1e300))
    elements = st.one_of(finite, finite, finite, st.just(-INF), special)
    vals = draw(st.lists(elements, min_size=n, max_size=n))
    container = draw(st.sampled_from((tuple, list, np.array)))
    return container(vals)


class TestLogSumExp:
    """_logsumexp against scipy.special.logsumexp, the reference."""

    @settings(deadline=None, max_examples=300)
    @given(lse_inputs())
    def test_matches_scipy(self, values):
        got = _logsumexp(values)
        ref = float(scipy_logsumexp(np.asarray(values, dtype=float)))
        if ref == -INF:
            assert got == -INF
        else:
            # summing n shifted terms loses up to ~n ulps of the log
            tol = 4.0 * EPS * (len(values) + abs(ref))
            assert abs(got - ref) <= tol

    @settings(deadline=None, max_examples=100)
    @given(lse_inputs(special=st.sampled_from((INF, math.nan))))
    def test_inf_and_nan_match_scipy(self, values):
        got = _logsumexp(values)
        ref = float(scipy_logsumexp(np.asarray(values, dtype=float)))
        if math.isnan(ref):
            assert math.isnan(got)
        elif math.isinf(ref):
            assert got == ref
        else:
            assert abs(got - ref) <= 4.0 * EPS * (len(values) + abs(ref))

    @pytest.mark.parametrize("n", LSE_LENGTHS)
    def test_edge_cases_at_every_length(self, n):
        assert _logsumexp([-INF] * n) == -INF
        if n == 0:
            return
        rng = np.random.default_rng(n)
        base = rng.normal(size=n) * 10.0
        for pos in {0, n - 1}:
            for special, want in ((INF, INF), (math.nan, math.nan)):
                vals = base.copy()
                vals[pos] = special
                for container in (tuple, np.array):
                    got = _logsumexp(container(vals.tolist()))
                    if math.isnan(want):
                        assert math.isnan(got)
                    else:
                        assert got == want
        both = base.copy()
        both[0], both[-1] = INF, math.nan
        assert math.isnan(_logsumexp(tuple(both.tolist())))
        assert math.isnan(_logsumexp(both))
        assert _logsumexp(np.full(n, 3.0)) == pytest.approx(3.0 + math.log(n),
                                                             rel=4 * n * EPS)


def mirror(tg: TruncatedGaussian) -> TruncatedGaussian:
    """The law of -T."""
    return TruncatedGaussian(-tg.mu, tg.sigma, [(-u, -l) for l, u in reversed(tg.intervals)])


class TestMirror:
    """Right-side quantities are left-side ones of the mirror image -T."""

    @settings(deadline=None, max_examples=200)
    @given(st.floats(0.0, 40.0), st.floats(0.0, 40.0) | st.just(INF),
           st.floats(1e-17, 1e-8))
    def test_interval_mass_is_symmetric(self, a, b, tiny):
        # same-sign intervals, including widths below CDF resolution
        for lo, hi in ((min(a, b), max(a, b)), (a, a + tiny)):
            assert _log_interval_mass(lo, hi) == _log_interval_mass(-hi, -lo)

    @pytest.mark.parametrize("mu, sigma, lo, hi", [
        (0.0, 1.0, -INF, -6.0), (1.5, 2.0, -INF, -40.0),
        (-3.0, 0.5, -7.0, -6.5), (0.0, 1.0, -31.0, -30.0),
    ])
    def test_left_tail_draws_negate_the_mirror(self, mu, sigma, lo, hi):
        tg = TruncatedGaussian(mu, sigma, [(mu + sigma * lo, mu + sigma * hi)])
        draws = truncated_sample(tg, np.random.default_rng(9), 500)
        assert np.array_equal(draws, -truncated_sample(mirror(tg), np.random.default_rng(9), 500))
        assert truncated_sample(tg, np.random.default_rng(3)) == -truncated_sample(
            mirror(tg), np.random.default_rng(3))

    @settings(deadline=None, max_examples=100)
    @given(truncated_gaussians(), st.floats(-10.0, 10.0))
    def test_sf_is_the_mirror_cdf(self, tg, x):
        # a piece across mu is a difference of two ndtr values near 1/2, exact to
        # about eps absolute whichever way round, so relative only if it is wide
        across = any(l < tg.mu < u for l, u in tg.intervals)
        slack = 8.0 * EPS * math.exp(-tg.log_total_mass) if across else 0.0
        assert truncated_sf(x, tg) == pytest.approx(truncated_cdf(-x, mirror(tg)),
                                                    rel=1e-14, abs=slack)


def mpmath_interval_mass(a: float, b: float):
    """P(a < Z <= b) from erfc at the working precision (120 digits here),
    with a left-side interval mirrored to the right, where erfc keeps its
    relative accuracy: 1 - ncdf cancels at 50 digits once a tail reaches
    1e-50, and erfc near 2 as well."""
    if b <= 0.0:
        a, b = -b, -a
    root2 = mpmath.sqrt(2)
    return (mpmath.erfc(mpmath.mpf(a) / root2) - mpmath.erfc(mpmath.mpf(b) / root2)) / 2


class TestNarrowAroundMean:
    """A truncation to one interval around mu: its mass is a difference of two
    CDF values near 1/2 unless formed from erf, odd and relatively accurate
    near 0. An ndtr difference read truncated_cdf(w/2) as 0.7500870 for
    (-w, w) at w = 1e-12."""

    @settings(deadline=None, max_examples=300)
    @given(st.floats(-5.0, 5.0), st.floats(0.1, 10.0), st.floats(-12.0, 1.5),
           st.floats(0.0, 1.0), st.floats(0.01, 0.99))
    @example(0.0, 1.0, math.log10(2e-12), 0.5, 0.75)
    @example(0.0, 1.0, math.log10(2e-12), 0.5, 0.25)
    def test_cdf_and_sf_against_mpmath(self, mu, sigma, log10_width, left, inside):
        width = sigma * 10.0 ** log10_width
        lo = mu - left * width
        hi = lo + width
        x = lo + inside * width
        assume(lo < mu < hi and lo < x < hi)
        tg = TruncatedGaussian(mu, sigma, [(lo, hi)])
        # the standardized doubles the code works with
        a, b, z = ((v - mu) / sigma for v in (lo, hi, x))
        with mpmath.workdps(120):
            mass = mpmath_interval_mass(a, b)
            cdf = float(mpmath_interval_mass(a, z) / mass)
            sf = float(mpmath_interval_mass(z, b) / mass)
        assert truncated_cdf(x, tg) == pytest.approx(cdf, rel=1e-12, abs=0.0)
        assert truncated_sf(x, tg) == pytest.approx(sf, rel=1e-12, abs=0.0)
