"""Numerically stable Gaussian and truncated-Gaussian primitives.

All truncated quantities are computed in log space so that truncation
regions deep in the tails (30 sigma and beyond) keep full relative
accuracy. Interval masses are obtained from log survival functions with
expm1-style differencing; the naive difference of two CDF values
underflows past roughly 8 sigma.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
import numpy as np
from scipy.special import erfcx, log_ndtr, ndtr, ndtri, ndtri_exp

__all__ = [
    "EmptyTruncationError",
    "TruncatedGaussian",
    "std_normal_cdf",
    "std_normal_sf",
    "std_normal_log_sf",
    "std_normal_quantile",
    "std_normal_log_pdf",
    "mills_ratio",
    "mills_excess",
    "truncated_cdf",
    "truncated_sf",
    "truncated_logpdf",
    "truncated_quantile",
    "truncated_sample",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_HALF = math.log(0.5)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)


class EmptyTruncationError(ValueError):
    """Truncation region carries no probability mass."""


def std_normal_cdf(x):
    """Standard normal CDF, accurate in both tails."""
    return ndtr(x)


def std_normal_sf(x):
    """Standard normal survival function 1 - Phi(x) with full relative accuracy."""
    return ndtr(-np.asarray(x, dtype=float))


def std_normal_log_sf(x):
    """log(1 - Phi(x)), usable far beyond the underflow point of the SF itself."""
    return log_ndtr(-np.asarray(x, dtype=float))


def std_normal_quantile(q):
    return ndtri(q)


def std_normal_log_pdf(x):
    x = np.asarray(x, dtype=float)
    return -0.5 * x * x - _LOG_SQRT_2PI


def mills_ratio(x: float) -> float:
    """phi(x) / (1 - Phi(x)), the standard normal hazard, at a scalar x.

    It is sqrt(2/pi) / erfcx(x / sqrt(2)), except below -10, where
    1 - Phi(x) rounds to 1 and the hazard is phi(x) itself: erfcx there
    squares the rounded x / sqrt(2) and loses 2e-13 relative by x = -35.
    Relative accuracy is 1e-13 from x = -37 (below about -38.6 the hazard
    underflows to 0) to 1e4 and beyond, where it tends to x.
    """
    if x < -10.0:
        return _INV_SQRT_2PI * math.exp(-0.5 * x * x)
    return float(_SQRT_2_OVER_PI / erfcx(x / _SQRT2))


def mills_excess(s: float) -> float:
    """mills_ratio(s) - s at a scalar s, without the cancellation of that
    difference for large s, where it tends to 1/s.

    Above 8 it is Laplace's continued fraction 1/(s + 2/(s + 3/(s + ...))),
    cut at 20 terms (2e-16 relative there); at or below 8 the difference
    itself, within 2.5e-14 relative.
    """
    if s <= 8.0:
        return mills_ratio(s) - s
    tail = 0.0
    for k in range(21, 1, -1):
        tail = k / (s + tail)
    return 1.0 / (s + tail)


def _log1mexp(t: float) -> float:
    """log(1 - exp(t)) for t <= 0, stable at both ends."""
    if t >= 0.0:
        if t == 0.0:
            return -math.inf
        raise ValueError(f"log1mexp requires t <= 0, got {t}")
    if t < _LOG_HALF:
        return math.log1p(-math.exp(t))
    return math.log(-math.expm1(t))


def _log_interval_mass(a: float, b: float) -> float:
    """log P(a < Z <= b) for standard normal Z, relatively accurate in either
    tail and across 0."""
    if not a < b:
        return -math.inf
    if b <= 0.0:
        # a left-side interval is the mirror image of a right-side one
        return _log_interval_mass(-b, -a)
    if a < 1.0:
        # erf is odd and keeps its relative accuracy near 0, where an ndtr
        # difference of two values near 1/2 does not
        diff = 0.5 * (math.erf(b / _SQRT2) - math.erf(a / _SQRT2))
        out = math.log(diff) if diff > 0.0 else -math.inf
    else:
        la = float(log_ndtr(-a))
        lb = float(log_ndtr(-b)) if b != math.inf else -math.inf
        out = la + _log1mexp(min(lb - la, 0.0))
    if out == -math.inf and math.isfinite(a) and math.isfinite(b):
        # width below CDF resolution: midpoint-density approximation
        mid = 0.5 * (a + b)
        return -0.5 * mid * mid - _LOG_SQRT_2PI + math.log(b - a)
    return out


# Up to this many values a pure-Python loop beats numpy's per-call overhead;
# the truncated-Gaussian interval masses and two-stage prior mixtures sit
# below it, the 200-800-node quadrature vectors far above.
_LSE_LOOP_MAX = 8


def _logsumexp(values) -> float:
    """log(sum(exp(values))) by max-shift: the package's only log-sum-exp.

    -inf for empty or all -inf input, +inf if any value is +inf, NaN if any
    value is NaN.
    """
    if len(values) > _LSE_LOOP_MAX:
        a = np.asarray(values, dtype=float)
        i = a.argmax()
        m = a[i]
        if not math.isfinite(m):
            return float(m)
        # the largest term leaves the sum and comes back through log1p, which
        # keeps its last bits; this reproduces scipy.special.logsumexp exactly
        # when the maximum is unique
        e = np.exp(a - m)
        e[i] = 0.0
        return float(np.log1p(e.sum()) + m)
    vals = [v for v in values if v != -math.inf]
    if not vals:
        return -math.inf
    m = max(vals)
    if m == math.inf:
        return math.nan if any(math.isnan(v) for v in vals) else math.inf
    return m + math.log(sum(math.exp(v - m) for v in vals))


@dataclass(frozen=True, eq=False)
class TruncatedGaussian:
    """Gaussian N(mu, sigma^2) restricted to a union of disjoint intervals.

    Intervals are ordered, non-overlapping and may reach +-inf. Internally
    they are treated as half-open [l, u); the distinction is measure zero.
    """

    mu: float
    sigma: float
    intervals: tuple = ((-math.inf, math.inf),)

    def __post_init__(self):
        mu = float(self.mu)
        sigma = float(self.sigma)
        if not math.isfinite(mu):
            raise ValueError("mu must be finite")
        if not (sigma > 0.0 and math.isfinite(sigma)):
            raise ValueError("sigma must be positive and finite")
        ivs = tuple((float(l), float(u)) for (l, u) in self.intervals)
        if not ivs:
            raise EmptyTruncationError("empty truncation")
        prev_u = -math.inf
        for (l, u) in ivs:
            if math.isnan(l) or math.isnan(u):
                raise ValueError("interval endpoints must not be NaN")
            if not l < u:
                raise ValueError(f"interval ({l}, {u}) is empty")
            if l < prev_u:
                raise ValueError("intervals must be disjoint and ordered")
            prev_u = u
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "intervals", ivs)
        if self.log_total_mass == -math.inf:
            raise EmptyTruncationError("empty truncation")

    @cached_property
    def _std_intervals(self) -> tuple:
        return tuple(
            ((l - self.mu) / self.sigma, (u - self.mu) / self.sigma)
            for (l, u) in self.intervals
        )

    @cached_property
    def _log_masses(self) -> tuple:
        return tuple(_log_interval_mass(a, b) for (a, b) in self._std_intervals)

    @cached_property
    def _mirror(self) -> tuple:
        """The standardized intervals and log masses of -T, in order."""
        return (tuple((-b, -a) for (a, b) in reversed(self._std_intervals)),
                tuple(reversed(self._log_masses)))

    @cached_property
    def log_total_mass(self) -> float:
        """log of the untruncated-probability content of the truncation set."""
        return _logsumexp(self._log_masses)

    @property
    def lower(self) -> float:
        return self.intervals[0][0]

    @property
    def upper(self) -> float:
        return self.intervals[-1][1]

    def contains(self, x: float) -> bool:
        return any(l <= x < u for (l, u) in self.intervals)


def _scan(x: float, tg: TruncatedGaussian, upper: bool) -> float:
    """P(T <= x), or P(T > x) as P(-T < -x) from the mirror when upper."""
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    z = (x - tg.mu) / tg.sigma if math.isfinite(x) else x
    ivs, lms, z = (*tg._mirror, -z) if upper else (tg._std_intervals, tg._log_masses, z)
    parts = []
    for (a, b), lm in zip(ivs, lms):
        if z < b:
            if z > a:
                parts.append(_log_interval_mass(a, z))
            break
        parts.append(lm)
    return min(1.0, math.exp(_logsumexp(parts) - tg.log_total_mass))


def truncated_cdf(x: float, tg: TruncatedGaussian) -> float:
    """P(T <= x | T in truncation set)."""
    return _scan(x, tg, False)


def truncated_sf(x: float, tg: TruncatedGaussian) -> float:
    """P(T > x | T in truncation set), accumulated from the right tail."""
    return _scan(x, tg, True)


def truncated_logpdf(x: float, tg: TruncatedGaussian) -> float:
    x = float(x)
    if not tg.contains(x):
        return -math.inf
    z = (x - tg.mu) / tg.sigma
    return float(std_normal_log_pdf(z)) - math.log(tg.sigma) - tg.log_total_mass


def _quantile_within(a: float, b: float, log_mass_in: float) -> float:
    """Standardized z in (a, b) with P(a < Z <= z) = exp(log_mass_in)."""
    log_cdf_a = float(log_ndtr(a)) if a != -math.inf else -math.inf
    log_cdf_z = float(np.logaddexp(log_cdf_a, log_mass_in))
    if log_cdf_z <= _LOG_HALF:
        z = float(ndtri_exp(log_cdf_z))
    else:
        log_sf_a = float(log_ndtr(-a)) if a != -math.inf else 0.0
        log_sf_z = log_sf_a + _log1mexp(min(log_mass_in - log_sf_a, 0.0))
        z = -float(ndtri_exp(log_sf_z))
    return min(max(z, a), b)


def truncated_quantile(q: float, tg: TruncatedGaussian) -> float:
    """Monotone inverse of truncated_cdf; round trips to about 1e-14."""
    q = float(q)
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    if q <= 0.5:
        z = _quantile_scan(tg._std_intervals, tg._log_masses, math.log(q) + tg.log_total_mass)
    else:
        # work from the right on the mirror for precision near 1
        z = -_quantile_scan(*tg._mirror, math.log1p(-q) + tg.log_total_mass)
    return tg.mu + tg.sigma * z


def _quantile_scan(std_intervals, log_masses, log_target: float) -> float:
    log_cum = -math.inf
    for (a, b), lm in zip(std_intervals, log_masses):
        log_cum_next = _logsumexp((log_cum, lm))
        if log_cum_next >= log_target:
            if log_cum == -math.inf:
                log_in = log_target
            else:
                log_in = log_target + _log1mexp(min(log_cum - log_target, 0.0))
            return _quantile_within(a, b, log_in)
        log_cum = log_cum_next
    # roundoff pushed the target past the last cumulative value
    return std_intervals[-1][1]


def _sample_tail_rejection(a: float, n: int, rng: np.random.Generator,
                           b: float = math.inf) -> np.ndarray:
    """Standardized draws from Z | Z in [a, b) for a >= 0 via a shifted
    exponential proposal (Robert 1995); efficient arbitrarily far out."""
    lam = 0.5 * (a + math.sqrt(a * a + 4.0))
    out = np.empty(n)
    filled = 0
    while filled < n:
        k = max(n - filled, 64)
        z = a + rng.exponential(1.0 / lam, size=k)
        accept = (rng.random(k) <= np.exp(-0.5 * (z - lam) ** 2)) & (z < b)
        good = z[accept]
        take = min(good.size, n - filled)
        out[filled:filled + take] = good[:take]
        filled += take
    return out


_TAIL_REJECTION_CUTOFF = 6.0


def truncated_sample(tg: TruncatedGaussian, rng: np.random.Generator, size=None):
    """Draw from the truncated Gaussian.

    Inverse-CDF by default; single-tail truncations past 6 sigma use
    rejection from a shifted exponential, where inverse-CDF precision in
    the uniform input is the binding constraint.
    """
    n = 1 if size is None else int(size)
    # a left tail is drawn as the negated draws of its mirror's right tail
    for sign, ivs in ((1.0, tg._std_intervals), (-1.0, tg._mirror[0])):
        a, b = ivs[0]
        if len(ivs) == 1 and a >= _TAIL_REJECTION_CUTOFF:
            out = tg.mu + tg.sigma * (sign * _sample_tail_rejection(a, n, rng, b))
            break
    else:
        out = np.array([truncated_quantile(ui, tg) for ui in rng.random(n)])
    return float(out[0]) if size is None else out
