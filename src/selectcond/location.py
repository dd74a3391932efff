"""Conditional inference in one-dimensional location families.

The data reduce to (theta_hat, configuration), where the configuration
is the residual vector. Given the configuration, the location MLE has a
one-dimensional density proportional to prod g(t + a_i - theta). A unit
is selected when the one-sided p-value u(t, a) for theta = 0 falls below
a level alpha; inference then uses the conditional density truncated to
the selection region.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtri

from ._quad import gl_nodes, log_integral_gl, log_integral_panels
from .distributions import std_normal_log_pdf
from .results import InferenceResult
from .selective import equal_tailed_inference, solve_monotone

__all__ = [
    "LocationFamily",
    "Configuration",
    "FAMILIES",
    "get_family",
    "register_family",
    "decompose",
    "conditional_density_constant",
    "location_pvalue",
    "selective_location_inference",
]


@dataclass(frozen=True)
class LocationFamily:
    """Location family f(y; theta) = g(y - theta) with log-concave g.

    dlog_g is the derivative of log_g, at a kink the mean of its one-sided
    values. scale is the standard deviation of g, used only to size
    quadrature windows and solver brackets. sampler(rng, size) draws from g.
    kinks lists the points where log_g is not smooth; quadrature panels break
    there, and log_g must be linear between them, so the selective MLE lies
    at a kink.
    """

    name: str
    log_g: Callable[[np.ndarray], np.ndarray]
    dlog_g: Callable[[np.ndarray], np.ndarray]
    scale: float
    sampler: Callable[[np.random.Generator, int], np.ndarray]
    kinks: tuple = ()


def _laplace_log_g(x):
    x = np.asarray(x, dtype=float)
    return -np.abs(x) - math.log(2.0)


def _logistic_log_g(x):
    x = np.asarray(x, dtype=float)
    return -x - 2.0 * np.logaddexp(0.0, -x)


FAMILIES = {}
_MASS_TOL = 1e-8  # how far from one a registered density's integral may be


def register_family(family: LocationFamily) -> LocationFamily:
    """Register a family after checking that exp(log_g) integrates to one."""
    total, _ = quad(lambda x: math.exp(float(family.log_g(x))),
                    -40.0 * family.scale, 40.0 * family.scale,
                    epsabs=1e-12, epsrel=1e-12, limit=200)
    if abs(total - 1.0) > _MASS_TOL:
        raise ValueError(f"density of {family.name!r} integrates to {total}, not 1")
    FAMILIES[family.name] = family
    return family


register_family(LocationFamily(
    "gaussian", std_normal_log_pdf, np.negative, 1.0,
    lambda rng, size: rng.standard_normal(size),
))
register_family(LocationFamily(
    "laplace", _laplace_log_g, lambda x: -np.sign(x), math.sqrt(2.0),
    lambda rng, size: rng.laplace(0.0, 1.0, size),
    kinks=(0.0,),
))
register_family(LocationFamily(
    "logistic", _logistic_log_g, lambda x: -np.tanh(x / 2),
    math.pi / math.sqrt(3.0), lambda rng, size: rng.logistic(0.0, 1.0, size),
))


def get_family(name: str) -> LocationFamily:
    try:
        return FAMILIES[name]
    except KeyError:
        raise KeyError(f"unknown location family {name!r}; registered: {sorted(FAMILIES)}")


@dataclass(frozen=True, eq=False)
class Configuration:
    """Residual vector a = y - theta_hat and the location MLE theta_hat."""

    residuals: np.ndarray
    theta_hat: float

    def __post_init__(self):
        a = np.asarray(self.residuals, dtype=float).copy()
        a.setflags(write=False)
        object.__setattr__(self, "residuals", a)

    @property
    def n(self) -> int:
        return int(self.residuals.size)


def _profile_loglik(shift, residuals: np.ndarray, fam: LocationFamily):
    """sum log g(a_i + shift), elementwise over an array of shifts."""
    return fam.log_g(np.asarray(shift)[..., None] + residuals).sum(axis=-1)


def _score(y: np.ndarray, fam: LocationFamily) -> Callable[[float], float]:
    """theta -> d/dtheta sum log g(y_i - theta), that is -sum dlog_g(y_i - theta)."""
    return lambda theta: -float(np.sum(fam.dlog_g(y - theta)))


def decompose(y, fam: LocationFamily) -> Configuration:
    """Split y into its location MLE and configuration.

    log g is concave, so the exact score decreases and the MLE is its root,
    bracketed from the median with step scale/sqrt(n). The laplace score is
    exactly 0 there, so its MLE is the median: for even n the midpoint.
    """
    y = np.asarray(y, dtype=float)
    if y.size < 1 or not np.all(np.isfinite(y)):
        raise ValueError("observations must be finite and nonempty")
    theta_hat = solve_monotone(_score(y, fam), float(np.median(y)), fam.scale / math.sqrt(y.size),
                               float(np.abs(y).max()) + 2.0 * fam.scale, 1e-13, 1e-15)
    if math.isinf(theta_hat):
        raise RuntimeError(f"location MLE beyond the data, toward {theta_hat}")

    a = y - theta_hat
    # theta_hat must be a local maximum: both one-sided slopes
    # non-positive, which holds at a kink of log g too
    hv = 1e-4 * fam.scale
    mid = _profile_loglik(0.0, a, fam)
    slope = max(_profile_loglik(hv, a, fam) - mid, _profile_loglik(-hv, a, fam) - mid) / hv
    if slope > 1e-8 * max(1.0, float(y.size)):
        raise ValueError(f"residuals are not a configuration: slope {slope:.2e}")
    return Configuration(a, theta_hat)


def _log_tail_mass(x: float, residuals: np.ndarray, fam: LocationFamily) -> float:
    """log integral_x^inf of prod g(u + a_i) du.

    The integrand peaks near u = 0 with width about scale/sqrt(n) and
    decays at least exponentially; panels cluster around both the peak
    and the lower limit.
    """
    a = residuals
    n = a.size
    s = fam.scale
    w = s / math.sqrt(n)
    lo = max(x, -40.0 * s)
    hi = max(lo + 45.0 * w, 20.0 * s)
    pts = {lo, hi}
    pts.update(k * w for k in (-16, -8, -4, -2, -1, 0, 1, 2, 4, 8, 16))
    pts.update(k * s for k in (-8, -4, -2, 2, 4, 8, 14))
    pts.update(lo + k * w for k in (0.5, 1.0, 2.0, 4.0))
    for k0 in fam.kinks:
        pts.update(float(k0) - a)
    breaks = sorted(p for p in pts if lo <= p <= hi)
    return log_integral_panels(lambda u: _profile_loglik(u, a, fam), breaks, nodes=32)


def _log_total_mass(residuals: np.ndarray, fam: LocationFamily) -> float:
    return _log_tail_mass(-math.inf, residuals, fam)


def _tail_table(residuals: np.ndarray, fam: LocationFamily) -> Callable[[float], float]:
    """x -> _log_tail_mass(x, residuals, fam), from one table of panels cumulated
    from the right: edges at -40, -8, -4, -2 scale, the kinks of log g and a
    grid of step w = scale/sqrt(n) from -16 w to 20 scale + 45 w. A read adds
    one panel from x to the next edge; past 20 scale it is _log_tail_mass.
    """
    s = fam.scale
    w = s / math.sqrt(residuals.size)
    top = 20.0 * s + 45.0 * w
    grid = w * np.arange(-16.0, math.ceil(top / w))
    edges = np.concatenate([[-40.0 * s, -8.0 * s, -4.0 * s, -2.0 * s, top], grid]
                           + [float(k0) - residuals for k0 in fam.kinks])
    edges = np.unique(edges[(edges >= -40.0 * s) & (edges <= top)])
    u, logw = gl_nodes(edges[:-1], edges[1:], 32)
    masses = np.logaddexp.reduce(_profile_loglik(u, residuals, fam) + logw, axis=1)
    cum = np.append(np.logaddexp.accumulate(masses[::-1])[::-1], -math.inf).tolist()
    edges = edges.tolist()

    def log_tail(x: float) -> float:
        if x <= edges[0]:
            return cum[0]
        if x > 20.0 * s:
            return _log_tail_mass(x, residuals, fam)
        j = bisect.bisect_left(edges, x)
        if edges[j] == x:
            return cum[j]
        return float(np.logaddexp(cum[j], log_integral_gl(
            lambda u: _profile_loglik(u, residuals, fam), x, edges[j], nodes=32)))

    return log_tail


def conditional_density_constant(theta: float, conf: Configuration,
                                 fam: LocationFamily) -> float:
    """Normalizing constant c(theta, a) of the conditional MLE density.

    A location shift of the integration variable removes theta, so the
    value is the same for every theta; the argument is kept for the
    record.
    """
    del theta
    return math.exp(-_log_total_mass(conf.residuals, fam))


def location_pvalue(conf: Configuration, fam: LocationFamily,
                    null_value: float = 0.0) -> float:
    """One-sided p-value u(t, a) for theta = null_value given the configuration."""
    return min(1.0, math.exp(_log_tail_mass(conf.theta_hat - null_value, conf.residuals, fam)
                             - _log_total_mass(conf.residuals, fam)))


def _selection_cutoff(alpha: float, log_tail: Callable[[float], float],
                      fam: LocationFamily, n: int) -> float:
    """The t above which u(t, a) <= alpha under a zero null: one quantile
    solve per dataset; other null values shift the cutoff exactly."""
    log_target = math.log(alpha) + log_tail(-math.inf)

    def h(t):
        return log_tail(t) - log_target

    guess = fam.scale * float(ndtri(1.0 - alpha)) / math.sqrt(n)
    cutoff = solve_monotone(h, guess, fam.scale, 50.0 * fam.scale, 1e-12, 1e-15)
    if math.isinf(cutoff):
        raise RuntimeError(f"selection cutoff beyond |t| = 50 scale, toward {cutoff}")
    return cutoff


def selective_location_inference(conf: Configuration, fam: LocationFamily,
                                 selection_alpha: float,
                                 ci_level: float = 0.9,
                                 null_value: float = 0.0) -> InferenceResult:
    """Conditional inference for the location given selection u(T, a) <= alpha.

    The selection region in t is (t_alpha, inf) by monotonicity of u in
    t; inference inverts the conditional CDF of T given the configuration
    truncated to that region. null_value is the location tested by the
    screening p-value.
    """
    if not 0.0 < selection_alpha <= 1.0:
        raise ValueError("selection_alpha must be in (0, 1]")
    a = conf.residuals
    t = conf.theta_hat
    log_tail = _tail_table(a, fam)
    log_total = log_tail(-math.inf)

    # location_pvalue decides: the table's last bits may differ from it
    if (math.exp(log_tail(t - null_value) - log_total) > selection_alpha
            and location_pvalue(conf, fam, null_value) > selection_alpha):
        raise ValueError("datum inconsistent with selection event: u > alpha")
    if selection_alpha == 1.0:
        t_alpha = -math.inf
    else:
        t_alpha = null_value + _selection_cutoff(selection_alpha, log_tail, fam, conf.n)

    def log_den(theta):
        return log_tail(t_alpha - theta) if t_alpha != -math.inf else log_total

    def tail(theta, upper):
        log_sf = min(log_tail(t - theta) - log_den(theta), 0.0)
        return math.exp(log_sf) if upper else -math.expm1(log_sf)

    diagnostics = {"selection_cutoff": t_alpha, "selection_alpha": selection_alpha}
    estimate = -math.inf
    if t_alpha == -math.inf or t - t_alpha > 1e-12 * max(1.0, abs(t_alpha)):
        # the best candidate in the box [t - 30 scale, t + 10 scale]: with kinks,
        # log g is linear between them and the likelihood convex between
        # observations, so any root is a minimum or a jump at an observation and
        # the candidates are the kinks; else the root of the exact score, the
        # density term plus L'(t_alpha - theta) = -exp(log f - L). The gaussian
        # likelihood is concave, and no logistic sample has shown a second maximum
        density = _score(a + t, fam)
        lo, hi = t - 30.0 * fam.scale, t + 10.0 * fam.scale

        def score(theta):
            x = t_alpha - theta
            cut = 0.0 if x == -math.inf else math.exp(_profile_loglik(x, a, fam) - log_tail(x))
            return density(theta) - cut

        def loglik(theta):
            return float(_profile_loglik(t - theta, a, fam)) - log_den(theta)

        candidates = [float(x) for k0 in fam.kinks for x in t + a - k0] or [solve_monotone(
            score, t, fam.scale / math.sqrt(conf.n), abs(t) + 30.0 * fam.scale, 1e-13, 1e-15)]
        left = loglik(lo)
        best, best_ll = max(((x, loglik(x)) for x in candidates if lo <= x <= hi),
                            key=lambda c: c[1], default=(lo, left))
        # a likelihood that only levels off toward -inf is divergent
        if best_ll - left > 1e-8 * max(1.0, abs(best_ll)):
            estimate = best
    if estimate == -math.inf:
        diagnostics["flags"] = ["divergent-mle"]

    return equal_tailed_inference(tail, ci_level, t, fam.scale / math.sqrt(conf.n), estimate,
                                  f"location-{fam.name}", diagnostics, null_value)
