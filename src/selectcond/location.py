"""Conditional inference in one-dimensional location families.

The data reduce to (theta_hat, configuration), where the configuration
is the residual vector. Given the configuration, the location MLE has a
one-dimensional density proportional to prod g(t + a_i - theta). A unit
is selected when the one-sided p-value u(t, a) for theta = 0 falls below
a level alpha; inference then uses the conditional density truncated to
the selection region.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import optimize
from scipy.integrate import quad
from scipy.special import ndtri

from ._quad import log_integral_panels
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

    scale is the standard deviation of g, used only to size quadrature
    windows and optimizer brackets. sampler(rng, size) draws from g.
    kinks lists points where log_g is not smooth, so quadrature panels
    can break there.
    """

    name: str
    log_g: Callable[[np.ndarray], np.ndarray]
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


def register_family(family: LocationFamily, tol: float = 1e-8) -> LocationFamily:
    """Register a family after checking that exp(log_g) integrates to one."""
    total, _ = quad(lambda x: math.exp(float(family.log_g(x))),
                    -40.0 * family.scale, 40.0 * family.scale,
                    epsabs=1e-12, epsrel=1e-12, limit=200)
    if abs(total - 1.0) > tol:
        raise ValueError(f"density of {family.name!r} integrates to {total}, not 1")
    FAMILIES[family.name] = family
    return family


register_family(LocationFamily(
    "gaussian", std_normal_log_pdf, 1.0,
    lambda rng, size: rng.standard_normal(size),
))
register_family(LocationFamily(
    "laplace", _laplace_log_g, math.sqrt(2.0),
    lambda rng, size: rng.laplace(0.0, 1.0, size),
    kinks=(0.0,),
))
register_family(LocationFamily(
    "logistic", _logistic_log_g, math.pi / math.sqrt(3.0),
    lambda rng, size: rng.logistic(0.0, 1.0, size),
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


def _profile_loglik(shift: float, residuals: np.ndarray, fam: LocationFamily) -> float:
    return float(np.sum(fam.log_g(residuals + shift)))


def _fd_score(theta: float, y: np.ndarray, fam: LocationFamily, h: float) -> float:
    up = float(np.sum(fam.log_g(y - theta - h)))
    dn = float(np.sum(fam.log_g(y - theta + h)))
    return (up - dn) / (2.0 * h)


def decompose(y, fam: LocationFamily, validate: bool = True) -> Configuration:
    """Split y into its location MLE and configuration.

    A bounded scalar search localizes the optimum; a root solve on the
    central-difference score then pins it down far beyond the sqrt(eps)
    floor of derivative-free minimization.
    """
    y = np.asarray(y, dtype=float)
    if y.size < 1 or not np.all(np.isfinite(y)):
        raise ValueError("observations must be finite and nonempty")

    def neg(theta):
        return -float(np.sum(fam.log_g(y - theta)))

    pad = 2.0 * fam.scale
    res = optimize.minimize_scalar(neg, bounds=(float(y.min()) - pad, float(y.max()) + pad),
                                   method="bounded", options={"xatol": 1e-10})
    h = 1e-6 * fam.scale
    root = solve_monotone(lambda th: _fd_score(th, y, fam, h), float(res.x), 4.0 * h,
                          float(np.abs(y).max()) + pad, 1e-13, 1e-15)
    theta_hat = root if math.isfinite(root) else float(res.x)

    a = y - theta_hat
    if validate:
        hv = 1e-4 * fam.scale
        score = (_profile_loglik(hv, a, fam) - _profile_loglik(-hv, a, fam)) / (2.0 * hv)
        if abs(score) > 1e-8 * max(1.0, float(y.size)):
            raise ValueError(f"residuals are not a configuration: score {score:.2e}")
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

    def log_f(u):
        return fam.log_g(u[:, None] + a[None, :]).sum(axis=1)

    return log_integral_panels(log_f, breaks, nodes=32)


def _log_total_mass(residuals: np.ndarray, fam: LocationFamily) -> float:
    return _log_tail_mass(-math.inf, residuals, fam)


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


def _selection_cutoff(alpha: float, residuals: np.ndarray, fam: LocationFamily,
                      log_total: float) -> float:
    """The t above which u(t, a) <= alpha under a zero null: one quantile
    solve per dataset; other null values shift the cutoff exactly."""
    log_target = math.log(alpha) + log_total

    def h(t):
        return _log_tail_mass(t, residuals, fam) - log_target

    guess = fam.scale * float(ndtri(1.0 - alpha)) / math.sqrt(residuals.size)
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
    log_total = _log_total_mass(a, fam)

    def log_tail(x):
        return _log_tail_mass(x, a, fam)

    if min(1.0, math.exp(log_tail(t - null_value) - log_total)) > selection_alpha:
        raise ValueError("datum inconsistent with selection event: u > alpha")
    if selection_alpha == 1.0:
        t_alpha = -math.inf
    else:
        t_alpha = null_value + _selection_cutoff(selection_alpha, a, fam, log_total)

    def log_den(theta):
        return log_tail(t_alpha - theta) if t_alpha != -math.inf else log_total

    def tail(theta, upper):
        log_sf = min(log_tail(t - theta) - log_den(theta), 0.0)
        return math.exp(log_sf) if upper else -math.expm1(log_sf)

    diagnostics = {"selection_cutoff": t_alpha, "selection_alpha": selection_alpha}
    if t_alpha != -math.inf and t - t_alpha <= 1e-12 * max(1.0, abs(t_alpha)):
        diagnostics["flags"] = ["divergent-mle"]
        estimate = -math.inf
    else:
        def negloglik(theta):
            return -(float(np.sum(fam.log_g(a + (t - theta)))) - log_den(theta))

        span = 30.0 * fam.scale
        res = optimize.minimize_scalar(negloglik, bounds=(t - span, t + 10.0 * fam.scale),
                                       method="bounded", options={"xatol": 1e-10})
        estimate = float(res.x)
        # a likelihood that only levels off toward -inf leaves the bounded
        # search anywhere on its plateau: compare with the box's left end
        left = negloglik(t - span)
        if (estimate <= t - span + 1e-6 * fam.scale
                or left - res.fun <= 1e-8 * max(1.0, abs(res.fun))):
            diagnostics["flags"] = ["divergent-mle"]
            estimate = -math.inf

    return equal_tailed_inference(tail, ci_level, t, fam.scale / math.sqrt(conf.n), estimate,
                                  f"location-{fam.name}", diagnostics, null_value)
