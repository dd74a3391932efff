"""Inference on winners: the selected-maximum problem.

Two sampling models are supported. The full-vector model conditions only
on the event that the selected coordinate is the maximum; the winner's
marginal law then involves all means, and inference for the winner's
mean plugs the joint selective MLE in for the non-selected means, which
keeps the inversion one-dimensional. The conditional-on-losers model
conditions additionally on the observed losing values, so the winner
follows a Gaussian truncated to (max losers, infinity).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy import optimize
from scipy.special import log_ndtr

from ._quad import _leggauss, log_integral_gl
from .distributions import _logsumexp, mills_excess, std_normal_log_pdf, std_normal_quantile
from .results import InferenceResult
from .selective import equal_tailed_inference, solve_monotone

__all__ = [
    "WinnersData",
    "WinnersModelKind",
    "argmax_select",
    "normalizer_full",
    "log_normalizer_full",
    "normalizer_losers",
    "winner_probabilities",
    "infer_winner",
]

_WINDOW_SIGMAS = 12.0
_GL_NODES = 200
_BOUNDARY_TOL = 1e-12


class WinnersModelKind(str, enum.Enum):
    FULL_VECTOR = "full-vector"
    CONDITIONAL_ON_LOSERS = "conditional-on-losers"


def argmax_select(y) -> int:
    """Index of the maximum, lowest index on ties (0-based)."""
    arr = np.asarray(y, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need a 1-D vector of length >= 2")
    if np.any(np.isnan(arr)):
        raise ValueError("NaN entries are not orderable")
    return int(np.argmax(arr))


@dataclass(frozen=True, eq=False)
class WinnersData:
    y: np.ndarray
    sigma: float = 1.0
    selected_index: int = None

    def __post_init__(self):
        arr = np.asarray(self.y, dtype=float).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "y", arr)
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        idx = argmax_select(arr) if self.selected_index is None else int(self.selected_index)
        if arr[idx] < arr.max() or idx != int(np.argmax(arr)):
            raise ValueError("selected_index must attain the maximum (ties: lowest index)")
        object.__setattr__(self, "selected_index", idx)

    @property
    def winner(self) -> float:
        return float(self.y[self.selected_index])

    @property
    def losers(self) -> np.ndarray:
        mask = np.ones(len(self.y), dtype=bool)
        mask[self.selected_index] = False
        return self.y[mask]


def _log_win_integrand(pts: np.ndarray, theta1: float, others: np.ndarray,
                       sigma: float) -> np.ndarray:
    z = (pts - theta1) / sigma
    out = std_normal_log_pdf(z) - math.log(sigma)
    out = out + log_ndtr((pts[:, None] - others[None, :]) / sigma).sum(axis=1)
    return out


def _log_win_integral(lo: float, hi: float, theta1: float, others: np.ndarray,
                      sigma: float) -> float:
    return log_integral_gl(
        lambda pts: _log_win_integrand(pts, theta1, others, sigma),
        lo, hi, _GL_NODES,
    )


def _window(theta1: float, others: np.ndarray, sigma: float) -> tuple:
    """Where the winner's selected law lives: 12 sigma below theta1, and
    12 sigma above the largest mean, since larger nuisance means push it up."""
    return (theta1 - _WINDOW_SIGMAS * sigma,
            max(theta1, float(np.max(others))) + _WINDOW_SIGMAS * sigma)


def log_normalizer_full(theta, sigma: float = 1.0) -> float:
    """log P_theta(Y_1 > Y_i for all i > 1) for independent N(theta_i, sigma^2)."""
    th = np.asarray(theta, dtype=float)
    if th.size < 2:
        raise ValueError("need at least two coordinates")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    t1 = float(th[0])
    lo, hi = _window(t1, th[1:], sigma)
    return _log_win_integral(lo, hi, t1, th[1:], sigma)


def normalizer_full(theta, sigma: float = 1.0) -> float:
    return math.exp(log_normalizer_full(theta, sigma))


def normalizer_losers(theta1: float, losers, sigma: float = 1.0) -> float:
    """P_theta1(winner beats every loser | observed losers)."""
    arr = np.asarray(losers, dtype=float)
    if arr.size == 0:
        raise ValueError("losers must be nonempty")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    c = float(arr.max())
    return math.exp(float(log_ndtr((theta1 - c) / sigma)))


def winner_probabilities(theta, sigma: float = 1.0) -> np.ndarray:
    """P(coordinate j is the maximum) for each j; sums to one."""
    th = np.asarray(theta, dtype=float)
    m = th.size
    out = np.empty(m)
    for j in range(m):
        rolled = np.concatenate(([th[j]], np.delete(th, j)))
        out[j] = normalizer_full(rolled, sigma)
    return out


# conditional-on-losers model: closed-form truncated Gaussian in log space

def _log_conditional_sf(t: float, c: float, sigma: float, theta: float) -> float:
    """log P_theta(T > t | T > c) for T ~ N(theta, sigma^2), capped at 0."""
    log_sf_t = float(log_ndtr(-((t - theta) / sigma)))
    log_sf_c = float(log_ndtr(-((c - theta) / sigma)))
    return min(log_sf_t - log_sf_c, 0.0)


def _conditional_score(theta: float, t: float, c: float, sigma: float) -> float:
    # (t - theta) / sigma^2 - mills_ratio(s) / sigma with the s = (c - theta)
    # / sigma of both terms cancelled: they are near 3333 when t - c = 3e-4
    return (t - c) / sigma**2 - mills_excess((c - theta) / sigma) / sigma


def _conditional_mle(t: float, c: float, sigma: float) -> float:
    # score is decreasing in theta (1-parameter exponential family); it is
    # negative at t, so the root lies left of it, or at -inf
    return solve_monotone(lambda th: _conditional_score(th, t, c, sigma), t, sigma,
                          abs(t) + 1e4 * sigma, 1e-10, 1e-15)


def _conditional_pivot(t: float, losers: np.ndarray, sigma: float) -> tuple:
    """Estimate, tail and diagnostics of the conditional-on-losers model."""
    c = float(losers.max())
    diagnostics = {"normalizer": "truncated-gaussian closed form"}
    if t - c <= _BOUNDARY_TOL * max(1.0, abs(c)):
        diagnostics["flags"] = ["divergent-mle"]
        estimate = -math.inf
    else:
        estimate = _conditional_mle(t, c, sigma)

    def tail(th, upper):
        log_sf = _log_conditional_sf(t, c, sigma, th)
        return math.exp(log_sf) if upper else -math.expm1(log_sf)

    return estimate, tail, diagnostics


# full-vector model: joint selective MLE, then a 1-D CDF pivot for the
# winner's mean with nuisance means fixed at their plug-in estimates

def _full_cdf(t: float, nuisance_means: np.ndarray, sigma: float,
              theta1: float, upper: bool = False) -> float:
    """P_theta1(T <= t | T wins), or P_theta1(T > t | T wins) when upper,
    with the non-selected means plugged in. The upper side runs from t to
    the window's top, or to 12 sigma above t when t lies past it."""
    lo, hi = _window(theta1, nuisance_means, sigma)
    if t <= lo:
        return 1.0 if upper else 0.0
    if upper:
        a, b = t, max(hi, t + _WINDOW_SIGMAS * sigma)
    elif t >= hi:
        return 1.0
    else:
        a, b = lo, t
    log_den = _log_win_integral(lo, hi, theta1, nuisance_means, sigma)
    log_num = _log_win_integral(a, b, theta1, nuisance_means, sigma)
    return math.exp(min(log_num - log_den, 0.0))


def _joint_negloglik_grad(th: np.ndarray, y: np.ndarray, sigma: float):
    """Negative selective log likelihood of the winner model and its gradient.

    One Gauss-Legendre pass yields the log normalizer together with its
    derivatives in every mean, since differentiation acts on the density
    factor and on each CDF factor of the integrand.
    """
    t1 = th[0]
    nuis = th[1:]
    lo, hi = _window(t1, nuis, sigma)
    glx, log_glw = _leggauss(_GL_NODES)
    half = 0.5 * (hi - lo)
    pts = 0.5 * (hi + lo) + half * glx
    z1 = (pts - t1) / sigma
    log_phi1 = std_normal_log_pdf(z1) - math.log(sigma)
    zo = (pts[:, None] - nuis[None, :]) / sigma
    log_cdfs = log_ndtr(zo)
    log_nodes = log_phi1 + log_cdfs.sum(axis=1) + log_glw
    lse = _logsumexp(log_nodes)
    log_den = lse + math.log(half)
    node_w = np.exp(log_nodes - lse)
    mills = np.exp(std_normal_log_pdf(zo) - log_cdfs)
    dlog_den_1 = float(np.sum(node_w * z1)) / sigma
    dlog_den_o = -np.sum(node_w[:, None] * mills, axis=0) / sigma
    zz = (y - th) / sigma
    loglik = float(np.sum(std_normal_log_pdf(zz))) - log_den
    if not math.isfinite(loglik):
        return 1e30, np.zeros_like(th)
    grad = np.empty_like(th)
    grad[0] = zz[0] / sigma - dlog_den_1
    grad[1:] = zz[1:] / sigma - dlog_den_o
    return -loglik, -grad


def _joint_selective_mle(y: np.ndarray, sigma: float) -> np.ndarray:
    bounds = [(float(v) - 20.0 * sigma, float(v) + 10.0 * sigma) for v in y]
    res = optimize.minimize(
        _joint_negloglik_grad, y.copy(), args=(y, sigma), jac=True,
        method="L-BFGS-B", bounds=bounds,
        options={"ftol": 1e-13, "gtol": 1e-10, "maxiter": 400},
    )
    return np.asarray(res.x, dtype=float)


def _full_vector_pivot(t: float, losers: np.ndarray, sigma: float) -> tuple:
    """Estimate, tail and diagnostics of the full-vector model."""
    diagnostics = {"normalizer": f"gauss-legendre-{_GL_NODES}",
                   "nuisance": "joint selective MLE plug-in"}
    y_ordered = np.concatenate(([t], losers))
    theta_hat = _joint_selective_mle(y_ordered, sigma)
    estimate = float(theta_hat[0])
    nuis = theta_hat[1:]
    if estimate <= t - 20.0 * sigma + 1e-6 * sigma:
        diagnostics.setdefault("flags", []).append("divergent-mle")
        estimate = -math.inf
    return estimate, partial(_full_cdf, t, nuis, sigma), diagnostics


def infer_winner(data: WinnersData, kind, level: float = 0.9) -> InferenceResult:
    """Estimate, equal-tailed CI and p-value (theta_1 = 0) for the winner's mean."""
    kind = WinnersModelKind(kind)
    pivot = (_conditional_pivot if kind is WinnersModelKind.CONDITIONAL_ON_LOSERS
             else _full_vector_pivot)
    estimate, tail, diagnostics = pivot(data.winner, data.losers, data.sigma)
    return equal_tailed_inference(tail, level, data.winner, data.sigma, estimate, kind.value,
                                  diagnostics)


def unadjusted_z_interval(t: float, sigma: float, level: float) -> tuple:
    z = float(std_normal_quantile(0.5 + level / 2.0))
    return (t - z * sigma, t + z * sigma)
