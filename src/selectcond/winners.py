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
from scipy.special import log_ndtr

from ._quad import gl_nodes
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
        if not np.all(np.isfinite(arr)):
            raise ValueError("y must be finite")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
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


def _win_nodes(d: np.ndarray, lo, hi) -> tuple:
    """The winner's law on Gauss-Legendre nodes over [lo, hi] in z = (y_1 -
    theta_1) / sigma, with d = (theta_1 - theta_j) / sigma for the losers: the
    nodes z, the losers' standardized margins z + d and their log Phi, and the
    log node masses log(w phi(z) prod Phi(z + d)). Arrays of ends give one row
    per panel. Working relative to theta_1 keeps rounding relative to sigma."""
    z, logw = gl_nodes(lo, hi, _GL_NODES)
    zo = z[..., None] + d
    log_cdfs = log_ndtr(zo)
    return z, zo, log_cdfs, std_normal_log_pdf(z) + log_cdfs.sum(axis=-1) + logw


def _top(d: np.ndarray) -> float:
    """Where the winner's selected law ends, in z: 12 sigma above the largest
    mean, since larger nuisance means push it up. It starts 12 sigma below
    theta_1."""
    return max(0.0, float(np.max(-d))) + _WINDOW_SIGMAS


def log_normalizer_full(theta, sigma: float = 1.0) -> float:
    """log P_theta(Y_1 > Y_i for all i > 1) for independent N(theta_i, sigma^2)."""
    th = np.asarray(theta, dtype=float)
    if th.size < 2:
        raise ValueError("need at least two coordinates")
    if not 0.0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    d = (th[0] - th[1:]) / sigma
    return _logsumexp(_win_nodes(d, -_WINDOW_SIGMAS, _top(d))[3])


def normalizer_full(theta, sigma: float = 1.0) -> float:
    return math.exp(log_normalizer_full(theta, sigma))


def normalizer_losers(theta1: float, losers, sigma: float = 1.0) -> float:
    """P_theta1(winner beats every loser | observed losers)."""
    arr = np.asarray(losers, dtype=float)
    if arr.size == 0:
        raise ValueError("losers must be nonempty")
    if not 0.0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
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
    with the non-selected means plugged in. The window, widened to reach 12
    sigma past t, is split at t: one pass gives both tails on 200 nodes each,
    and their sum is the normalizer, so the two tails sum to one."""
    d = (theta1 - nuisance_means) / sigma
    z = (t - theta1) / sigma
    lo, hi = min(z, 0.0) - _WINDOW_SIGMAS, max(z + _WINDOW_SIGMAS, _top(d))
    log_tails = [_logsumexp(row) for row in _win_nodes(d, [lo, z], [z, hi])[3]]
    return math.exp(log_tails[upper] - np.logaddexp(*log_tails))


def _joint_pass(th: np.ndarray, y: np.ndarray, sigma: float) -> tuple:
    """Negative selective log likelihood of the winner model up to a constant,
    inf where the normalizer underflows, with its gradient (E_sel Y - y) /
    sigma^2 and Hessian Cov_sel(Y) / sigma^4, from one Gauss-Legendre pass.
    Given Y_1 = u the losers are N(theta_j, sigma^2) truncated above at u:
    with z_j = (u - theta_j) / sigma and lambda_j = phi(z_j) / Phi(z_j),
    their standardized means are -lambda_j and variances 1 - z_j lambda_j -
    lambda_j^2, so total covariance over the nodes gives the Hessian."""
    d = (th[0] - th[1:]) / sigma
    z1, zo, log_cdfs, log_nodes = _win_nodes(d, -_WINDOW_SIGMAS, _top(d))
    lse = _logsumexp(log_nodes)
    zz = (y - th) / sigma
    value = lse - float(np.sum(std_normal_log_pdf(zz)))
    if not math.isfinite(value):
        return math.inf, None, None
    w = np.exp(log_nodes - lse)
    mills = np.exp(std_normal_log_pdf(zo) - log_cdfs)
    means = np.column_stack((z1, -mills))
    mean = w @ means
    dev = means - mean
    cov = (dev * w[:, None]).T @ dev
    cov[1:, 1:] += np.diag(w @ np.maximum(1.0 - zo * mills - mills * mills, 0.0))
    return value, (mean - zz) / sigma, cov / sigma**2


def _joint_selective_mle(y: np.ndarray, sigma: float) -> np.ndarray:
    """Projected Newton on the box (y - 20 sigma, y + 10 sigma), the negative
    log likelihood being convex (the selected law is an exponential family in
    theta), holding a coordinate at a bound whose gradient points out. Armijo
    backtracking runs until the Newton decrement g . H^-1 g nears f's rounding
    (1e-10) or the step rounds away; full steps follow, one last below 1e-16."""
    lo, hi = y - 20.0 * sigma, y + 10.0 * sigma
    th, last = y.copy(), math.inf
    f, g, h = _joint_pass(th, y, sigma)
    for _ in range(100):
        free = ~(((th <= lo) & (g > 0.0)) | ((th >= hi) & (g < 0.0)))
        step = np.zeros_like(th)
        step[free] = -np.linalg.solve(h[np.ix_(free, free)], g[free])
        decrement = -float(g @ step)
        if decrement <= 1e-16 or decrement >= last:
            return np.clip(th + step, lo, hi)
        last, t = (decrement if decrement <= 1e-10 else math.inf), 1.0
        while True:
            trial = np.clip(th + t * step, lo, hi)
            if t < 1e-12 or np.array_equal(trial, th):
                return th
            f_trial, g_trial, h_trial = _joint_pass(trial, y, sigma)
            if (f_trial <= f + 1e-4 * float(g @ (trial - th))
                    or (last < math.inf and f_trial < math.inf)):
                break
            t *= 0.5
        th, f, g, h = trial, f_trial, g_trial, h_trial
    return th


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
