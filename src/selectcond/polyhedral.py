"""Selective inference for linear targets under polyhedral selection events.

For Y ~ N(theta, sigma2 * I_n) and a target psi = eta'theta, conditioning
on a polyhedral selection event {y : Ay <= b} (or a union of such events)
and on the component of Y orthogonal to eta leaves the statistic eta'Y
with a one-dimensional Gaussian law truncated to an interval (or union
of intervals) computable from the event geometry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    TruncatedGaussian,
    std_normal_quantile,
    truncated_cdf,
    truncated_sf,
)
from .selective import invert_equal_tailed

__all__ = [
    "Polyhedron",
    "LinearTarget",
    "NoSelectionError",
    "projection_target",
    "truncation_bounds",
    "truncation_intervals",
    "selective_pvalue_linear",
    "selective_ci_linear",
    "marginal_screening_event",
    "normalize_columns",
]

FEASIBILITY_SLACK = 1e-9


class NoSelectionError(ValueError):
    """The screening rule selected nothing; there is no event to condition on."""


@dataclass(frozen=True, eq=False)
class Polyhedron:
    """The set {y : A y <= b}."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float)).copy()
        b = np.atleast_1d(np.asarray(self.b, dtype=float)).copy()
        if A.shape[0] != b.shape[0]:
            raise ValueError("A and b must have matching row counts")
        A.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    def contains(self, y, slack: float = FEASIBILITY_SLACK) -> bool:
        y = np.asarray(y, dtype=float)
        return bool(np.all(self.A @ y <= self.b + slack))


@dataclass(frozen=True, eq=False)
class LinearTarget:
    """Direction eta defining the scalar target eta'theta."""

    eta: np.ndarray

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float).copy()
        if eta.ndim != 1 or not np.any(eta != 0.0):
            raise ValueError("eta must be a nonzero vector")
        eta.setflags(write=False)
        object.__setattr__(self, "eta", eta)

    @property
    def norm_sq(self) -> float:
        return float(self.eta @ self.eta)

    def statistic(self, y) -> float:
        return float(self.eta @ np.asarray(y, dtype=float))


def projection_target(X, s, j: int) -> LinearTarget:
    """Row j of the projection-parameter map pinv(X_s) for covariate set s.

    The resulting eta satisfies eta'mu = coefficient j of the best linear
    predictor of the mean using only the selected columns.
    """
    X = np.asarray(X, dtype=float)
    s = list(s)
    if not 0 <= j < len(s):
        raise ValueError("coordinate j outside the selected set")
    Xs = X[:, s]
    gram = Xs.T @ Xs
    if np.linalg.matrix_rank(gram) < len(s):
        raise ValueError("selected design X(s) is rank deficient")
    M = np.linalg.solve(gram, Xs.T)
    return LinearTarget(M[j])


def _line_interval(poly: Polyhedron, target: LinearTarget, y: np.ndarray):
    """Intersection of poly with the line y + c*(tau - eta'y), parameterized by tau.

    Returns (lo, hi) in tau units or None when the line misses the
    polyhedron entirely.
    """
    eta = target.eta
    nsq = target.norm_sq
    c = eta / nsq
    t_obs = float(eta @ y)
    z = y - c * t_obs
    Ac = poly.A @ c
    rhs = poly.b - poly.A @ z
    lo, hi = -math.inf, math.inf
    for a_i, r_i in zip(Ac, rhs):
        if abs(a_i) <= 1e-14 / max(1.0, math.sqrt(nsq)):
            if r_i < -FEASIBILITY_SLACK:
                return None
        elif a_i > 0:
            hi = min(hi, r_i / a_i)
        else:
            lo = max(lo, r_i / a_i)
    if not lo < hi:
        return None
    return (lo, hi)


def truncation_bounds(poly: Polyhedron, target: LinearTarget, y) -> tuple:
    """Interval [V-, V+] of target values consistent with the event at y."""
    lo, hi = truncation_intervals(poly, target, y)[0]
    t_obs = target.statistic(y)
    if not lo - FEASIBILITY_SLACK <= t_obs <= hi + FEASIBILITY_SLACK:
        raise ValueError("observed statistic escaped its truncation interval")
    return (lo, hi)


def _as_polyhedra(events):
    if isinstance(events, Polyhedron):
        return [events]
    return list(events)


def truncation_intervals(events, target: LinearTarget, y) -> tuple:
    """Merged union of per-polyhedron truncation intervals along the target."""
    polys = _as_polyhedra(events)
    y = np.asarray(y, dtype=float)
    if not any(p.contains(y) for p in polys):
        raise ValueError("y is infeasible for every polyhedron in the union")
    ivs = []
    for p in polys:
        iv = _line_interval(p, target, y)
        if iv is not None:
            ivs.append(iv)
    if not ivs:
        raise ValueError("event empty along target")
    ivs.sort()
    merged = [list(ivs[0])]
    for lo, hi in ivs[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def _target_distribution(intervals, target: LinearTarget, sigma2: float,
                         psi0: float) -> TruncatedGaussian:
    sd = math.sqrt(sigma2) * math.sqrt(target.norm_sq)
    return TruncatedGaussian(psi0, sd, intervals)


def _clamp_into(t: float, intervals) -> float:
    # selection events re-derived in floating point can put the observed
    # statistic a rounding error outside its interval
    best, dist = t, math.inf
    for lo, hi in intervals:
        if lo <= t <= hi:
            return t
        edge = lo if t < lo else hi
        if abs(t - edge) < dist:
            best, dist = edge, abs(t - edge)
    if dist > 1e-6 * max(1.0, abs(t)):
        raise ValueError("observed statistic escaped its truncation interval")
    return best


def selective_pvalue_linear(events, target: LinearTarget, y, sigma2: float,
                            psi0: float = 0.0,
                            alternative: str = "greater") -> float:
    """p-value for eta'theta = psi0 given the selection event.

    The reference law of eta'y is Gaussian with mean psi0 and variance
    sigma2 * |eta|^2, truncated to the union of event intervals.
    """
    intervals = truncation_intervals(events, target, y)
    tg = _target_distribution(intervals, target, sigma2, psi0)
    t = _clamp_into(target.statistic(np.asarray(y, dtype=float)), intervals)
    if alternative == "greater":
        return truncated_sf(t, tg)
    if alternative == "less":
        return truncated_cdf(t, tg)
    if alternative == "two-sided":
        return min(1.0, 2.0 * min(truncated_cdf(t, tg), truncated_sf(t, tg)))
    raise ValueError(f"unknown alternative {alternative!r}")


def selective_ci_linear(events, target: LinearTarget, y, sigma2: float,
                        level: float = 0.9, diagnostics: dict = None) -> tuple:
    """Equal-tailed CI for eta'theta by inverting the truncated-Gaussian CDF.

    Monotonicity of the truncated CDF in its mean guarantees bracketing
    inside the search box; an observation hugging an edge of a bounded
    truncation interval pushes the matching endpoint outside the box, and
    that endpoint is reported as infinite (flagged via diagnostics).
    """
    intervals = truncation_intervals(events, target, y)
    sd = math.sqrt(sigma2) * math.sqrt(target.norm_sq)
    t = _clamp_into(target.statistic(np.asarray(y, dtype=float)), intervals)

    def cdf(psi):
        return truncated_cdf(t, TruncatedGaussian(psi, sd, intervals))

    return invert_equal_tailed(cdf, level, t, step=sd, diagnostics=diagnostics)


def classical_ci_linear(target: LinearTarget, y, sigma2: float,
                        level: float) -> tuple:
    t = target.statistic(y)
    sd = math.sqrt(sigma2) * math.sqrt(target.norm_sq)
    z = float(std_normal_quantile(0.5 + level / 2.0))
    return (t - z * sd, t + z * sd)


def normalize_columns(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    norms = np.linalg.norm(X, axis=0)
    if np.any(norms == 0):
        raise ValueError("design has a zero column")
    return X / norms


def _has_unit_columns(X) -> bool:
    """Whether every column of X has unit Euclidean length, to 1e-8."""
    norms = np.linalg.norm(np.asarray(X, dtype=float), axis=0)
    return bool(np.all(np.abs(norms - 1.0) <= 1e-8))


def marginal_screening_event(X, y, threshold: float):
    """Select s = {j : |x_j'y| > threshold}; encode the event as a polyhedron.

    The event conditions on the selected set together with the observed
    signs of the selected correlations, so resampling inside the
    polyhedron reproduces s exactly.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if not _has_unit_columns(X):
        raise ValueError("columns of X must be normalized to unit length")
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    corr = X.T @ y
    selected = np.flatnonzero(np.abs(corr) > threshold)
    if selected.size == 0:
        raise NoSelectionError("no selection")
    chosen = set(selected.tolist())
    rows, rhs = [], []
    for j in range(X.shape[1]):
        if j in chosen:
            sign = 1.0 if corr[j] > 0 else -1.0
            rows.append(-sign * X[:, j])
            rhs.append(-threshold)
        else:
            rows.append(X[:, j])
            rhs.append(threshold)
            rows.append(-X[:, j])
            rhs.append(threshold)
    return tuple(int(j) for j in selected), Polyhedron(np.array(rows), np.array(rhs))
