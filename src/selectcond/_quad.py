"""Quadrature helpers shared by the inference modules."""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .distributions import _logsumexp


@lru_cache(maxsize=16)
def _leggauss(n: int):
    """Gauss-Legendre nodes and log weights on [-1, 1], shared read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    logw = np.log(w)
    x.setflags(write=False)
    logw.setflags(write=False)
    return x, logw


def gl_nodes(lo, hi, nodes: int) -> tuple:
    """Gauss-Legendre points and log weights on [lo, hi], the package's one
    node layout: (nodes,) arrays for scalar ends, (panels, nodes) for arrays
    of ends. Every panel must have a positive half-width."""
    x, logw = _leggauss(nodes)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    return (0.5 * (hi + lo))[..., None] + half[..., None] * x, np.log(half)[..., None] + logw


def log_integral_gl(log_f, lo: float, hi: float, nodes: int = 200) -> float:
    """log of int_lo^hi exp(log_f(x)) dx by Gauss-Legendre, all in log space.

    log_f must accept a vector and may return -inf entries. Suitable for
    smooth one-signed integrands whose features are resolved by the node
    spacing; callers choose the window.
    """
    # a window of subnormal width can have a half-width of zero
    if not 0.5 * (hi - lo) > 0.0:
        return -math.inf
    pts, logw = gl_nodes(lo, hi, nodes)
    return _logsumexp(np.asarray(log_f(pts), dtype=float) + logw)


def log_integral_panels(log_f, breakpoints, nodes: int = 32, hi=None) -> float:
    """log integral of exp(log_f) over consecutive panels between breakpoints,
    or, given hi, over nonempty panels from each breakpoints[i] to hi[i].

    All panel nodes are evaluated in a single vectorized call: a flat array,
    or, given hi, a (panels, nodes) array, so that log_f can broadcast
    per-panel parameters down its rows.
    """
    lo = np.asarray(breakpoints, dtype=float)
    flat = hi is None
    if flat:
        lo, hi = lo[:-1], lo[1:]
        # a panel of subnormal width can have a half-width of zero
        keep = 0.5 * (hi - lo) > 0.0
        if not np.any(keep):
            return -math.inf
        lo, hi = lo[keep], hi[keep]
    pts, logw = gl_nodes(lo, hi, nodes)
    if flat:
        pts, logw = pts.ravel(), logw.ravel()
    return _logsumexp((np.asarray(log_f(pts), dtype=float) + logw).ravel())
