"""Generic selective (post-selection) models.

A selective model couples a base parametric family f(y; theta) with a
selection function p(y) and exposes the conditional-law quantities:
selection probability, selective log density f(y;theta)p(y)/phi(theta),
conditional maximum likelihood and confidence intervals by test
inversion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Union

import numpy as np
from scipy import optimize
from scipy.special import ndtr, ndtri

from ._quad import log_integral_panels
from .distributions import std_normal_log_pdf
from .results import InferenceResult

__all__ = [
    "SelectionFunction",
    "ParametricFamily",
    "SelectiveModel",
    "ClosedFormNormalizer",
    "QuadratureNormalizer",
    "MonteCarloNormalizer",
    "UnsupportedSelectionError",
    "DatumNotSelectedError",
    "DivergentMLEError",
    "selection_probability",
    "selective_log_density",
    "selective_cdf",
    "selective_mle",
    "selective_ci",
    "equal_tailed_inference",
    "randomized_selection_prob",
    "indicator_above",
    "indicator_two_sided",
    "randomized_above",
    "scalar_gaussian",
    "gaussian_iid",
]

PHI_FLOOR = 1e-300
_LOG_PHI_FLOOR = math.log(PHI_FLOOR)
# negative log likelihood where phi underflows PHI_FLOOR or the density is not finite
_UNSUPPORTED_NLL = 1e30
# quadrature panels per width of the family's integration window, and
# Gauss-Legendre nodes per panel
_PANELS_PER_WINDOW = 10
_PANEL_NODES = 64


class UnsupportedSelectionError(ValueError):
    """Selection probability is zero for the queried parameter."""


class DatumNotSelectedError(ValueError):
    """Observed data is inconsistent with the selection event."""


class DivergentMLEError(RuntimeError):
    """Selective likelihood is monotone; the MLE sits at infinity."""

    def __init__(self, direction):
        self.direction = np.asarray(direction, dtype=float)
        super().__init__(f"divergent MLE along direction {self.direction}")


def _checked_probs(p, indicator: bool) -> np.ndarray:
    """p as an array, after the checks every selection probability must pass."""
    p = np.asarray(p, dtype=float)
    if not (p.min(initial=0.0) >= 0.0 and p.max(initial=1.0) <= 1.0):
        bad = p[~((p >= 0.0) & (p <= 1.0))].flat[0]
        raise ValueError(f"selection probability {bad} outside [0, 1]")
    # p (1 - p) is zero exactly where p is 0 or 1
    if indicator and np.count_nonzero(p * (1.0 - p)):
        raise ValueError("deterministic selection must be indicator-valued")
    return p


@dataclass(frozen=True)
class SelectionFunction:
    """Map y -> p(y) in [0, 1], optionally reduced to sufficient pairs (t, a).

    kind is "deterministic" (indicator-valued) or "randomized". prob may
    take an array of y and return an array of the same shape; a prob that
    takes only scalars is evaluated point by point. breakpoints lists the
    points along a scalar y where p changes fast (discontinuities, or the
    threshold of a randomized selection): quadrature panels split there
    and the integration window is padded around them.
    """

    kind: str
    prob: Callable[[Any], float]
    reduced_prob: Optional[Callable[[Any, Any], float]] = None
    breakpoints: tuple = ()

    def __post_init__(self):
        if self.kind not in ("deterministic", "randomized"):
            raise ValueError(f"unknown selection kind {self.kind!r}")

    def __call__(self, y) -> float:
        return float(_checked_probs(self.prob(y), self.kind == "deterministic"))


def indicator_above(threshold: float) -> SelectionFunction:
    """Deterministic selection 1{y > threshold} on a scalar observation."""
    t = float(threshold)
    return SelectionFunction(
        kind="deterministic",
        prob=lambda y: (np.asarray(y) > t) * 1.0,
        breakpoints=(t,),
    )


def indicator_two_sided(threshold: float) -> SelectionFunction:
    """Deterministic selection 1{|y| > threshold}."""
    t = float(threshold)
    return SelectionFunction(
        kind="deterministic",
        prob=lambda y: (np.abs(np.asarray(y)) > t) * 1.0,
        breakpoints=(-t, t),
    )


def randomized_above(threshold: float, noise_scale: float) -> SelectionFunction:
    """Randomized selection P(y + W > threshold) with Gaussian noise W."""
    t = float(threshold)
    g = float(noise_scale)
    if g <= 0:
        raise ValueError("noise_scale must be positive")
    # the selected mass of a far-off theta sits between theta and t, so the
    # window must reach t
    return SelectionFunction(
        kind="randomized",
        prob=lambda y: ndtr((np.asarray(y, dtype=float) - t) / g),
        breakpoints=(t,),
    )


def randomized_selection_prob(t_stat: float, threshold: float, noise_scale: float) -> float:
    """Probability that t_stat plus Gaussian noise exceeds the threshold."""
    if noise_scale <= 0:
        raise ValueError("noise_scale must be positive")
    return float(ndtr((t_stat - threshold) / noise_scale))


@dataclass(frozen=True)
class ParametricFamily:
    """Base family {f(y; theta)} with a sampler and box parameter space.

    log_density(y, theta) -> float, or an array of the shape of y when y
    is an array; a log_density that takes only scalars is evaluated point
    by point. sampler(theta, rng, size=None) -> draw(s).
    integration_window(theta) bounds the region holding essentially all
    mass; a QuadratureNormalizer needs it, and cuts it into panels.
    """

    log_density: Callable[[Any, np.ndarray], float]
    sampler: Callable[..., Any]
    param_space: tuple = ((-50.0, 50.0),)
    integration_window: Optional[Callable[[np.ndarray], tuple]] = None


def scalar_gaussian(sigma: float = 1.0) -> ParametricFamily:
    """Family of a single N(theta, sigma^2) observation, scalar theta."""
    s = float(sigma)
    if s <= 0:
        raise ValueError("sigma must be positive")

    def logpdf(y, theta):
        th = float(np.atleast_1d(theta)[0])
        out = std_normal_log_pdf((np.asarray(y, dtype=float) - th) / s) - math.log(s)
        return out if np.ndim(out) else float(out)

    def sample(theta, rng, size=None):
        th = float(np.atleast_1d(theta)[0])
        return rng.normal(th, s, size=size)

    return ParametricFamily(
        log_density=logpdf,
        sampler=sample,
        integration_window=lambda theta: (
            float(np.atleast_1d(theta)[0]) - 12.0 * s,
            float(np.atleast_1d(theta)[0]) + 12.0 * s,
        ),
    )


def gaussian_iid(n: int, sigma: float = 1.0) -> ParametricFamily:
    """Family of n i.i.d. N(theta, sigma^2) observations."""
    s = float(sigma)

    def logpdf(y, theta):
        th = float(np.atleast_1d(theta)[0])
        z = (np.asarray(y, dtype=float) - th) / s
        return float(np.sum(std_normal_log_pdf(z)) - n * math.log(s))

    def sample(theta, rng, size=None):
        th = float(np.atleast_1d(theta)[0])
        if size is None:
            return rng.normal(th, s, size=n)
        return rng.normal(th, s, size=(int(size), n))

    return ParametricFamily(log_density=logpdf, sampler=sample)


@dataclass(frozen=True)
class ClosedFormNormalizer:
    fn: Callable[[np.ndarray], float]


@dataclass(frozen=True)
class QuadratureNormalizer:
    """Log-space Gauss-Legendre panels over the family's integration window."""


@dataclass(frozen=True)
class MonteCarloNormalizer:
    n_draws: int = 100_000


NormalizerStrategy = Union[ClosedFormNormalizer, QuadratureNormalizer, MonteCarloNormalizer]


@dataclass(frozen=True)
class SelectiveModel:
    """Immutable bundle of family, selection and normalizer strategy.

    conditioning "selection-and-ancillary" treats the family as the
    conditional law of the interest statistic given the stored ancillary
    value; the normalizer is then phi(theta; a) and selection is evaluated
    through reduced_prob(t, a).
    """

    family: ParametricFamily
    selection: SelectionFunction
    normalizer: NormalizerStrategy = field(default_factory=QuadratureNormalizer)
    conditioning: str = "selection"
    ancillary: Any = None

    def __post_init__(self):
        if self.conditioning not in ("selection", "selection-and-ancillary"):
            raise ValueError(f"unknown conditioning mode {self.conditioning!r}")
        if self.conditioning == "selection-and-ancillary" and self.selection.reduced_prob is None:
            raise ValueError("ancillary conditioning requires reduced_prob on the selection")

    def selection_prob_at(self, y) -> float:
        if self.conditioning == "selection-and-ancillary":
            return float(_checked_probs(self.selection.reduced_prob(y, self.ancillary), False))
        return self.selection(y)


def _pointwise(fn, ys: np.ndarray) -> np.ndarray:
    """fn at every point of ys: one call on the whole array when fn takes
    arrays, a per-point loop when it does not."""
    try:
        out = np.asarray(fn(ys), dtype=float)
        if out.shape == ys.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([fn(y) for y in ys], dtype=float)


def _eval_p_vector(model: SelectiveModel, ys: np.ndarray) -> np.ndarray:
    sel = model.selection
    if model.conditioning == "selection-and-ancillary":
        p = _pointwise(lambda y: sel.reduced_prob(y, model.ancillary), ys)
        return _checked_probs(p, False)
    return _checked_probs(_pointwise(sel.prob, ys), sel.kind == "deterministic")


def _log_integrand(model: SelectiveModel, theta):
    """ys -> log f(ys; theta) + log p(ys), one vectorised evaluation per call."""
    def log_f(ys):
        p = _eval_p_vector(model, ys)
        with np.errstate(divide="ignore"):
            log_p = np.log(p)
        return _pointwise(lambda y: model.family.log_density(y, theta), ys) + log_p
    return log_f


def _panel_edges(model: SelectiveModel, theta) -> np.ndarray:
    """Edges of the Gauss-Legendre panels that integrate f(y; theta) p(y).

    Panels a tenth of the family's window wide cover that window and half
    a window around every selection breakpoint, where the selected mass of
    a theta far from the cut sits. Across a gap between such stretches the
    panels double in width away from both ends, so a far-off breakpoint
    costs a few panels, not thousands. Every breakpoint is an edge. With
    64 nodes a panel resolves a Gaussian tail decaying at rate 37/sigma,
    so phi keeps its relative accuracy for a cut 37 sigma above theta.
    """
    window = model.family.integration_window
    if window is None:
        raise ValueError("quadrature over y needs a family with an integration_window")
    lo, hi = (float(v) for v in window(theta))
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"integration window ({lo}, {hi}) must be finite and nonempty")
    span = hi - lo
    width = span / _PANELS_PER_WINDOW
    breaks = model.selection.breakpoints
    stretches = sorted([(lo, hi), *((b - 0.5 * span, b + 0.5 * span) for b in breaks)])
    merged = [list(stretches[0])]
    for a, b in stretches[1:]:
        if a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    parts = [np.asarray(breaks, dtype=float)]
    for a, b in merged:
        n = math.ceil((b - a) / width - 1e-9)
        parts.append(a + (b - a) / n * np.arange(n + 1.0))
    for (_, a), (b, _) in zip(merged, merged[1:]):
        steps = width * (2.0 ** np.arange(1.0, math.log2((b - a) / width) + 1.0) - 1.0)
        parts += [a + steps, b - steps]
    # log_integral_panels skips the empty panels of repeated edges
    return np.sort(np.concatenate(parts))


def _normalizer_value(model: SelectiveModel, theta,
                      rng: Optional[np.random.Generator] = None) -> float:
    """phi(theta) from a closed-form or Monte Carlo normalizer."""
    strat = model.normalizer
    if isinstance(strat, ClosedFormNormalizer):
        return float(strat.fn(theta))
    if isinstance(strat, MonteCarloNormalizer):
        if rng is None:
            raise ValueError("monte-carlo normalizer requires an explicit rng")
        ys = model.family.sampler(theta, rng, strat.n_draws)
        return float(np.mean(_eval_p_vector(model, np.asarray(ys))))
    raise TypeError(f"unknown normalizer strategy {strat!r}")


def _log_phi(model: SelectiveModel, theta,
             rng: Optional[np.random.Generator] = None) -> float:
    """log phi(theta); UnsupportedSelectionError when phi < PHI_FLOOR."""
    if isinstance(model.normalizer, QuadratureNormalizer):
        log_phi = log_integral_panels(_log_integrand(model, theta),
                                      _panel_edges(model, theta), _PANEL_NODES)
    else:
        value = _normalizer_value(model, theta, rng)
        log_phi = math.log(value) if value > 0.0 else -math.inf
    if log_phi < _LOG_PHI_FLOOR:
        raise UnsupportedSelectionError("unsupported selection")
    return log_phi


def selection_probability(model: SelectiveModel, theta,
                          rng: Optional[np.random.Generator] = None) -> float:
    """phi(theta) = E_theta[p(Y)], or phi(theta; a) under ancillary conditioning."""
    return math.exp(_log_phi(model, theta, rng))


def selective_log_density(model: SelectiveModel, y, theta,
                          rng: Optional[np.random.Generator] = None) -> float:
    """log f(y; theta) + log p(y) - log phi(theta)."""
    p = model.selection_prob_at(y)
    if p <= 0.0:
        raise DatumNotSelectedError("datum inconsistent with selection event")
    log_phi = _log_phi(model, theta, rng)
    return model.family.log_density(y, theta) + math.log(p) - log_phi


def selective_cdf(model: SelectiveModel, y: float, theta,
                  rng: Optional[np.random.Generator] = None) -> float:
    """Selective CDF at scalar y: P_theta(Y <= y | selected). Quadrature-based.

    The panels are split at y: the numerator integrates those below it,
    and, unless the normalizer is closed-form, the denominator adds those
    above it. Their ratio is taken in log space, so it stays accurate where
    a quadrature phi falls below PHI_FLOOR; only a zero mass raises.
    """
    edges = _panel_edges(model, theta)
    cut = min(max(float(y), edges[0]), edges[-1])
    log_f = _log_integrand(model, theta)
    log_num = log_integral_panels(log_f, np.append(edges[edges < cut], cut), _PANEL_NODES)
    if isinstance(model.normalizer, ClosedFormNormalizer):
        log_den = _log_phi(model, theta)
    else:
        log_up = log_integral_panels(log_f, np.insert(edges[edges > cut], 0, cut),
                                     _PANEL_NODES)
        log_den = float(np.logaddexp(log_num, log_up))
    if log_den == -math.inf:
        raise UnsupportedSelectionError("unsupported selection")
    return math.exp(min(log_num - log_den, 0.0))


def selective_mle(model: SelectiveModel, y,
                  rng: Optional[np.random.Generator] = None) -> float:
    """Maximize the selective log likelihood of a one-parameter family.

    A bounded scalar search over the one param_space interval, then
    solve_monotone on the five-point central-difference score; a root
    outside the box leaves the bounded value, and so does a Monte Carlo
    normalizer, whose generator is rebuilt at every evaluation from one
    seed drawn from rng, so every theta sees the same noise (common random
    numbers). Raises ValueError for a param_space of more than one
    interval, DatumNotSelectedError, and DivergentMLEError when the optimum
    sits at an end of the box, or of the region where phi >= PHI_FLOOR, with
    the likelihood still rising outward.
    """
    if len(model.family.param_space) != 1:
        raise ValueError("selective_mle needs a param_space of one interval")
    lo, hi = (float(v) for v in model.family.param_space[0])
    p_obs = model.selection_prob_at(y)
    if p_obs <= 0.0:
        raise DatumNotSelectedError("datum inconsistent with selection event")
    log_p_obs = math.log(p_obs)
    mc_seed = None if rng is None else int(rng.integers(2**63))

    def negloglik(th):
        mc_rng = None if mc_seed is None else np.random.default_rng(mc_seed)
        try:
            log_phi = _log_phi(model, th, mc_rng)
        except UnsupportedSelectionError:
            return _UNSUPPORTED_NLL
        val = model.family.log_density(y, th) + log_p_obs - log_phi
        return -val if math.isfinite(val) else _UNSUPPORTED_NLL

    res = optimize.minimize_scalar(negloglik, bounds=(lo, hi), method="bounded",
                                   options={"xatol": 1e-10})
    x, fx = float(res.x), float(res.fun)
    # the search stops within about 2e-8 |x| of an end it runs into; a
    # neighbour beyond the box counts as unsupported and is not evaluated
    d = 1e-6 * max(1.0, abs(x))
    f_dn, f_up = (negloglik(v) if lo <= v <= hi else _UNSUPPORTED_NLL for v in (x - d, x + d))
    for side, f_out, f_in in ((-1.0, f_dn, f_up), (1.0, f_up, f_dn)):
        if f_out >= _UNSUPPORTED_NLL and f_in > fx:
            raise DivergentMLEError([side])
    if isinstance(model.normalizer, MonteCarloNormalizer):
        return x
    # a step this wide damps the eps |negloglik| rounding noise, 5e-14
    # twenty sigma deep where the score slopes at 1/400; the stencil's
    # O(h^4) error stays far below it
    h = 1e-3 * max(1.0, abs(x))

    def score(th):
        return (8.0 * (negloglik(th - h) - negloglik(th + h))
                - negloglik(th - 2.0 * h) + negloglik(th + 2.0 * h)) / (12.0 * h)

    root = solve_monotone(score, x, h, max(abs(lo), abs(hi)), 1e-10, 1e-15)
    return root if lo <= root <= hi else x


def solve_monotone(g, center: float, step: float, limit: float,
                   xtol: float, rtol: float) -> float:
    """Root of g, a function decreasing in x, to within xtol + rtol |x|.

    The bracket grows from center toward the root: center +- step first,
    then secant extrapolations with an overshoot that grows after each
    probe that fails to bracket, each secant step at least the one before
    and at most 4 times the last step; where the values give no secant
    (equal, or not finite) it probes center +- 2^k step. A probe past
    |x| <= limit moves to the box edge, and an edge short of the root gives
    -inf or +inf, the side of the root. Chandrupatla's method (1997) then
    finishes from the known values at the bracket ends and the probe
    before, until the bracket is at most xtol + rtol |x| wide. No point is
    evaluated twice. A NaN value raises ValueError.
    """
    def value(x: float) -> float:
        gx = g(x)
        if math.isnan(gx):
            raise ValueError(f"solve_monotone: the function is NaN at {x}")
        return gx

    a, ga = b, gb = p, gp = center, value(center)
    s = 1.0 if ga > 0.0 else -1.0
    over, width, last = 0.1, step, 0.0
    while s * gb > 0.0:
        if s * b >= limit:
            return s * math.inf
        r = gb * (b - a) / (ga - gb) if ga != gb else math.nan
        p, gp, a, ga, d = a, ga, b, gb, abs(b - a)
        if s * r > 0.0 and math.isfinite(r):
            last = min(max((1.0 + over) * abs(r), last, xtol + rtol * abs(b)), 4.0 * d)
            b, over = b + s * last, 4.0 * over
        else:
            while s * (center + s * width) <= s * b:
                width *= 2.0
            b = center + s * width
        b = s * min(s * b, limit)
        gb = value(b)
    # Chandrupatla: [x1, x2] the bracket, x3 a third point beyond x1 (at
    # first the probe before x1); inverse quadratic interpolation where the
    # three points make it safe, else regula falsi at the first step
    # (bisection from an infinite end) and bisection after it
    x1, f1, x2, f2, x3, f3 = a, ga, b, gb, p, gp
    fallback = f1 / (f1 - f2) if math.isfinite(f1 - f2) and f1 != f2 else 0.5
    while True:
        xm = x1 if abs(f1) <= abs(f2) else x2
        tol = xtol + rtol * abs(xm)
        if f1 == 0.0 or f2 == 0.0 or abs(x2 - x1) <= tol:
            return xm if abs(xm) <= limit else math.copysign(math.inf, xm)
        xi, ph = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
        t = (f1 / (f2 - f1) * f3 / (f2 - f3)
             + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2)
             if ph * ph < xi and (1.0 - ph) ** 2 < 1.0 - xi else fallback)
        # rtol >= 4 eps keeps the clipped point off both ends
        tl, fallback = 0.5 * tol / abs(x2 - x1), 0.5
        xt = x1 + min(max(t, tl), 1.0 - tl) * (x2 - x1)
        ft = value(xt)
        if (ft > 0.0) == (f1 > 0.0):
            x3, f3 = x1, f1
        else:
            x3, f3, x2, f2 = x2, f2, x1, f1
        x1, f1 = xt, ft


def invert_monotone_cdf(cdf_in_theta, observed_level: float, center: float,
                        step: float = 1.0) -> float:
    """Solve cdf(theta) = observed_level for a CDF decreasing in theta; a
    solution outside |theta - center| <= 50 max(1, step) reads -inf or +inf.

    The solve runs in theta - center on the probit pivot ndtri(cdf) -
    ndtri(observed_level), exactly linear in theta for an untruncated
    Gaussian; a CDF of 0 or 1 maps to -inf or +inf, which keeps the sign."""
    z = float(ndtri(observed_level))
    return center + solve_monotone(
        lambda u: float(ndtri(cdf_in_theta(center + u))) - z,
        0.0, step, 50.0 * max(1.0, step), 1e-8, 1e-14)


def invert_equal_tailed(cdf_in_theta, level: float, center: float,
                        step: float = 1.0, diagnostics: Optional[dict] = None) -> tuple:
    """Equal-tailed interval endpoints, recording rather than raising when an
    endpoint escapes the search box: it becomes -inf or +inf on the side it
    escaped to, flagged unbounded-ci-lower or unbounded-ci-upper.
    Heavy-tailed families genuinely produce half-infinite selective
    intervals. A CDF on one side of both levels over the whole box puts
    the accepted set beyond the box: (-inf, -inf) or (inf, inf), which
    covers no theta inside it. cdf(center) is evaluated once for both.
    ValueError for a level outside (0, 1)."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    alpha = 1.0 - level
    at_center = cdf_in_theta(center)

    def cdf(th):
        return at_center if th == center else cdf_in_theta(th)

    ends = tuple(invert_monotone_cdf(cdf, observed_level, center, step=step)
                 for observed_level in (1.0 - alpha / 2.0, alpha / 2.0))
    for side, end in zip(("lower", "upper"), ends):
        if math.isinf(end) and diagnostics is not None:
            diagnostics.setdefault("flags", []).append(f"unbounded-ci-{side}")
    return ends


def equal_tailed_inference(tail, level: float, center: float, step: float,
                           estimate: float, kind: str, diagnostics: dict,
                           null: float = 0.0) -> InferenceResult:
    """Estimate, equal-tailed CI and p-value from one pivot: tail(theta,
    upper) is P_theta(T > t | selection) if upper, else P_theta(T <= t |
    selection), each side computed on its own. The CI inverts the lower tail
    inside |theta - center| <= 50 max(1, step); the p-value is the upper
    tail at theta = null, so a small one keeps its relative accuracy."""
    ci = invert_equal_tailed(lambda th: tail(th, False), level, center, step=step,
                             diagnostics=diagnostics)
    return InferenceResult(estimate, ci, tail(null, True), kind, diagnostics)


def selective_ci(model: SelectiveModel, y: float, level: float = 0.95,
                 rng: Optional[np.random.Generator] = None) -> tuple:
    """Equal-tailed CI for a scalar parameter by inversion of the selective CDF.

    Valid for scalar targets with a selective CDF monotone (decreasing) in
    the parameter, which covers every 1-D Gaussian-derived model here. An
    endpoint beyond |theta - y| = 50 is reported as -inf or +inf, as in
    invert_equal_tailed.
    """
    def cdf(th):
        try:
            return selective_cdf(model, y, th, rng)
        except UnsupportedSelectionError:
            # phi underflowed during bracket expansion; the selective law
            # degenerates toward the near edge of the selection region
            return 1.0 if float(np.atleast_1d(th)[0]) < y else 0.0

    return invert_equal_tailed(cdf, level, float(y))
