"""Two-stage Gaussian selection models.

File-drawer screening (a first-stage test decides whether a second stage
is collected) and the random-sample-size variant, under both
conditioning choices: conditioning on selection jointly with the random
sample size, or conditioning on selection after the sample size has been
observed, which is the first choice under a point-mass prior at the
observed size. Observations are N(theta, 1); the stage-1 test selects when
sum(stage1) > z * sqrt(n1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from scipy import optimize
from scipy.special import log_ndtr

from ._quad import log_integral_panels
from .distributions import _log_interval_mass, _logsumexp, mills_excess, std_normal_log_pdf
from .results import InferenceResult
from .selective import equal_tailed_inference, solve_monotone

__all__ = [
    "TwoStageData",
    "SampleSizePrior",
    "TwoStageComparison",
    "unconditional_loglik",
    "conditional_loglik",
    "sample_size_pmf_given_selection",
    "compare_two_stage_inference",
    "file_drawer_loglik",
]

DEFAULT_THRESHOLD = 1.96
# two-stage numerator panel edges: steps of its decay scale above the cut, of sd1 about mean1
_CUT_STEPS = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 45.0])
_MEAN_STEPS = np.array([-12.0, -8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0, 12.0])


@dataclass(frozen=True, eq=False)
class TwoStageData:
    stage1: np.ndarray
    stage2: np.ndarray
    threshold: float = DEFAULT_THRESHOLD
    # randomized screening admits any dataset; deterministic screening
    # requires the stage-1 test to have passed
    enforce_selection: bool = True

    def __post_init__(self):
        s1 = np.atleast_1d(np.asarray(self.stage1, dtype=float)).copy()
        s2 = np.asarray(self.stage2, dtype=float).reshape(-1).copy()
        if s1.size < 1:
            raise ValueError("stage1 must contain at least one observation")
        if not math.isfinite(self.threshold):
            raise ValueError("threshold must be finite")
        s1.setflags(write=False)
        s2.setflags(write=False)
        object.__setattr__(self, "stage1", s1)
        object.__setattr__(self, "stage2", s2)
        if self.enforce_selection and not self.selected:
            raise ValueError(
                "dataset was not selected: sum(stage1) must exceed threshold * sqrt(n1)"
            )

    @property
    def n1(self) -> int:
        return int(self.stage1.size)

    @property
    def n2(self) -> int:
        return int(self.stage2.size)

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def stage1_sum(self) -> float:
        return float(self.stage1.sum())

    @property
    def total_sum(self) -> float:
        return float(self.stage1.sum() + self.stage2.sum())

    @property
    def selected(self) -> bool:
        return self.stage1_sum > self.threshold * math.sqrt(self.n1)


@dataclass(frozen=True, eq=False)
class SampleSizePrior:
    """Known finite-support distribution of the stage-1 sample size."""

    support: tuple
    probs: np.ndarray

    def __post_init__(self):
        support = tuple(int(k) for k in self.support)
        probs = np.asarray(self.probs, dtype=float).copy()
        if len(support) != probs.size or probs.size == 0:
            raise ValueError("support and probs must have equal nonzero length")
        if any(k <= 0 for k in support) or len(set(support)) != len(support):
            raise ValueError("support must be distinct positive integers")
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {total}")
        probs = probs / total
        probs.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        # rows over the sizes k of mass p_k > 0: k, sqrt(k), log p_k, log(p_k / sqrt(2 pi k))
        k, log_p = np.asarray(support, dtype=float)[probs > 0], np.log(probs[probs > 0])
        object.__setattr__(self, "_terms", np.array(
            [k, np.sqrt(k), log_p, log_p - 0.5 * np.log(2.0 * math.pi * k)]))

    def pmf(self, n1: int) -> float:
        try:
            return float(self.probs[self.support.index(int(n1))])
        except ValueError:
            return 0.0

    @classmethod
    @lru_cache(maxsize=64)
    def point_mass(cls, n1: int) -> "SampleSizePrior":
        return cls((n1,), np.array([1.0]))


def _log_sel_prob(theta: float, n1: int, z: float) -> float:
    """log P_theta(selection | n1) = log Phi(theta * sqrt(n1) - z)."""
    return float(log_ndtr(theta * math.sqrt(n1) - z))


def _log_mixture_sel_prob(prior: SampleSizePrior, theta: float, z: float) -> float:
    """log P_theta(selection) with n1 drawn from prior."""
    return _logsumexp([math.log(p) + _log_sel_prob(theta, k, z)
                       for k, p in zip(prior.support, prior.probs) if p > 0])


def _gaussian_loglik(data: TwoStageData, theta: float) -> float:
    z1 = data.stage1 - theta
    z2 = data.stage2 - theta
    return float(np.sum(std_normal_log_pdf(z1)) + np.sum(std_normal_log_pdf(z2)))


def unconditional_loglik(data: TwoStageData, prior: SampleSizePrior,
                         theta: float) -> float:
    """Log likelihood conditioning on selection jointly with the sample size.

    The denominator mixes the selection probability over the sample-size
    prior, so the observed n1 carries information about theta.
    """
    denom = _log_mixture_sel_prob(prior, theta, data.threshold)
    if denom == -math.inf:
        raise ValueError("selection probability vanishes")
    p_n1 = prior.pmf(data.n1)
    if p_n1 <= 0:
        raise ValueError(f"observed n1={data.n1} is outside the prior support")
    return math.log(p_n1) + _gaussian_loglik(data, theta) - denom


def conditional_loglik(data: TwoStageData, theta: float) -> float:
    """Log likelihood conditioning on selection after the sample size: the
    unconditional one under a point-mass prior at the observed n1."""
    return unconditional_loglik(data, SampleSizePrior.point_mass(data.n1), theta)


def sample_size_pmf_given_selection(prior: SampleSizePrior, theta: float,
                                    threshold: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """Post-selection pmf of n1: proportional to prior * Phi(theta*sqrt(n1) - z)."""
    logs = [(math.log(p) if p > 0 else -math.inf) + _log_sel_prob(theta, k, threshold)
            for k, p in zip(prior.support, prior.probs.tolist())]
    log_den = _logsumexp(logs)
    if log_den == -math.inf:
        raise ValueError("all selection-weighted masses are zero")
    return np.array([math.exp(v - log_den) for v in logs])


# inference: the total sum S is sufficient given n1, and its selective law
# is (truncated stage-1 sum) + (independent stage-2 sum), mixed over n1

def _sum_tail(s: float, prior: SampleSizePrior, n2: int, z: float, theta: float,
              upper: bool) -> float:
    """P_theta(S <= s | selection) for the total sum S, n1 drawn from prior;
    P_theta(S > s | selection) when upper. The numerator sums p_k times the
    integral over u > c = z sqrt(k) of f_{S1}(u) P(S2 <= s - u), or of
    f_{S1}(u) P(S2 > s - u) when upper: one pass over the panels of every k."""
    log_den = _log_mixture_sel_prob(prior, theta, z)
    if log_den == -math.inf:
        raise ValueError("selection probability vanishes")
    k, sd1, log_p, _ = prior._terms
    mean1 = k * theta
    if n2 == 0:
        # the cut standardized as in _log_sel_prob, to share its rounding
        cut, hi_z = (z - theta * sd1).tolist(), ((s - mean1) / sd1).tolist()
        log_num = _logsumexp([lp + (_log_interval_mass(max(a, b), math.inf) if upper
                                    else _log_interval_mass(a, b))
                              for lp, a, b in zip(log_p, cut, hi_z)])
        return math.exp(min(log_num - log_den, 0.0))
    # the integrand piles up near c when the truncation is deep; its decay
    # scale there is k / (c - mean1) = sd1 / (z - theta sd1) where that is below sd1
    c = z * sd1
    bscale = np.maximum(sd1 / np.maximum(1.0, z - theta * sd1), 1e-12)[:, None]
    top = np.maximum(mean1 + 12.0 * sd1, c + 45.0 * bscale[:, 0])[:, None]
    edges = np.concatenate((c[:, None] + bscale * _CUT_STEPS,
                            mean1[:, None] + sd1[:, None] * _MEAN_STEPS, top), axis=1)
    # every candidate is at most top; those below the cut move onto it
    edges = np.sort(np.maximum(edges, c[:, None]), axis=1)
    panels = edges[:, 1:] > edges[:, :-1]
    k1, s1, _, log_w = prior._terms[:, np.nonzero(panels)[0], None]
    # P(S2 <= s - u) = Phi((s2 - u) / sd2), s2 = s - n2 theta; sd2 < 0 gives P(S2 > s - u)
    sd2, s2 = -math.sqrt(n2) if upper else math.sqrt(n2), s - n2 * theta

    def log_f(u):
        return log_w - 0.5 * ((u - k1 * theta) / s1) ** 2 + log_ndtr((s2 - u) / sd2)

    log_num = log_integral_panels(log_f, edges[:, :-1][panels], 16, hi=edges[:, 1:][panels])
    return math.exp(min(log_num - log_den, 0.0))


def _score(theta: float, data: TwoStageData, prior: SampleSizePrior) -> float:
    """d/dtheta of unconditional_loglik: S - n theta - sqrt(k) hazard(z -
    theta sqrt(k)) averaged over the selective pmf of n1 = k, through
    mills_excess so that nothing cancels when S1 barely passes the cut."""
    z, total, n = data.threshold, data.total_sum, data.n
    weights = sample_size_pmf_given_selection(prior, theta, z)
    return sum(w * (total - (n - k) * theta
                    - math.sqrt(k) * (z + mills_excess(z - theta * math.sqrt(k))))
               for k, w in zip(prior.support, weights.tolist()) if w > 0.0)


def _unconditional_mle(data: TwoStageData, prior: SampleSizePrior) -> float:
    # the score root: for the mixture M of selection probabilities, (log M)'' >=
    # sum_k w_k k (log Phi)'' > -max k, so the log likelihood is concave when
    # n >= max(support); below that a bounded search localizes the maximum, as the
    # score root uphill from S/n can be a lesser mode (stage1 = (2.5,), 0.5 on {1, 6}:
    # the root is 2.264, the maximum -0.673)
    raw, concave = data.total_sum / data.n, data.n >= max(prior.support)
    center, step = raw, 1.0
    if not concave:
        span = 30.0 / math.sqrt(data.n)
        res = optimize.minimize_scalar(lambda th: -unconditional_loglik(data, prior, th),
                                       bounds=(raw - span - 3.0, raw + span + 3.0),
                                       method="bounded", options={"xatol": 1e-8})
        # polished on the score: the bounded search stalls near sqrt(eps) and at its box
        center, step = float(res.x), 1e-6
    est = solve_monotone(lambda th: _score(th, data, prior), center, step,
                         abs(raw) + 1e4, 1e-12, 1e-15)
    if math.isinf(est) and concave:
        raise RuntimeError("two-stage MLE bracket failed")
    return est if math.isfinite(est) else center


def _conditional_mle(data: TwoStageData) -> float:
    return _unconditional_mle(data, SampleSizePrior.point_mass(data.n1))


def _infer(data: TwoStageData, prior: SampleSizePrior, est: float, level: float,
           kind: str, denominator: str) -> InferenceResult:
    """Equal-tailed CI and p-value (theta = 0) from the law of the total sum."""
    tail = partial(_sum_tail, data.total_sum, prior, data.n2, data.threshold)
    return equal_tailed_inference(tail, level, est, 1.0 / math.sqrt(data.n), est, kind,
                                  {"denominator": denominator})


@dataclass
class TwoStageComparison:
    conditional: InferenceResult
    unconditional: InferenceResult
    estimate_delta: float
    length_delta: float


def infer_conditional(data: TwoStageData, level: float = 0.9) -> InferenceResult:
    return _infer(data, SampleSizePrior.point_mass(data.n1), _conditional_mle(data),
                  level, "two-stage-conditional", "selection prob at observed n1")


def infer_unconditional(data: TwoStageData, prior: SampleSizePrior,
                        level: float = 0.9) -> InferenceResult:
    return _infer(data, prior, _unconditional_mle(data, prior), level,
                  "two-stage-unconditional", "selection prob mixed over prior")


def compare_two_stage_inference(data: TwoStageData, prior: SampleSizePrior,
                                level: float = 0.9) -> TwoStageComparison:
    """MLE and CI under both likelihoods plus disagreement diagnostics."""
    cond = infer_conditional(data, level)
    unc = infer_unconditional(data, prior, level)
    return TwoStageComparison(
        conditional=cond,
        unconditional=unc,
        estimate_delta=unc.estimate - cond.estimate,
        length_delta=unc.length - cond.length,
    )


def file_drawer_loglik(data: TwoStageData, theta: float,
                       randomization_scale: float = None) -> float:
    """Selective log likelihood of the file-drawer model.

    Deterministic screening divides out Phi(theta*sqrt(n1) - z). With
    Gaussian randomization noise of scale gamma added to the stage-1 sum
    statistic, the selection term log p(y) is a constant in theta and the
    normalizer has the convolution closed form
    Phi((theta*n1 - z*sqrt(n1)) / sqrt(n1 + gamma^2)).
    """
    if randomization_scale is None:
        return conditional_loglik(data, theta)
    gamma = float(randomization_scale)
    if gamma <= 0:
        raise ValueError("randomization_scale must be positive")
    n1 = data.n1
    z = data.threshold
    cut = z * math.sqrt(n1)
    log_p = float(log_ndtr((data.stage1_sum - cut) / gamma))
    log_norm = float(log_ndtr((theta * n1 - cut) / math.sqrt(n1 + gamma * gamma)))
    if log_norm == -math.inf:
        raise ValueError("selection probability vanishes")
    return _gaussian_loglik(data, theta) + log_p - log_norm


def file_drawer_mle(data: TwoStageData, randomization_scale: float = None) -> float:
    """Under randomization, the root of the concave log likelihood's score S - n theta -
    (n1 / r) hazard((z sqrt(n1) - theta n1) / r), r = sqrt(n1 + gamma^2), through
    mills_excess and with its linear terms gathered: nothing cancels behind a deep cut."""
    if randomization_scale is None:
        return _conditional_mle(data)
    gamma = float(randomization_scale)
    if gamma <= 0:
        raise ValueError("randomization_scale must be positive")
    n1, r2, cut = data.n1, data.n1 + gamma * gamma, data.threshold * math.sqrt(data.n1)
    lead, slope, r = data.total_sum - n1 * cut / r2, data.n - n1 * n1 / r2, math.sqrt(r2)
    raw = data.total_sum / data.n
    est = solve_monotone(lambda th: lead - slope * th - n1 / r * mills_excess((cut - th * n1) / r),
                         raw, 1.0, abs(raw) + 1e4, 1e-14, 1e-15)
    if math.isinf(est):
        raise RuntimeError("file-drawer MLE bracket failed")
    return est
