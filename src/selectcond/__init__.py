"""Conditional (post-selection) inference: selective models, inference on
winners, polyhedral truncated-Gaussian inference, two-stage selection
models, location-family conditioning, ancillarity-preservation checkers,
and a seeded Monte-Carlo experiment harness."""

from .distributions import (
    EmptyTruncationError,
    TruncatedGaussian,
    std_normal_cdf,
    std_normal_log_sf,
    std_normal_quantile,
    std_normal_sf,
    truncated_cdf,
    truncated_logpdf,
    truncated_quantile,
    truncated_sample,
    truncated_sf,
)
from .results import InferenceResult
from .selective import (
    ClosedFormNormalizer,
    DatumNotSelectedError,
    DivergentMLEError,
    MonteCarloNormalizer,
    ParametricFamily,
    QuadratureNormalizer,
    SelectionFunction,
    SelectiveModel,
    UnsupportedSelectionError,
    equal_tailed_inference,
    randomized_selection_prob,
    selection_probability,
    selective_cdf,
    selective_ci,
    selective_log_density,
    selective_mle,
)
from .winners import (
    WinnersData,
    WinnersModelKind,
    argmax_select,
    infer_winner,
    normalizer_full,
    normalizer_losers,
    winner_probabilities,
)

__version__ = "0.1.0"
