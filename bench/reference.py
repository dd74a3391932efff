"""Fixed one-shot inference cases and their stored results.

The cases do not depend on the benchmark seed. Their results, computed at
the commit that defined the benchmark, live in reference.json next to this
file; the one-shot workload recomputes them and requires agreement within
REF_TOL * max(1, |stored value|). Infinite values must match exactly.

Regenerate the stored values (only when a change is meant to move them):

    PYTHONPATH=src python3 bench/reference.py --write
"""
from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

REF_TOL = 1e-6
REF_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def _cases() -> dict:
    import workloads as w

    i = np.arange(25)[:, None]
    j = np.arange(8)[None, :]
    from selectcond import polyhedral as poly
    X = poly.normalize_columns(np.sin((i + 1.0) * (j + 1.3)) + 0.5 * np.cos(0.7 * i * (j + 2.0)))
    y_poly = X @ (3.0 * np.asarray(w.BETA)) + np.cos(3.7 * np.arange(25))
    y_win = (2.0, 0.0, -1.0)
    return {
        "winners.conditional-on-losers": lambda: w._winners(y_win, "conditional-on-losers"),
        "winners.full-vector": lambda: w._winners(y_win, "full-vector"),
        "generic.ci.indicator": lambda: w._generic_ci("indicator", 1.0, 1.5),
        "generic.ci.indicator-deep": lambda: w._generic_ci("indicator", 30.0, 30.2),
        "generic.ci.randomized": lambda: w._generic_ci("randomized", 1.0, 1.5),
        "generic.mle.indicator": lambda: w._generic_mle("indicator", 1.0, 1.5),
        "generic.mle.randomized": lambda: w._generic_mle("randomized", 1.0, 1.5),
        "two-stage.conditional": lambda: w._two_stage(
            (1.2, 0.8, 1.5, 0.3, 1.1), tuple(np.linspace(-1.0, 2.0, 20)), 1.96),
        "location.logistic": lambda: w._location((2.1, 1.4, 2.8, 0.9, 1.7), "logistic", 0.1),
        "polyhedral.ci-linear": lambda: w._polyhedral(X, y_poly, 1.0),
        "truncated-cdf-deep": lambda: w._truncated_cdf(30.05, 0.0, 1.0, True),
        "truncated-sf-deep": lambda: w._truncated_sf(30.05, 0.0, 1.0, True),
        "truncated-quantile-deep": lambda: w._truncated_quantile(0.3, 0.0, 1.0, False),
    }


def compute() -> dict:
    import workloads as w

    return {name: list(w.canonical_result(fn())) for name, fn in _cases().items()}


def _close(got: float, want: float) -> bool:
    if math.isinf(want) or math.isnan(want):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= REF_TOL * max(1.0, abs(want))


def check_reference() -> list:
    """Failure messages for every case that disagrees with reference.json."""
    with open(REF_PATH) as fh:
        stored = json.load(fh)
    failures = []
    got_all = compute()
    for name, want in stored.items():
        got = got_all.get(name)
        if got is None or len(got) != len(want) or not all(map(_close, got, want)):
            failures.append(f"reference {name}: got {got}, stored {want}")
    return failures


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python3 bench/reference.py --write")
    with open(REF_PATH, "w") as fh:
        json.dump(compute(), fh, indent=1)
        fh.write("\n")
