"""Scenario replications and summaries for the experiment runner.

Every replication draws from a counter-based random stream keyed by
(seed, replication index), so results are independent of worker count
and scheduling. Each replication returns one or more rows with the fixed
column set; summaries are pure functions of the collected rows.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .. import ancillarity as anc
from .. import location as loc
from .. import polyhedral as poly
from .. import two_stage as ts
from .. import winners as win
from ..results import InferenceResult

__all__ = ["ROW_COLUMNS", "rep_rng", "n_replications", "run_replication", "summarize",
           "ks_uniform"]

ROW_COLUMNS = ("rep", "estimate", "lo", "hi", "covered", "length", "pvalue", "flags")

# stream tags far above any replication index, for non-replication randomness
DESIGN_STREAM = 2**63


def rep_rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, rep]))


def ks_uniform(values) -> float:
    """One-sample Kolmogorov-Smirnov distance to Uniform(0, 1)."""
    u = np.sort(np.asarray(values, dtype=float))
    n = u.size
    if n == 0:
        return math.nan
    grid = np.arange(1, n + 1) / n
    return float(np.maximum(grid - u, u - (grid - 1.0 / n)).max())


def _row(rep, result: InferenceResult = None, flags=(), **fields):
    """A row of NaNs, filled from result, then from fields; result's flags follow flags."""
    row = dict.fromkeys(ROW_COLUMNS, math.nan)
    flags = list(flags)
    if result is not None:
        row.update(estimate=result.estimate, lo=result.ci[0], hi=result.ci[1],
                   length=result.length, pvalue=result.pvalue)
        flags.extend(result.diagnostics.get("flags", []))
    row.update(fields, rep=rep, flags=";".join(flags))
    return row


# winners

def _winners_coverage_rep(params, seed, rep):
    rng = rep_rng(seed, rep)
    theta = np.asarray(params["theta"], dtype=float)
    sigma = params.get("sigma", 1.0)
    while True:
        y = theta + sigma * rng.standard_normal(theta.size)
        if win.argmax_select(y) == 0:
            break
    res = win.infer_winner(win.WinnersData(y, sigma),
                           win.WinnersModelKind.CONDITIONAL_ON_LOSERS,
                           params["level"])
    return [_row(rep, res, covered=float(res.covers(theta[0])))]


def _winners_compare_rep(params, seed, rep):
    rng = rep_rng(seed, rep)
    theta = np.asarray(params["theta"], dtype=float)
    sigma = params.get("sigma", 1.0)
    y = theta + sigma * rng.standard_normal(theta.size)
    idx = win.argmax_select(y)
    data = win.WinnersData(y, sigma)
    rows = []
    for kind in (win.WinnersModelKind.FULL_VECTOR,
                 win.WinnersModelKind.CONDITIONAL_ON_LOSERS):
        res = win.infer_winner(data, kind, params["level"])
        rows.append(_row(rep, res, covered=float(res.covers(theta[idx])),
                         flags=[f"kind={kind.value}"]))
    return rows


# polyhedral marginal screening

@lru_cache(maxsize=8)
def _screening_design(seed: int, n: int, p: int):
    rng = rep_rng(seed, DESIGN_STREAM)
    X = poly.normalize_columns(rng.standard_normal((n, p)))
    X.setflags(write=False)
    return X


def _screening_rep_common(params, seed, rep):
    rng = rep_rng(seed, rep)
    n, p = params["n"], params["p"]
    X = _screening_design(seed, n, p)
    beta = np.asarray(params.get("beta", [0.0] * p), dtype=float)
    mu = X @ beta
    threshold = params["threshold"]
    while True:
        y = mu + rng.standard_normal(n)
        try:
            s, event = poly.marginal_screening_event(X, y, threshold)
            break
        except poly.NoSelectionError:
            continue
    target = poly.projection_target(X, s, 0)
    psi_true = float(target.eta @ mu)
    return y, target, event, psi_true


def _polyhedral_uniformity_rep(params, seed, rep):
    y, target, event, psi_true = _screening_rep_common(params, seed, rep)
    p = poly.selective_pvalue_linear(event, target, y, 1.0, psi_true, "greater")
    return [_row(rep, estimate=target.statistic(y), pvalue=p)]


def _polyhedral_coverage_rep(params, seed, rep):
    y, target, event, psi_true = _screening_rep_common(params, seed, rep)
    diagnostics = {}
    lo, hi = poly.selective_ci_linear(event, target, y, 1.0, params["level"],
                                      diagnostics=diagnostics)
    p = poly.selective_pvalue_linear(event, target, y, 1.0, psi_true, "greater")
    # not an InferenceResult: that would flag estimate-outside-ci and reject NaN bounds
    return [_row(rep, flags=diagnostics.get("flags", []), estimate=target.statistic(y),
                 lo=lo, hi=hi, covered=float(lo <= psi_true <= hi), length=hi - lo,
                 pvalue=p)]


# two-stage

def _two_stage_rep(params, seed, rep):
    rng = rep_rng(seed, rep)
    prior = ts.SampleSizePrior(tuple(params["prior"]["support"]),
                               np.asarray(params["prior"]["probs"], dtype=float))
    theta = params["theta"]
    z = params.get("threshold", ts.DEFAULT_THRESHOLD)
    n2 = params["n2"]
    support = np.array(prior.support)
    n1 = int(rng.choice(support, p=prior.probs))
    while True:
        stage1 = theta + rng.standard_normal(n1)
        if stage1.sum() > z * math.sqrt(n1):
            break
        # the joint regime conditions on selection jointly with n1
        if params["regime"] == "joint":
            n1 = int(rng.choice(support, p=prior.probs))
    stage2 = theta + rng.standard_normal(n2)
    data = ts.TwoStageData(stage1, stage2, z)
    pair = ts.compare_two_stage_inference(data, prior, params["level"])
    return [
        _row(rep, pair.conditional, covered=float(pair.conditional.covers(theta)),
             flags=["kind=conditional"]),
        _row(rep, pair.unconditional, covered=float(pair.unconditional.covers(theta)),
             flags=["kind=unconditional"]),
    ]


# location

def _location_coverage_rep(params, seed, rep):
    rng = rep_rng(seed, rep)
    fam = loc.get_family(params["family"])
    theta = params["theta"]
    alpha = params["selection_alpha"]
    n = params["n"]
    while True:
        y = theta + fam.sampler(rng, n)
        conf = loc.decompose(y, fam)
        if loc.location_pvalue(conf, fam) <= alpha:
            break
    res = loc.selective_location_inference(conf, fam, alpha, params["level"])
    return [_row(rep, res, covered=float(res.covers(theta)))]


# ancillarity audits

def _ancillarity_rep(params, seed, rep):
    n_audits = params["audits"]
    if rep == n_audits:
        model, sel = anc.g_counterexample()
        base = anc.is_G_ancillary(model, 0)
        selective = anc.is_G_ancillary(anc.apply_selection(model, sel), 0)
        # the constructed instance must break the equivalence
        failed_as_expected = base.ancillary != selective.ancillary
        row = _row(rep, covered=float(failed_as_expected),
                   flags=["counterexample",
                          f"base={base.ancillary}", f"selective={selective.ancillary}"])
        return [row]
    rng = rep_rng(seed, rep)
    model = anc.random_finite_model(rng)
    sel = anc.random_positive_selection(rng, model)
    g_rep = anc.check_G_preservation(model, sel)
    m_rep = anc.check_M_preservation(model, sel, params["eps"])
    ok = g_rep.passed and m_rep.passed
    return [_row(rep, covered=float(ok),
                 flags=[f"g={'ok' if g_rep.passed else 'fail'}",
                        f"m={'ok' if m_rep.passed else 'fail'}"])]


_REPLICATORS = {
    "winners-coverage": _winners_coverage_rep,
    "winners-compare": _winners_compare_rep,
    "polyhedral-uniformity": _polyhedral_uniformity_rep,
    "polyhedral-coverage": _polyhedral_coverage_rep,
    "two-stage-compare": _two_stage_rep,
    "location-coverage": _location_coverage_rep,
    "ancillarity-audit": _ancillarity_rep,
}


def n_replications(scenario: str, params: dict) -> int:
    if scenario == "ancillarity-audit":
        return params["audits"] + (1 if params.get("counterexample", False) else 0)
    return params["n_reps"]


def run_replication(scenario: str, params: dict, seed: int, rep: int) -> list:
    """One replication; failures come back as flagged rows, not exceptions."""
    try:
        return _REPLICATORS[scenario](params, seed, rep)
    except Exception as exc:  # noqa: BLE001 - per-replication failures are data
        return [_row(rep, flags=[f"error={type(exc).__name__}"])]


def _finite(values):
    arr = np.asarray(values, dtype=float)
    return arr[np.isfinite(arr)]


def _coverage_stats(rows, level):
    covered = _finite([r["covered"] for r in rows])
    lengths = _finite([r["length"] for r in rows])
    return {
        "nominal_level": level,
        "coverage": float(covered.mean()) if covered.size else math.nan,
        "n_covered_rows": int(covered.size),
        "median_length": float(np.median(lengths)) if lengths.size else math.nan,
    }


# the two kinds a compare scenario pairs per replication, in the order its
# pairwise statistic takes them
_COMPARED_KINDS = {
    "winners-compare": ("full-vector", "conditional-on-losers"),
    "two-stage-compare": ("conditional", "unconditional"),
}
_KS_SCENARIOS = ("winners-coverage", "location-coverage", "polyhedral-coverage",
                 "polyhedral-uniformity")


def summarize(scenario: str, params: dict, rows: list) -> dict:
    """Summary statistics, recomputable from the per-replication rows alone."""
    out = {"scenario": scenario}
    if scenario == "ancillarity-audit":
        audit_rows = [r for r in rows if "counterexample" not in r["flags"]]
        cx_rows = [r for r in rows if "counterexample" in r["flags"]]
        passed = _finite([r["covered"] for r in audit_rows])
        out["n_audits"] = len(audit_rows)
        out["n_audits_passed"] = int(passed.sum()) if passed.size else 0
        out["all_audits_passed"] = bool(passed.size and passed.sum() == len(audit_rows))
        if cx_rows:
            out["counterexample_failed_as_expected"] = bool(cx_rows[0]["covered"] == 1.0)
        return out
    out["n_rows"] = len(rows)
    if scenario in _COMPARED_KINDS:
        # both kinds are seeded, so a summary of rows that all errored still has each
        first, second = _COMPARED_KINDS[scenario]
        by_kind = {first: {}, second: {}}
        for r in rows:
            for token in r["flags"].split(";"):
                if token.startswith("kind="):
                    by_kind.setdefault(token[5:], {})[r["rep"]] = r
        for kind, sub in sorted(by_kind.items()):
            stats = _coverage_stats(list(sub.values()), params["level"])
            out[f"coverage[{kind}]"] = stats["coverage"]
            out[f"median_length[{kind}]"] = stats["median_length"]
        pairs = [(a, by_kind[second][rep]) for rep, a in by_kind[first].items()
                 if rep in by_kind[second]]
        if scenario == "winners-compare":
            ratios = [a["length"] / b["length"] for a, b in pairs
                      if math.isfinite(a["length"]) and math.isfinite(b["length"])
                      and b["length"] > 0]
            out["n_length_ratios"] = len(ratios)
            out["median_length_ratio"] = float(np.median(ratios)) if ratios else math.nan
        else:
            deltas = _finite([b["estimate"] - a["estimate"] for a, b in pairs])
            out["mean_abs_estimate_delta"] = (
                float(np.mean(np.abs(deltas))) if deltas.size else math.nan
            )
    elif scenario in _KS_SCENARIOS:
        if scenario != "polyhedral-uniformity":
            out.update(_coverage_stats(rows, params["level"]))
        out["ks_pvalue_uniform"] = ks_uniform(_finite([r["pvalue"] for r in rows]))
    else:
        raise ValueError(f"unknown scenario {scenario!r}")
    return out
