"""The four benchmark workloads: inputs built from a seed, the ops of one
round, and the correctness checks on what the ops returned.

Every workload is closed-loop with one caller: a round is a fixed list of
ops, run one after another, and the benchmark runs whole rounds until its
time is up. Round r of a workload is a pure function of (seed, r).
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional

import numpy as np

from selectcond import cli
from selectcond import distributions as dist
from selectcond import harness
from selectcond import location as loc
from selectcond import polyhedral as poly
from selectcond import selective as sel
from selectcond import two_stage as ts
from selectcond import winners as win
from selectcond.harness import RunResult, csv_to_rows, parse_config, rows_to_csv

# Coverage must sit within COVERAGE_Z binomial standard errors of the nominal
# level, and null p-values within KS_C / sqrt(n) of uniform in KS distance.
# Both bands are wide enough that a correct program fails them with
# probability below 1e-5 per check.
COVERAGE_Z = 5.0
KS_C = 2.5
# The generic SelectiveModel CI must reproduce the truncated-Gaussian CI for
# N(theta, 1) | y > c to this absolute tolerance in theta.
GENERIC_VS_TG_ATOL = 1e-7

LEVEL = 0.9


@dataclass(frozen=True)
class Op:
    """One timed call. weight is the number of replications or inference
    calls it performs (the unit of ops_per_s)."""

    label: str
    scenario: Optional[str]
    fn: Callable[[], Any]
    weight: int = 1


@dataclass(frozen=True)
class Study:
    label: str
    scenario: str
    params: dict
    # summary key holding a coverage claim valid under this study, or None
    coverage_key: Optional[str] = None


def _band_failures(study: Study, summary: dict, n: int) -> list:
    out = []
    if study.coverage_key is not None:
        cov = summary[study.coverage_key]
        half = COVERAGE_Z * math.sqrt(LEVEL * (1.0 - LEVEL) / n) + 1.0 / n
        if not abs(cov - LEVEL) <= half:
            out.append(f"{study.label}: {study.coverage_key}={cov:.4f} outside "
                       f"{LEVEL} +- {half:.4f} (n={n})")
    if study.scenario == "polyhedral-uniformity":
        ks = summary["ks_pvalue_uniform"]
        if not ks <= KS_C / math.sqrt(n):
            out.append(f"{study.label}: KS distance {ks:.4f} > {KS_C}/sqrt({n})")
    if study.scenario == "ancillarity-audit" and not summary["all_audits_passed"]:
        out.append(f"{study.label}: an ancillarity audit failed")
    return out


def _study_params(study: Study, n: int) -> dict:
    params = dict(study.params)
    if study.scenario == "ancillarity-audit":
        params["audits"] = n
    else:
        params["n_reps"] = n
    return params


def _row_errors(rows) -> list:
    """One error type name per replication with an error=<Type> row flag."""
    by_rep = {}
    for row in rows:
        for tok in row["flags"].split(";"):
            if tok.startswith("error="):
                by_rep.setdefault(row["rep"], tok[len("error="):])
    return list(by_rep.values())


PRIOR = {"support": [5, 10, 20], "probs": [0.3, 0.4, 0.3]}
BETA = [0.8, -0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]

# the params of scripts/configs/, without the replication count; the
# ancillarity study leaves out the one counterexample replication that its
# config adds, so that every replication timed is an audit
QUADRATURE_STUDIES = (
    Study("location-coverage-logistic", "location-coverage",
          {"family": "logistic", "n": 5, "theta": 1.0, "selection_alpha": 0.1,
           "level": LEVEL}, "coverage"),
    Study("two-stage-compare-joint", "two-stage-compare",
          {"prior": PRIOR, "n2": 20, "theta": 0.5, "level": LEVEL, "regime": "joint"},
          "coverage[unconditional]"),
    Study("two-stage-compare-fixed-n1", "two-stage-compare",
          {"prior": PRIOR, "n2": 20, "theta": 0.5, "level": LEVEL, "regime": "fixed-n1"},
          "coverage[conditional]"),
    Study("winners-compare", "winners-compare",
          {"m": 5, "theta": [0.0, 0.5, 1.0, 1.5, 2.0], "level": LEVEL},
          "coverage[conditional-on-losers]"),
)

CLOSED_FORM_STUDIES = (
    Study("polyhedral-coverage", "polyhedral-coverage",
          {"n": 25, "p": 8, "threshold": 1.0, "beta": BETA, "level": LEVEL}, "coverage"),
    Study("polyhedral-uniformity", "polyhedral-uniformity",
          {"n": 25, "p": 8, "threshold": 1.0}),
    Study("winners-coverage", "winners-coverage",
          {"m": 5, "theta": [1.0, 0.0, 0.0, 0.0, 0.0], "level": LEVEL}, "coverage"),
    Study("ancillarity-audit", "ancillarity-audit", {"eps": 0.05}),
)


class ReplicationWorkload:
    """Serial replications through harness.run_replication, one replication of
    every study per round, replication index = round index."""

    uses_pool = False

    def __init__(self, studies, seed: int):
        self.studies = studies
        self.seed = seed

    def fingerprint(self) -> str:
        # the replication data is drawn inside the harness from (seed, rep),
        # so round 0's rows identify the inputs
        return rows_to_csv([row for op in self.round(0) for row in op.fn()])

    def round(self, r: int) -> list:
        # r + 1 replications in all, so that replication r is never the
        # ancillarity counterexample (run when rep == audits)
        return [Op(s.label, s.scenario,
                   partial(_replicate, s.scenario, _study_params(s, r + 1), self.seed, r))
                for s in self.studies]

    def warmup_ops(self) -> list:
        return self.round(0)

    def op_errors(self, op: Op, result) -> list:
        return _row_errors(result)

    def canonical(self, result) -> str:
        return rows_to_csv(result)

    def check(self, records) -> list:
        failures = []
        for study in self.studies:
            rows = [row for rec in records if rec.label == study.label and rec.result
                    for row in rec.result]
            n = sum(1 for rec in records if rec.label == study.label)
            failures += _verify_rows(study, rows, n, self.seed)
        return failures


def _replicate(scenario: str, params: dict, seed: int, rep: int) -> list:
    # looked up at call time, so that a traced run sees the wrapped function
    return harness.run_replication(scenario, params, seed, rep)


def _verify_rows(study: Study, rows, n: int, seed: int) -> list:
    if n == 0:
        return [f"{study.label}: no replications completed"]
    params = _study_params(study, n)
    config = parse_config({"scenario": study.scenario, "params": params, "seed": seed})
    summary = harness.summarize(study.scenario, params, rows)
    summary["seed"] = seed
    summary["n_replications"] = n
    if not harness.verify_summary(RunResult(config, rows, summary)):
        return [f"{study.label}: verify_summary failed"]
    return _band_failures(study, summary, n)


# simulate-jobs2: the closed-form studies through the CLI with a 2-worker pool.
# Every study runs the same number of replications per call, so that the mix
# of work is mc-closed-form's (one replication of each study per round) and the
# two workloads' ops_per_s, and harness.jobs2_speedup, compare like with like.
JOBS2_REPS = 500


class SimulateJobs2Workload:
    """`selectcond simulate <config> --jobs 2` for every closed-form study per
    round; round r uses seed + r, so round 0 matches mc-closed-form's seed."""

    uses_pool = True

    def __init__(self, seed: int, workdir: str, reps_scale: float = 1.0):
        self.seed = seed
        self.workdir = workdir
        self.studies = CLOSED_FORM_STUDIES
        self.n_reps = max(2, int(JOBS2_REPS * reps_scale))
        os.makedirs(workdir, exist_ok=True)
        self.config_paths = {}
        for s in self.studies:
            path = os.path.join(workdir, f"{s.label}.json")
            with open(path, "w") as fh:
                json.dump(self._config_doc(s, seed), fh)
            self.config_paths[s.label] = path

    def _config_doc(self, study: Study, seed: int) -> dict:
        return {"scenario": study.scenario,
                "params": _study_params(study, self.n_reps),
                "seed": seed, "parallelism": 1}

    def _round_seed(self, r: int) -> int:
        return (self.seed + r) % 2**64

    def fingerprint(self) -> str:
        return json.dumps([self._config_doc(s, self._round_seed(0)) for s in self.studies])

    def _simulate(self, study: Study, r: int, out_dir: str):
        argv = ["simulate", self.config_paths[study.label], "--jobs", "2",
                "--seed", str(self._round_seed(r)), "--out", out_dir]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        with open(os.path.join(out_dir, f"{study.scenario}.csv")) as fh:
            csv_text = fh.read()
        return code, csv_text

    def round(self, r: int) -> list:
        out_dir = os.path.join(self.workdir, f"r{r}")
        return [Op(s.label, s.scenario,
                   partial(self._simulate, s, r, os.path.join(out_dir, s.label)),
                   self.n_reps)
                for s in self.studies]

    def warmup_ops(self) -> list:
        return self.round(0)

    def op_errors(self, op: Op, result) -> list:
        code, csv_text = result
        if code != cli.EXIT_OK:
            return [f"exit-code-{code}"] * op.weight
        return _row_errors(csv_to_rows(csv_text))

    def canonical(self, result) -> str:
        return f"{result[0]}\n{result[1]}"

    def check(self, records) -> list:
        failures = []
        for study in self.studies:
            recs = [rec for rec in records if rec.label == study.label]
            if not recs:
                failures.append(f"{study.label}: no simulate call completed")
                continue
            # exit code 0 means the CLI's own verify_summary passed
            for rec in recs:
                if rec.result is not None and rec.result[0] != cli.EXIT_OK:
                    failures.append(f"{study.label}: round {rec.round} exited {rec.result[0]}")
            first = recs[0]
            if first.result is None:
                continue
            params = _study_params(study, self.n_reps)
            config = parse_config({"scenario": study.scenario, "params": params,
                                   "seed": self._round_seed(first.round), "parallelism": 1})
            serial = harness.run(config)
            if serial.csv_text != first.result[1]:
                failures.append(f"{study.label}: --jobs 2 CSV differs from the serial CSV")
            failures += _band_failures(study, serial.summary, self.n_reps)
        return failures


# one-shot: single inference calls on a seed-generated pool of datasets

# Rounds cycle through the pool. The scalar inputs of the generic-model kinds,
# which dominate a round's time, are Latin-hypercube strata of their ranges,
# so every cycle covers each range evenly whatever the seed.
POOL_SIZE = 16
DEEP_CUT = 30.0


def _strata(rng, lo: float, hi: float) -> list:
    """POOL_SIZE draws, one from each equal-width stratum of (lo, hi), shuffled."""
    u = (rng.permutation(POOL_SIZE) + rng.random(POOL_SIZE)) / POOL_SIZE
    return [float(lo + (hi - lo) * v) for v in u]


def _generic_model(kind: str, c: float):
    """N(theta, 1) selected by y > c, or by y + W > c with W ~ N(0, 1)."""
    selection = sel.indicator_above(c) if kind == "indicator" else sel.randomized_above(c, 1.0)
    return sel.SelectiveModel(sel.scalar_gaussian(1.0), selection)


def _generic_ci(kind: str, c: float, y: float):
    return sel.selective_ci(_generic_model(kind, c), y, LEVEL)


def _generic_mle(kind: str, c: float, y: float):
    return sel.selective_mle(_generic_model(kind, c), y)


def tg_ci(c: float, y: float):
    """The truncated-Gaussian CI for N(theta, 1) | y > c, the reference for
    the generic model with indicator selection."""
    def cdf(theta):
        return dist.truncated_cdf(y, dist.TruncatedGaussian(theta, 1.0, ((c, math.inf),)))
    return sel.invert_equal_tailed(cdf, LEVEL, y)


def _winners(y, kind: str):
    return win.infer_winner(win.WinnersData(np.asarray(y), 1.0), kind, LEVEL)


def _two_stage(stage1, stage2, threshold: float):
    return ts.infer_conditional(ts.TwoStageData(np.asarray(stage1), np.asarray(stage2),
                                                threshold), LEVEL)


def _location(y, family: str, alpha: float):
    fam = loc.get_family(family)
    conf = loc.decompose(np.asarray(y), fam)
    return loc.selective_location_inference(conf, fam, alpha, LEVEL)


def _polyhedral(X, y, threshold: float):
    s, event = poly.marginal_screening_event(X, y, threshold)
    target = poly.projection_target(X, s, 0)
    ci = poly.selective_ci_linear(event, target, y, 1.0, LEVEL)
    pv = poly.selective_pvalue_linear(event, target, y, 1.0, 0.0, "two-sided")
    return (target.statistic(y), ci[0], ci[1], pv)


def _deep_tg(mu: float, sigma: float, two_sided: bool):
    lo, hi = mu - DEEP_CUT * sigma, mu + DEEP_CUT * sigma
    ivs = ((-math.inf, lo), (hi, math.inf)) if two_sided else ((hi, math.inf),)
    return dist.TruncatedGaussian(mu, sigma, ivs)


def _truncated_cdf(x: float, mu: float, sigma: float, two_sided: bool):
    return dist.truncated_cdf(x, _deep_tg(mu, sigma, two_sided))


def _truncated_sf(x: float, mu: float, sigma: float, two_sided: bool):
    return dist.truncated_sf(x, _deep_tg(mu, sigma, two_sided))


def _truncated_quantile(q: float, mu: float, sigma: float, two_sided: bool):
    return dist.truncated_quantile(q, _deep_tg(mu, sigma, two_sided))


def _build_pool(seed: int) -> dict:
    """kind -> list of argument tuples; the kind's function takes them."""
    # a stream of its own, apart from the harness's (seed, replication) streams
    rng = np.random.Generator(np.random.Philox(key=[seed, 0x05E1EC7]))
    pool = {k: [] for k in ONE_SHOT_KINDS}
    X = poly.normalize_columns(rng.standard_normal((25, 8)))
    X.setflags(write=False)
    mu_x = X @ np.asarray(BETA)
    # cut c, and observation y above it (indicator) or around it (randomized)
    cuts = _strata(rng, -1.0, 2.0)
    above = _strata(rng, 0.3, 2.5)
    deep_above = _strata(rng, 0.1, 0.6)
    rand_cuts = _strata(rng, -1.0, 2.0)
    around = _strata(rng, -1.0, 2.5)
    for i in range(POOL_SIZE):
        c, y = cuts[i], cuts[i] + above[i]
        pool["generic.ci.indicator"].append(("indicator", c, y))
        pool["generic.mle.indicator"].append(("indicator", c, y))
        pool["generic.ci.indicator-deep"].append(("indicator", DEEP_CUT,
                                                  DEEP_CUT + deep_above[i]))
        c, y = rand_cuts[i], rand_cuts[i] + around[i]
        pool["generic.ci.randomized"].append(("randomized", c, y))
        pool["generic.mle.randomized"].append(("randomized", c, y))
        y5 = rng.permutation([0.0, 0.5, 1.0, 1.5, 2.0]) + rng.standard_normal(5)
        pool["winners.conditional-on-losers"].append((tuple(y5), "conditional-on-losers"))
        pool["winners.full-vector"].append((tuple(y5), "full-vector"))
        n1 = int(rng.choice(PRIOR["support"], p=PRIOR["probs"]))
        while True:
            stage1 = 0.5 + rng.standard_normal(n1)
            if stage1.sum() > ts.DEFAULT_THRESHOLD * math.sqrt(n1):
                break
        stage2 = 0.5 + rng.standard_normal(20)
        pool["two-stage.conditional"].append((tuple(stage1), tuple(stage2),
                                              ts.DEFAULT_THRESHOLD))
        family = ("gaussian", "laplace", "logistic")[len(pool["location"]) % 3]
        fam = loc.get_family(family)
        while True:
            yl = 1.0 + fam.sampler(rng, 5)
            if loc.location_pvalue(loc.decompose(yl, fam), fam) <= 0.1:
                break
        pool["location"].append((tuple(yl), family, 0.1))
        while True:
            yp = mu_x + rng.standard_normal(25)
            if np.any(np.abs(X.T @ yp) > 1.0):
                break
        pool["polyhedral.ci-linear"].append((X, yp, 1.0))
        mu = float(rng.uniform(-5.0, 5.0))
        sigma = float(rng.uniform(0.5, 2.0))
        two_sided = bool(rng.integers(2))
        x = mu + sigma * (DEEP_CUT + float(rng.exponential(1.0 / DEEP_CUT)))
        pool["truncated-cdf-deep"].append((x, mu, sigma, two_sided))
        pool["truncated-sf-deep"].append((x, mu, sigma, two_sided))
        pool["truncated-quantile-deep"].append((float(rng.uniform(0.01, 0.99)), mu, sigma,
                                                two_sided))
    return pool


# kind -> function of the pool entry's arguments
ONE_SHOT_KINDS = {
    "generic.ci.indicator": _generic_ci,
    "generic.ci.indicator-deep": _generic_ci,
    "generic.ci.randomized": _generic_ci,
    "generic.mle.indicator": _generic_mle,
    "generic.mle.randomized": _generic_mle,
    "winners.conditional-on-losers": _winners,
    "winners.full-vector": _winners,
    "two-stage.conditional": _two_stage,
    "location": _location,
    "polyhedral.ci-linear": _polyhedral,
    "truncated-cdf-deep": _truncated_cdf,
    "truncated-sf-deep": _truncated_sf,
    "truncated-quantile-deep": _truncated_quantile,
}


def canonical_result(result) -> tuple:
    """Numbers of an inference result, in a fixed order."""
    if hasattr(result, "ci"):
        return (float(result.estimate), float(result.ci[0]), float(result.ci[1]),
                float(result.pvalue))
    if isinstance(result, tuple):
        return tuple(float(v) for v in result)
    return (float(result),)


class OneShotWorkload:
    """One call of every kind per round, on pool entry r mod POOL_SIZE."""

    uses_pool = False

    def __init__(self, seed: int):
        self.seed = seed
        self.pool = _build_pool(seed)

    def fingerprint(self) -> str:
        return repr(self.pool)

    def round(self, r: int) -> list:
        i = r % POOL_SIZE
        return [Op(kind, None, partial(fn, *self.pool[kind][i]))
                for kind, fn in ONE_SHOT_KINDS.items()]

    def warmup_ops(self) -> list:
        return self.round(0)

    def op_errors(self, op: Op, result) -> list:
        return []

    def canonical(self, result) -> str:
        return repr(canonical_result(result))

    def check(self, records) -> list:
        from reference import check_reference

        failures = []
        for kind in ONE_SHOT_KINDS:
            if not any(rec.label == kind for rec in records):
                failures.append(f"{kind}: no call completed")
        used = sorted({rec.round % POOL_SIZE for rec in records})
        for kind in ("generic.ci.indicator", "generic.ci.indicator-deep"):
            seen = {}
            for rec in records:
                if rec.label == kind and rec.result is not None:
                    seen.setdefault(rec.round % POOL_SIZE, rec.result)
            for i, got in seen.items():
                _, c, y = self.pool[kind][i]
                want = tg_ci(c, y)
                if not all(abs(g - w) <= GENERIC_VS_TG_ATOL for g, w in zip(got, want)):
                    failures.append(f"{kind}[{i}]: generic CI {got} differs from the "
                                    f"truncated-Gaussian CI {want}")
        for i in used:
            x, mu, sigma, two_sided = self.pool["truncated-cdf-deep"][i]
            tg = _deep_tg(mu, sigma, two_sided)
            cdf = dist.truncated_cdf(x, tg)
            back = dist.truncated_quantile(cdf, tg)
            if not abs(back - x) <= 1e-9 * max(1.0, abs(x)):
                failures.append(f"truncated-cdf-deep[{i}]: quantile(cdf(x)) = {back} != {x}")
            sf = dist.truncated_sf(x, tg)
            if not abs(cdf + sf - 1.0) <= 1e-12:
                failures.append(f"truncated-sf-deep[{i}]: cdf(x) + sf(x) = {cdf + sf} != 1")
        failures += check_reference()
        return failures


def make_workload(name: str, seed: int, workdir: str, small: bool = False):
    """The named workload's inputs for a seed; small shrinks simulate-jobs2's
    calls for the self-test."""
    seed %= 2**64
    if name == "mc-quadrature":
        return ReplicationWorkload(QUADRATURE_STUDIES, seed)
    if name == "mc-closed-form":
        return ReplicationWorkload(CLOSED_FORM_STUDIES, seed)
    if name == "simulate-jobs2":
        return SimulateJobs2Workload(seed, workdir, reps_scale=0.05 if small else 1.0)
    if name == "one-shot":
        return OneShotWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("mc-quadrature", "mc-closed-form", "simulate-jobs2", "one-shot")
