"""Command-line interface: seeded simulation studies and one-shot inference.

Exit codes: 0 success, 1 usage or configuration error, 2 numeric failure,
3 acceptance check failed.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import location as loc
from . import polyhedral as poly
from . import two_stage as ts
from . import winners as win
from .harness import ConfigError, load_config, run, verify_summary, write_outputs
from .results import InferenceResult

SEED_ENV_VAR = "SELECTCOND_SEED"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_CHECK_FAILED = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="selectcond",
                     description="Conditional inference after selection: "
                                 "experiments and one-shot analyses.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a config-driven Monte-Carlo study")
    sim.add_argument("config", help="path to a JSON experiment configuration")
    sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    sim.add_argument("--jobs", type=int, default=None, help="worker count")
    sim.add_argument("--out", default=".", help="output directory")
    sim.add_argument("--level", type=float, default=None,
                     help="override the confidence level param")

    inf = sub.add_parser("infer", help="one-shot inference on user-supplied data")
    inf.add_argument("scenario",
                     choices=["winners", "two-stage", "location", "polyhedral"])
    inf.add_argument("--data", default="-",
                     help="CSV/whitespace numbers file, or - for stdin")
    inf.add_argument("--level", type=float, default=0.9)
    inf.add_argument("--kind", default="conditional-on-losers",
                     choices=[k.value for k in win.WinnersModelKind],
                     help="winners sampling model")
    inf.add_argument("--sigma", type=float, default=1.0, help="winners: known scale")
    inf.add_argument("--n1", type=int, default=None,
                     help="two-stage: first n1 numbers form stage 1")
    inf.add_argument("--threshold", type=float, default=1.96,
                     help="two-stage selection / screening threshold")
    inf.add_argument("--family", default="gaussian",
                     choices=sorted(loc.FAMILIES), help="location family")
    inf.add_argument("--alpha", type=float, default=None,
                     help="location: selection level used at screening")
    inf.add_argument("--design", default=None,
                     help="polyhedral: CSV design matrix path")
    inf.add_argument("--coordinate", type=int, default=0,
                     help="polyhedral: index within the selected set")
    inf.add_argument("--sigma2", type=float, default=1.0,
                     help="polyhedral: known noise variance")

    chk = sub.add_parser("check-ancillarity",
                         help="audit ancillarity preservation on random finite models")
    chk.add_argument("--audits", type=int, default=200)
    chk.add_argument("--eps", type=float, default=0.05)
    chk.add_argument("--counterexample", action="store_true",
                     help="also run the zero-probability counterexample")
    chk.add_argument("--seed", type=int, default=None)
    chk.add_argument("--jobs", type=int, default=1)
    chk.add_argument("--out", default=None, help="write the report JSON here")
    return parser


def _resolve_seed(flag_value, fallback=0) -> int:
    if flag_value is not None:
        return int(flag_value)
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
    return fallback


def _read_numbers(source: str) -> np.ndarray:
    if source == "-":
        text = sys.stdin.read()
    else:
        with open(source) as fh:
            text = fh.read()
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("no numeric data supplied")
    values = np.array([float(t) for t in tokens])
    if not np.all(np.isfinite(values)):
        raise _UsageError("--data values must be finite")
    return values


def _result_json(res: InferenceResult) -> str:
    return json.dumps(dataclasses.asdict(res), indent=2, sort_keys=True, default=str)


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    overrides = {}
    if args.seed is not None or os.environ.get(SEED_ENV_VAR) is not None:
        overrides["seed"] = _resolve_seed(args.seed, config.seed)
    if args.jobs is not None:
        overrides["parallelism"] = args.jobs
    if args.level is not None:
        params = dict(config.params)
        if "level" not in params:
            raise ConfigError(f"scenario {config.scenario} takes no level param")
        params["level"] = args.level
        overrides["params"] = params
    if overrides:
        config = config.replace(**overrides)
    result = run(config)
    paths = write_outputs(result, args.out)
    if not verify_summary(result):
        print("summary verification failed", file=sys.stderr)
        return EXIT_NUMERIC
    print(json.dumps({"outputs": paths, "summary": result.summary},
                     indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_infer(args) -> int:
    if not 0.0 < args.level < 1.0:
        raise _UsageError("--level must be in (0, 1)")
    for flag, value in (("--sigma", args.sigma), ("--sigma2", args.sigma2)):
        if not 0.0 < value < math.inf:
            raise _UsageError(f"{flag} must be positive and finite")
    if args.scenario in ("two-stage", "polyhedral") and not math.isfinite(args.threshold):
        raise _UsageError("--threshold must be finite")
    if args.scenario == "winners":
        y = _read_numbers(args.data)
        res = win.infer_winner(win.WinnersData(y, args.sigma), args.kind, args.level)
    elif args.scenario == "two-stage":
        values = _read_numbers(args.data)
        if args.n1 is None:
            raise _UsageError("two-stage inference requires --n1")
        if not 1 <= args.n1 <= values.size:
            raise _UsageError(f"--n1 must be in [1, {values.size}], the number of values")
        data = ts.TwoStageData(values[:args.n1], values[args.n1:], args.threshold)
        res = ts.infer_conditional(data, args.level)
    elif args.scenario == "location":
        if args.alpha is None:
            raise _UsageError("location inference requires --alpha (selection level)")
        if not 0.0 < args.alpha <= 1.0:
            raise _UsageError("--alpha must be in (0, 1]")
        y = _read_numbers(args.data)
        fam = loc.get_family(args.family)
        conf = loc.decompose(y, fam)
        res = loc.selective_location_inference(conf, fam, args.alpha, args.level)
    else:
        if args.design is None:
            raise _UsageError("polyhedral inference requires --design")
        if not args.threshold >= 0.0:
            raise _UsageError("--threshold must be nonnegative for polyhedral screening")
        X = np.loadtxt(args.design, delimiter=",", ndmin=2)
        y = _read_numbers(args.data)
        if X.shape[0] != y.size:
            raise _UsageError(f"--design has {X.shape[0]} rows but the data has "
                              f"{y.size} values")
        if not poly._has_unit_columns(X):
            raise _UsageError("--design columns must have unit length "
                              "(see selectcond.polyhedral.normalize_columns)")
        s, event = poly.marginal_screening_event(X, y, args.threshold)
        if not 0 <= args.coordinate < len(s):
            raise _UsageError(f"--coordinate outside the selected set of size {len(s)}")
        target = poly.projection_target(X, s, args.coordinate)
        ci = poly.selective_ci_linear(event, target, y, args.sigma2, args.level)
        pv = poly.selective_pvalue_linear(event, target, y, args.sigma2, 0.0, "two-sided")
        res = InferenceResult(target.statistic(y), ci, pv, "polyhedral",
                              {"selected": list(s), "coordinate": args.coordinate})
    print(_result_json(res))
    return EXIT_OK


def _cmd_check_ancillarity(args) -> int:
    from .harness.config import parse_config

    seed = _resolve_seed(args.seed)
    config = parse_config({
        "scenario": "ancillarity-audit",
        "params": {"audits": args.audits, "eps": args.eps,
                   "counterexample": bool(args.counterexample)},
        "seed": seed,
        "parallelism": args.jobs,
    })
    result = run(config)
    report = result.summary
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.out:
        write_outputs(result, args.out)
    if not report["all_audits_passed"]:
        print("ancillarity preservation audit failed", file=sys.stderr)
        return EXIT_CHECK_FAILED
    if args.counterexample and not report.get("counterexample_failed_as_expected", False):
        print("counterexample unexpectedly preserved ancillarity", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "infer":
            return _cmd_infer(args)
        return _cmd_check_ancillarity(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
