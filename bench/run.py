"""selectcond benchmark: study throughput and one-shot latency.

Run from the root of a checkout (builds nothing; imports ./src):

    python3 bench/run.py --workload mc-quadrature --seed 1 --seconds 15 --trace 0

Workloads are defined in workloads.py and described in README.md. With
--trace 0 the last line of stdout is a JSON object holding every end-to-end
metric; with --trace 1 it holds every per-layer metric, from a traced run
timed against an untraced run of the same rounds. The exit code is 0 only
when every correctness check passed and no op failed.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# an op slower than this is hung: it is recorded as failed and the run ends
OP_TIMEOUT_S = 30.0
POOL_OP_TIMEOUT_S = 60.0
CHECK_TIMEOUT_S = 60.0
# set-up probes per run, a few before measuring and the rest after, so that
# their median does not rest on one stretch of the host's speed
SETUP_RUNS = 7
SETUP_TIMEOUT_S = 40.0


class OpTimeout(BaseException):
    """Raised by the watchdog alarm. A BaseException, so that the harness's
    per-replication `except Exception` cannot turn it into a row."""


def _on_alarm(signum, frame):
    raise OpTimeout()


class watchdog:
    """Raise OpTimeout in the main thread after `seconds`."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        return False


@dataclass
class Record:
    label: str
    scenario: Any
    round: int
    weight: int
    ms: float
    result: Any
    errors: list


def import_package():
    """Import selectcond from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "selectcond", "__init__.py")):
        raise ImportError(f"no selectcond package under {SRC}")
    sys.path.insert(0, SRC)
    import selectcond

    if os.path.dirname(os.path.dirname(os.path.abspath(selectcond.__file__))) != SRC:
        raise ImportError(f"selectcond imported from {selectcond.__file__}, not {SRC}")
    return selectcond


def measure(workload, seconds: float, tracer=None) -> tuple:
    """Run whole rounds until `seconds` have passed; returns (records, hung)."""
    records = []
    timeout = POOL_OP_TIMEOUT_S if workload.uses_pool else OP_TIMEOUT_S
    deadline = time.perf_counter() + seconds
    r = 0
    while True:
        for op in workload.round(r):
            result, errors, hung = None, [], False
            span = tracer.begin_op(len(records)) if tracer is not None else None
            t0 = time.perf_counter()
            try:
                with watchdog(timeout):
                    result = op.fn()
            except OpTimeout:
                errors, hung = ["OpTimeout"] * op.weight, True
            except Exception as exc:  # noqa: BLE001 - a failed op is data
                errors = [type(exc).__name__] * op.weight
            ms = (time.perf_counter() - t0) * 1e3
            if span is not None:
                tracer.end_op(span)
            if result is not None:
                errors = workload.op_errors(op, result)
            records.append(Record(op.label, op.scenario, r, op.weight, ms, result, errors))
            if hung:
                return records, True
        r += 1
        if time.perf_counter() >= deadline:
            return records, False


def _quantile(values, q: float) -> float:
    import numpy as np

    return float(np.quantile(np.asarray(values, dtype=float), q)) if values else 0.0


def _peak_rss_kb() -> int:
    """Peak RSS of this process plus that of the largest child it waited for,
    in KiB. VmHWM covers this process image since its exec; ru_maxrss of a
    process started by another also counts the memory of its parent."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as fh:
            own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    return own + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def _setup_probes(args, runs: int) -> tuple:
    """`runs` fresh interpreters that each import, build the inputs and run one
    warm-up op per scenario or kind. Returns their wall times (s) and the
    peak RSS each reported (KiB)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    seconds, rss = [], []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=SETUP_TIMEOUT_S)
        seconds.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        rss.append(int(proc.stdout.split()[-1]))
    return seconds, rss


def _build(args, workdir: str):
    import workloads

    wl = workloads.make_workload(args.workload, args.seed, workdir, small=args.small)
    for op in wl.warmup_ops():
        op.fn()
    return wl


def _counts(records) -> tuple:
    attempted = sum(rec.weight for rec in records)
    failed = sum(min(rec.weight, len(rec.errors)) for rec in records)
    hist = Counter(e for rec in records for e in rec.errors)
    return attempted, failed, hist


def _check(workload, records) -> list:
    try:
        with watchdog(CHECK_TIMEOUT_S):
            return workload.check(records)
    except OpTimeout:
        return ["correctness checks timed out"]


def _scenario_quantiles(records) -> dict:
    from tracing import SCENARIOS

    out = {}
    for scen in SCENARIOS:
        ms = [rec.ms for rec in records if rec.scenario == scen]
        out[f"scenario.{scen}.rep_ms_p50"] = _quantile(ms, 0.5)
        out[f"scenario.{scen}.rep_ms_p95"] = _quantile(ms, 0.95)
    return out


def _ops_per_s(records) -> float:
    total_ms = sum(rec.ms for rec in records)
    return sum(rec.weight for rec in records) / (total_ms / 1e3) if total_ms else 0.0


def run_end_to_end(args, workdir: str) -> tuple:
    setup, rss = _setup_probes(args, args.setup_runs // 2)
    wl = _build(args, workdir)
    records, hung = measure(wl, args.seconds)
    failures = _check(wl, records)
    if hung:
        failures.append("an op hung and was stopped by the watchdog")
    after = _setup_probes(args, args.setup_runs - args.setup_runs // 2)
    setup, rss = setup + after[0], rss + after[1]
    # simulate-jobs2 cannot time single replications from outside the pool, so
    # each replication's latency is its CLI call's wall time over the call's
    # replications; quantiles are over replications, as ops_per_s counts them
    lat = [rec.ms / rec.weight for rec in records for _ in range(rec.weight)]
    attempted, failed, hist = _counts(records)
    metrics = {
        "ops_per_s": (_ops_per_s(records), "1/s"),
        "op_ms_p50": (_quantile(lat, 0.5), "ms"),
        "op_ms_p95": (_quantile(lat, 0.95), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        # measured in the set-up probes, so that it does not grow with the
        # number of results this process keeps for its checks
        "peak_rss_mb": (statistics.median(rss) / 1024.0, "MB"),
    }
    info = {"ops": attempted, "rounds": len({rec.round for rec in records}),
            "latency_samples": len(lat), "error_ratio": failed / max(attempted, 1),
            "errors": dict(hist), "setup_runs_s": setup}
    return metrics, attempted, failed, failures, info


def run_traced(args, workdir: str) -> tuple:
    import workloads
    from tracing import Tracer

    wl = _build(args, workdir)
    failures = []
    extra = {}
    serial_records, hung_s = [], False
    phase_s = args.seconds / (3 if wl.uses_pool else 2)
    if wl.uses_pool:
        # the same studies run serially, for the pool's speed-up
        serial = workloads.make_workload("mc-closed-form", args.seed, workdir)
        for op in serial.warmup_ops():
            op.fn()
        serial_records, hung_s = measure(serial, phase_s)
        failures += _check(serial, serial_records)
        extra["serial_ops_per_s"] = _ops_per_s(serial_records)
    plain, hung_a = measure(wl, phase_s)
    tracer = Tracer()
    tracer.install()
    try:
        traced, hung_b = measure(wl, phase_s, tracer=tracer)
    finally:
        tracer.uninstall()
    if hung_s or hung_a or hung_b:
        failures.append("an op hung and was stopped by the watchdog")
    failures += _check(wl, plain)
    failures += _check(wl, traced)
    plain_by_key = {(rec.label, rec.round): rec for rec in plain}
    for rec in traced:
        other = plain_by_key.get((rec.label, rec.round))
        if (other is not None and rec.result is not None and other.result is not None
                and wl.canonical(rec.result) != wl.canonical(other.result)):
            failures.append(f"{rec.label} round {rec.round}: traced result differs")
    n_ops = sum(rec.weight for rec in traced)
    layer = tracer.layer_metrics(n_ops)
    plain_rate, traced_rate = _ops_per_s(plain), _ops_per_s(traced)
    layer["trace.overhead_ops_per_s"] = plain_rate - traced_rate
    layer["trace.overhead_share"] = (plain_rate - traced_rate) / plain_rate if plain_rate else 0.0
    csv_bytes = sum(len(rec.result[1]) for rec in traced
                    if wl.uses_pool and rec.result is not None)
    layer["harness.csv_bytes"] = csv_bytes / max(n_ops, 1)
    layer["harness.jobs2_speedup"] = (plain_rate / extra["serial_ops_per_s"]
                                      if extra.get("serial_ops_per_s") else 0.0)
    # replications are timed one by one only where they run serially
    layer.update(_scenario_quantiles(serial_records if wl.uses_pool else plain))
    out_dir = os.path.join(ROOT, ".bench-out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.npz"))
    attempted, failed, hist = _counts(serial_records + plain + traced)
    info = {"untraced_ops": sum(rec.weight for rec in plain), "traced_ops": n_ops,
            "spans": len(tracer.name), "error_ratio": failed / max(attempted, 1),
            "errors": dict(hist), **extra}
    units = per_layer_units()
    metrics = {name: (layer[name], unit) for name, unit in units.items()}
    return metrics, attempted, failed, failures, info


def per_layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc["per_layer"]}


def run(args) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    workdir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        runner = run_traced if args.trace else run_end_to_end
        metrics, attempted, failed, failures, info = runner(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    mode = "traced" if args.trace else "end-to-end"
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} {mode}")
    for key, value in info.items():
        print(f"#   {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>14.6g} {unit}")
    print(f"{'error_ratio':<48} {failed / max(attempted, 1):>14.6g} ratio "
          f"({failed}/{attempted})")
    for msg in failures:
        print(f"CHECK FAILED: {msg}")
    return {
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def parse_args(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one fresh-interpreter set-up, timed by the parent run
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    args.setup_runs = SETUP_RUNS
    args.small = False
    return args


def main(argv=None) -> int:
    try:
        import_package()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    if args.setup_probe:
        workdir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
        try:
            _build(args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(_peak_rss_kb())
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
