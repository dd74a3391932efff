"""Fast self-test of the benchmark itself, at tiny sizes (about a minute):

    python3 bench/selftest.py

It checks that
- every workload gives identical inputs for the same seed and different
  inputs for a different seed;
- a tiny run of every workload, untraced and traced, passes its correctness
  checks and reports every metric of BENCHMARK.json with its unit;
- quadrature nodes are 0 on mc-closed-form and above 0 on mc-quadrature;
- the watchdog stops a hung op (a winners-coverage replication whose
  selection event has probability about 1e-30) and records it as failed;
- the benchmark exits non-zero, printing no result, in a directory holding
  only BENCHMARK.json and the benchmark's own files.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

bench.import_package()

import workloads  # noqa: E402
from workloads import Op  # noqa: E402

SEED = 7
TINY_SECONDS = "0.2"


def _benchmark_doc() -> dict:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def check_inputs(tmp: str) -> list:
    failures = []
    for name in workloads.WORKLOADS:
        def fp(seed):
            return workloads.make_workload(name, seed, os.path.join(tmp, f"{name}-{seed}"),
                                           small=True).fingerprint()
        first, again, other = fp(SEED), fp(SEED), fp(SEED + 1)
        if first != again:
            failures.append(f"{name}: the same seed gave different inputs")
        if first == other:
            failures.append(f"{name}: a different seed gave the same inputs")
    return failures


def check_runs(doc: dict) -> list:
    failures = []
    expected = {0: {m["name"]: m["unit"] for m in doc["end_to_end"]},
                1: {m["name"]: m["unit"] for m in doc["per_layer"]}}
    nodes = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            args = bench.parse_args(["--workload", name, "--seed", str(SEED),
                                     "--seconds", TINY_SECONDS, "--trace", str(trace)])
            args.setup_runs = 1
            args.small = True
            with contextlib.redirect_stdout(io.StringIO()) as out:
                result = bench.run(args)
            where = f"{name} --trace {trace}"
            if not result["correct"]:
                failures.append(f"{where}: not correct\n{out.getvalue()}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got if k in expected[trace]
                               and got[k] != expected[trace][k])
                failures.append(f"{where}: missing {missing}, extra {extra}, "
                                f"wrong units {wrong}")
            if trace:
                nodes[name] = sum(result["metrics"][f"quad.{k}.nodes"]["value"]
                                  for k in ("log_integral_panels", "log_integral_gl"))
    if nodes.get("mc-closed-form") != 0:
        failures.append(f"mc-closed-form: quadrature nodes {nodes.get('mc-closed-form')} != 0")
    if not nodes.get("mc-quadrature", 0) > 0:
        failures.append("mc-quadrature: no quadrature nodes counted")
    return failures


class _HungWorkload:
    uses_pool = False

    def round(self, r):
        params = {"m": 3, "theta": [-12.0, 0.0, 0.0], "level": 0.9, "n_reps": 1}
        return [Op("winners-coverage-hung", "winners-coverage",
                   lambda: workloads._replicate("winners-coverage", params, SEED, r))]

    def op_errors(self, op, result):
        return workloads._row_errors(result)


def check_watchdog() -> list:
    saved = bench.OP_TIMEOUT_S
    bench.OP_TIMEOUT_S = 1.0
    try:
        records, hung = bench.measure(_HungWorkload(), 10.0)
    finally:
        bench.OP_TIMEOUT_S = saved
    if not hung or len(records) != 1 or records[0].errors != ["OpTimeout"]:
        return [f"watchdog: hung={hung}, records={records}"]
    return []


def check_without_program(tmp: str) -> list:
    bare = os.path.join(tmp, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "one-shot",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"without the program: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    doc = _benchmark_doc()
    failures = []
    if tuple(w["name"] for w in doc["workloads"]) != workloads.WORKLOADS:
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    tmp = tempfile.mkdtemp(prefix=".bench-tmp-", dir=bench.ROOT)
    try:
        for check in (lambda: check_inputs(tmp), lambda: check_runs(doc), check_watchdog,
                      lambda: check_without_program(tmp)):
            failures += check()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for msg in failures:
        print(f"FAIL {msg}")
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
