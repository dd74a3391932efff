"""Compare two checkouts on one benchmark workload, in alternating pairs.

    python scripts/bench_pairs.py PARENT CHANGE --workload mc-quadrature --pairs 10 --seconds 20

PARENT and CHANGE are the roots of two checkouts, each holding bench/run.py.
Pair i runs `bench/run.py --trace 0` once in each tree with seed SEED + i;
even pairs run PARENT first and odd pairs CHANGE first, so that a drift in
the host's speed falls on both sides. Every run prints one line as it ends.
The report gives, per metric, each tree's median and quartiles, the pairs
the change won in the metric's better direction (from CHANGE's
BENCHMARK.json), and the median and range of the per-pair ratio
change / parent. Standard library only. The exit code is 0 when every run
was correct with no failed op, 1 otherwise.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in root: its JSON result, from the last stdout line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{root}: bench/run.py printed no result (exit {proc.returncode})")


def directions(root: Path) -> dict:
    """metric name -> "higher" or "lower", from root's BENCHMARK.json."""
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError):
        return {}
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer")
            for m in spec.get(key, [])}


def spread(values: list) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def report(parent: list, change: list, better: dict) -> list:
    names = [n for n in parent[0]["metrics"] if all(n in r["metrics"] for r in parent + change)]
    lines = [f"{'metric':<24} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
             f"{'wins':>6} {'ratio median (min-max)':>26}"]
    for name in names:
        old = [r["metrics"][name]["value"] for r in parent]
        new = [r["metrics"][name]["value"] for r in change]
        side = better.get(name)
        wins = "?" if side is None else str(sum(
            (b > a) if side == "higher" else (b < a) for a, b in zip(old, new)))
        ratios = [b / a for a, b in zip(old, new) if a]
        ratio = (f"{statistics.median(ratios):.4g} ({min(ratios):.4g}-{max(ratios):.4g})"
                 if ratios else "-")
        lines.append(f"{name:<24} {spread(old):>30} {spread(new):>30} "
                     f"{wins + '/' + str(len(old)):>6} {ratio:>26}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=7100, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    results = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            res = run_once(getattr(args, side), args.workload, seed, args.seconds)
            results[side].append(res)
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"pair {i + 1} seed {seed} {side}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} {shown}", flush=True)
    print()
    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s")
    print("\n".join(report(results["parent"], results["change"], directions(args.change))))
    ok = all(r["correct"] and r["failed"] == 0 for rs in results.values() for r in rs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
