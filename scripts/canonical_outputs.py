"""Run every canonical study of one checkout into one output tree.

    python scripts/canonical_outputs.py ROOT OUT

ROOT is the root of a checkout. Each `ROOT/scripts/configs/<name>.json`
runs as `selectcond simulate` with `ROOT/src` first on the path and its
own parallelism, into `OUT/<name>`. Comparing two checkouts is then two
runs and one call of `scripts/csv_moves.py` on the two OUT trees.
Standard library only. The exit code is 0 when every study exited 0, else
the first nonzero exit code.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", type=Path, help="checkout holding src/ and scripts/configs/")
    parser.add_argument("out", type=Path, help="output directory, one subdirectory per config")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    configs = sorted((root / "scripts" / "configs").glob("*.json"))
    if not configs:
        print(f"no configs under {root / 'scripts' / 'configs'}", file=sys.stderr)
        return 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    status = 0
    for config in configs:
        out = args.out / config.stem
        proc = subprocess.run(
            [sys.executable, "-m", "selectcond.cli", "simulate", str(config), "--out", str(out)],
            env=env, stdout=subprocess.DEVNULL)
        print(f"{config.stem}: exit {proc.returncode}", flush=True)
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
