"""Report how two trees of `selectcond simulate --out` outputs differ.

    PYTHONPATH=src python scripts/csv_moves.py OLD NEW

OLD and NEW are directories holding `<scenario>.csv` and
`<scenario>.summary.json` files at any depth; files pair up by their path
below the tree's root. For each CSV the report gives the row count and
the number of rows that differ; per column, the fields that moved, the
largest relative move among those finite on both sides, and, where any
did, how many turned infinite and how many turned finite; then the
`covered` flips and the flag changes. For
each summary it lists the keys whose values differ, with both values.
Fields compare by their text, so a move of one ulp shows. The exit code
is 0 when the trees match, 1 when anything differs.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from selectcond.harness import csv_to_rows

NUMERIC = ("estimate", "lo", "hi", "covered", "length", "pvalue")
# examples of flips and flag changes printed per CSV
SHOWN = 5


def _csv_report(name: str, old_text: str, new_text: str) -> list:
    old, new = csv_to_rows(old_text), csv_to_rows(new_text)
    lines = []
    if len(old) != len(new):
        lines.append(f"  row count {len(old)} -> {len(new)}; "
                     f"pairing the first {min(len(old), len(new))}")
    moved = {col: [] for col in NUMERIC}
    flips, flag_changes, differ = [], [], 0
    for a, b in zip(old, new):
        row_differs = a["rep"] != b["rep"] or a["flags"] != b["flags"]
        for col in NUMERIC:
            if repr(a[col]) != repr(b[col]):
                moved[col].append((a[col], b[col], a["rep"]))
                row_differs = True
        if repr(a["covered"]) != repr(b["covered"]):
            flips.append(f"rep {a['rep']}: {a['covered']} -> {b['covered']}")
        if a["flags"] != b["flags"]:
            flag_changes.append(f"rep {a['rep']}: {a['flags']!r} -> {b['flags']!r}")
        differ += row_differs
    lines.insert(0, f"{name}: {differ} of {len(new)} rows differ")
    for col, pairs in moved.items():
        if not pairs:
            continue
        finite = [(abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0, rep)
                  for x, y, rep in pairs if math.isfinite(x) and math.isfinite(y)]
        line = f"  {col}: {len(pairs)} moved"
        if finite:
            rel, rep = max(finite)
            line += f", largest relative move {rel:.3g} (rep {rep})"
        lines.append(line)
        to_inf = sum(math.isfinite(x) and math.isinf(y) for x, y, _ in pairs)
        to_fin = sum(math.isinf(x) and math.isfinite(y) for x, y, _ in pairs)
        if to_inf or to_fin:
            lines.append(f"  {col}: {to_inf} turned infinite, {to_fin} turned finite")
    for label, items in (("covered flips", flips), ("flag changes", flag_changes)):
        lines.append(f"  {label}: {len(items)}")
        lines += [f"    {item}" for item in items[:SHOWN]]
    return lines


def _summary_report(name: str, old_text: str, new_text: str) -> list:
    old, new = json.loads(old_text), json.loads(new_text)
    keys = [k for k in sorted(set(old) | set(new))
            if repr(old.get(k, "absent")) != repr(new.get(k, "absent"))]
    lines = [f"{name}: {len(keys)} differing key(s)"]
    lines += [f"  {k}: {old.get(k, 'absent')!r} -> {new.get(k, 'absent')!r}" for k in keys]
    return lines


def compare(old_root: Path, new_root: Path) -> tuple:
    """The report's lines, and whether the trees differ."""
    def outputs(root):
        return {p.relative_to(root) for p in root.rglob("*")
                if p.name.endswith((".csv", ".summary.json"))}

    old_files, new_files = outputs(old_root), outputs(new_root)
    lines, differs = [], old_files != new_files
    for rel in sorted(old_files ^ new_files):
        lines.append(f"{rel}: only in {'OLD' if rel in old_files else 'NEW'}")
    for rel in sorted(old_files & new_files):
        old_text, new_text = (root.joinpath(rel).read_text() for root in (old_root, new_root))
        report = _csv_report if rel.suffix == ".csv" else _summary_report
        lines += report(str(rel), old_text, new_text)
        differs = differs or old_text != new_text
    return lines, differs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    lines, differs = compare(args.old, args.new)
    print("\n".join(lines))
    return int(differs)


if __name__ == "__main__":
    sys.exit(main())
