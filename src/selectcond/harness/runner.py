"""Deterministic experiment runner with CSV and JSON outputs."""
from __future__ import annotations

import json
import multiprocessing
import os
from dataclasses import dataclass

from .config import ExperimentConfig
from .scenarios import ROW_COLUMNS, n_replications, run_replication, summarize

__all__ = ["RunResult", "run", "write_outputs", "rows_to_csv", "csv_to_rows",
           "verify_summary"]


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    # 17 significant digits round-trips any double bit-exactly
    return format(float(value), ".17g")


def rows_to_csv(rows) -> str:
    lines = [",".join(ROW_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in ROW_COLUMNS))
    return "\n".join(lines) + "\n"


def csv_to_rows(text: str) -> list:
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    if tuple(header) != ROW_COLUMNS:
        raise ValueError(f"unexpected CSV header: {header}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        row = {}
        for col, raw in zip(ROW_COLUMNS, parts):
            if col == "rep":
                row[col] = int(raw)
            elif col == "flags":
                row[col] = raw
            else:
                row[col] = float(raw)
        rows.append(row)
    return rows


@dataclass
class RunResult:
    config: ExperimentConfig
    rows: list
    summary: dict

    @property
    def csv_text(self) -> str:
        return rows_to_csv(self.rows)

    @property
    def summary_text(self) -> str:
        return json.dumps(self.summary, indent=2, sort_keys=True, allow_nan=True) + "\n"


def _replicate_star(args):
    return run_replication(*args)


def run(config: ExperimentConfig) -> RunResult:
    """Execute every replication; row order is fixed by replication index."""
    total = n_replications(config.scenario, config.params)
    tasks = [(config.scenario, config.params, config.seed, rep) for rep in range(total)]
    if config.parallelism > 1:
        # fork keeps workers independent of how the parent was launched;
        # per-replication streams make scheduling irrelevant to the output
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        with ctx.Pool(config.parallelism) as pool:
            chunks = pool.map(_replicate_star, tasks, chunksize=max(1, total // (8 * config.parallelism)))
    else:
        chunks = [_replicate_star(t) for t in tasks]
    rows = [row for chunk in chunks for row in chunk]
    summary = summarize(config.scenario, config.params, rows)
    summary["seed"] = config.seed
    summary["n_replications"] = total
    return RunResult(config, rows, summary)


def write_outputs(result: RunResult, out_dir) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    base = result.config.scenario
    csv_path = os.path.join(out_dir, f"{base}.csv")
    json_path = os.path.join(out_dir, f"{base}.summary.json")
    with open(csv_path, "w") as fh:
        fh.write(result.csv_text)
    with open(json_path, "w") as fh:
        fh.write(result.summary_text)
    return {"csv": csv_path, "summary": json_path}


def verify_summary(result: RunResult) -> bool:
    """Recompute the summary from the serialized rows; its JSON text must
    match byte for byte, since the CSV's 17-digit floats round-trip."""
    rows = csv_to_rows(result.csv_text)
    fresh = summarize(result.config.scenario, result.config.params, rows)
    fresh["seed"] = result.config.seed
    fresh["n_replications"] = result.summary["n_replications"]
    return RunResult(result.config, rows, fresh).summary_text == result.summary_text
