"""Tests for the experiment harness: config validation, determinism,
row/summary integrity."""
import json
import math
import os
import re
import string
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selectcond.harness import (
    ConfigError,
    ROW_COLUMNS,
    RunResult,
    config_schema,
    csv_to_rows,
    ks_uniform,
    load_config,
    parse_config,
    rows_to_csv,
    run,
    summarize,
    verify_summary,
    write_outputs,
)


def winners_cfg(n_reps=30, seed=11, parallelism=1):
    return parse_config({
        "scenario": "winners-coverage",
        "params": {"m": 5, "theta": [1, 0, 0, 0, 0], "level": 0.9, "n_reps": n_reps},
        "seed": seed,
        "parallelism": parallelism,
    })


TWO_STAGE_PARAMS = {"prior": {"support": [5], "probs": [1.0]}, "n2": 20, "theta": 0.5,
                    "threshold": 1.0, "level": 0.9, "regime": "joint", "n_reps": 2}
SCREENING_PARAMS = {"n": 25, "p": 2, "threshold": 1.0, "beta": [0.8, 0.0], "level": 0.9,
                    "n_reps": 2}


class TestConfigValidation:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"scenario": "winners-coverage", "params": {}, "seed": 1,
                          "typo": True})

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"scenario": "winners-coverage",
                          "params": {"m": 5, "theta": [1, 0, 0, 0, 0], "level": 0.9,
                                     "n_reps": 10, "extra": 1},
                          "seed": 1})

    def test_missing_required_param(self):
        with pytest.raises(ConfigError):
            parse_config({"scenario": "winners-coverage",
                          "params": {"m": 5, "level": 0.9, "n_reps": 10}, "seed": 1})

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            parse_config({"scenario": "nope", "params": {}, "seed": 1})

    def test_theta_length_must_match_m(self):
        with pytest.raises(ConfigError):
            parse_config({"scenario": "winners-coverage",
                          "params": {"m": 3, "theta": [1, 0], "level": 0.9,
                                     "n_reps": 10}, "seed": 1})

    def test_seed_bounds(self):
        with pytest.raises(ConfigError):
            parse_config({"scenario": "winners-coverage",
                          "params": {"m": 2, "theta": [0, 0], "level": 0.9,
                                     "n_reps": 1}, "seed": -1})

    def test_bad_level(self):
        with pytest.raises(ConfigError):
            parse_config({"scenario": "winners-coverage",
                          "params": {"m": 2, "theta": [0, 0], "level": 1.5,
                                     "n_reps": 1}, "seed": 1})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("scenario, params, key", [
        ("two-stage-compare", TWO_STAGE_PARAMS, "theta"),
        ("two-stage-compare", TWO_STAGE_PARAMS, "threshold"),
        ("winners-coverage", {"m": 2, "theta": [0.0, 0.0], "level": 0.9, "n_reps": 1},
         "theta"),
        ("polyhedral-coverage", SCREENING_PARAMS, "threshold"),
        ("polyhedral-coverage", SCREENING_PARAMS, "beta"),
    ])
    def test_nonfinite_numbers_rejected(self, scenario, params, key, value):
        bad = value if not isinstance(params[key], list) else [0.0, value]
        with pytest.raises(ConfigError, match="finite"):
            parse_config({"scenario": scenario, "params": dict(params, **{key: bad}),
                          "seed": 1})

    def test_schema_is_publishable(self):
        schema = config_schema()
        assert set(schema["properties"]["params"]) == {
            "winners-coverage", "winners-compare", "polyhedral-uniformity",
            "polyhedral-coverage", "two-stage-compare", "location-coverage",
            "ancillarity-audit",
        }
        json.dumps(schema)

    def test_load_config_reports_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)


class TestDeterminism:
    def test_worker_count_does_not_change_bytes(self):
        res1 = run(winners_cfg(parallelism=1))
        res2 = run(winners_cfg(parallelism=2))
        res8 = run(winners_cfg(parallelism=8))
        assert res1.csv_text == res2.csv_text == res8.csv_text
        assert res1.summary_text == res2.summary_text == res8.summary_text

    def test_rerun_is_identical(self):
        a, b = run(winners_cfg()), run(winners_cfg())
        assert a.csv_text == b.csv_text

    def test_seed_changes_output(self):
        a = run(winners_cfg(seed=11))
        b = run(winners_cfg(seed=12))
        assert a.csv_text != b.csv_text


class TestRowsAndSummary:
    def test_csv_round_trip(self):
        res = run(winners_cfg())
        rows = csv_to_rows(res.csv_text)
        assert rows_to_csv(rows) == res.csv_text
        for row, original in zip(rows, res.rows):
            for col in ROW_COLUMNS:
                a, b = row[col], original[col]
                if isinstance(a, float) and isinstance(b, float) \
                        and math.isnan(a) and math.isnan(b):
                    continue
                assert a == b

    def test_summary_recomputable(self):
        for cfg in (
            winners_cfg(),
            parse_config({"scenario": "polyhedral-uniformity",
                          "params": {"n": 20, "p": 5, "threshold": 1.0, "n_reps": 25},
                          "seed": 4}),
            parse_config({"scenario": "ancillarity-audit",
                          "params": {"audits": 25, "eps": 0.05, "counterexample": True},
                          "seed": 4}),
        ):
            res = run(cfg)
            assert verify_summary(res)

    def test_summary_one_ulp_off_fails_verification(self):
        res = run(winners_cfg())
        moved = dict(res.summary, coverage=math.nextafter(res.summary["coverage"], 2.0))
        assert not verify_summary(RunResult(res.config, res.rows, moved))

    def test_write_outputs(self, tmp_path):
        res = run(winners_cfg(n_reps=5))
        paths = write_outputs(res, tmp_path)
        assert (tmp_path / "winners-coverage.csv").exists()
        text = (tmp_path / "winners-coverage.csv").read_text()
        assert text.splitlines()[0] == ",".join(ROW_COLUMNS)
        summary = json.loads((tmp_path / "winners-coverage.summary.json").read_text())
        assert summary["scenario"] == "winners-coverage"
        assert paths["csv"].endswith(".csv")

    def test_float_formatting_is_bit_stable(self):
        values = [math.pi, 1e-17, 1234.56789012345678, float("inf"), -0.0]
        for v in values:
            assert float(format(v, ".17g")) == v

    # a CSV spells NaN one way, so rows carry the one NaN that spelling reads back
    @settings(max_examples=200)
    @given(st.lists(st.tuples(
        st.integers(0, 10**9),
        st.lists(st.floats().filter(lambda v: not math.isnan(v)) | st.just(math.nan),
                 min_size=6, max_size=6),
        st.lists(st.text(string.ascii_letters + string.digits + "=-_", min_size=1),
                 max_size=3)), max_size=4))
    def test_csv_round_trip_of_any_row(self, specs):
        rows = [dict(zip(ROW_COLUMNS, [rep, *values, ";".join(flags)]))
                for rep, values, flags in specs]
        back = csv_to_rows(rows_to_csv(rows))
        assert len(back) == len(rows)
        for got, want in zip(back, rows):
            assert got["rep"] == want["rep"] and got["flags"] == want["flags"]
            for col in ROW_COLUMNS[1:-1]:
                assert struct.pack("<d", got[col]) == struct.pack("<d", want[col])


class TestScenarioSmoke:
    @pytest.mark.parametrize("doc", [
        {"scenario": "winners-compare",
         "params": {"m": 3, "theta": [0, 1, 2], "level": 0.9, "n_reps": 6}},
        {"scenario": "polyhedral-coverage",
         "params": {"n": 20, "p": 5, "threshold": 1.0, "beta": [0.5, 0, 0, 0, 0],
                    "level": 0.9, "n_reps": 6}},
        {"scenario": "two-stage-compare",
         "params": {"prior": {"support": [5, 10], "probs": [0.5, 0.5]}, "n2": 5,
                    "theta": 0.5, "level": 0.9, "regime": "joint", "n_reps": 4}},
        {"scenario": "location-coverage",
         "params": {"family": "gaussian", "n": 5, "theta": 1.0,
                    "selection_alpha": 0.2, "level": 0.9, "n_reps": 4}},
    ])
    def test_runs_and_has_columns(self, doc):
        doc = dict(doc, seed=3)
        res = run(parse_config(doc))
        assert res.rows
        for row in res.rows:
            assert set(row) == set(ROW_COLUMNS)
        assert verify_summary(res)

    def test_per_replication_failures_are_flagged_rows(self):
        from selectcond.harness import scenarios

        def boom(params, seed, rep):
            raise ZeroDivisionError("injected")

        scenarios._REPLICATORS["__boom__"] = boom
        try:
            rows = scenarios.run_replication("__boom__", {}, 1, 0)
        finally:
            del scenarios._REPLICATORS["__boom__"]
        assert len(rows) == 1
        assert rows[0]["flags"] == "error=ZeroDivisionError"
        assert math.isnan(rows[0]["covered"])


    @pytest.mark.parametrize("scenario, kinds, pair_stat", [
        ("winners-compare", ("full-vector", "conditional-on-losers"), "median_length_ratio"),
        ("two-stage-compare", ("conditional", "unconditional"), "mean_abs_estimate_delta"),
    ])
    def test_compare_summary_of_failed_reps_reports_both_kinds(self, scenario, kinds,
                                                               pair_stat):
        from selectcond.harness import scenarios

        def boom(params, seed, rep):
            raise ZeroDivisionError("injected")

        scenarios._REPLICATORS["__boom__"] = boom
        try:
            rows = [row for rep in range(3)
                    for row in scenarios.run_replication("__boom__", {}, 1, rep)]
        finally:
            del scenarios._REPLICATORS["__boom__"]
        summary = summarize(scenario, {"level": 0.9}, rows)
        assert summary["n_rows"] == 3
        for kind in kinds:
            assert math.isnan(summary[f"coverage[{kind}]"])
            assert math.isnan(summary[f"median_length[{kind}]"])
        assert math.isnan(summary[pair_stat])
        if scenario == "winners-compare":
            assert summary["n_length_ratios"] == 0


class TestKsUniform:
    def test_known_value(self):
        # ecdf of [0.5] vs uniform: distance 0.5
        assert ks_uniform([0.5]) == pytest.approx(0.5)

    def test_uniform_sample_small_distance(self):
        rng = np.random.default_rng(0)
        assert ks_uniform(rng.random(100_000)) < 0.01


class TestCsvMovesScript:
    ROOT = Path(__file__).resolve().parents[1]

    def test_reports_exactly_a_one_ulp_pvalue_move(self, tmp_path):
        for name in ("old", "new"):
            write_outputs(run(winners_cfg(n_reps=5)), tmp_path / name)
        csv_path = tmp_path / "new" / "winners-coverage.csv"
        rows = csv_to_rows(csv_path.read_text())
        rows[2]["pvalue"] = math.nextafter(rows[2]["pvalue"], 2.0)
        csv_path.write_text(rows_to_csv(rows))
        env = dict(os.environ, PYTHONPATH=str(self.ROOT / "src"))
        out = subprocess.run(
            [sys.executable, str(self.ROOT / "scripts" / "csv_moves.py"),
             str(tmp_path / "old"), str(tmp_path / "new")],
            capture_output=True, text=True, env=env, check=False)
        assert out.returncode == 1, out.stderr
        lines = out.stdout.splitlines()
        assert lines[0] == "winners-coverage.csv: 1 of 5 rows differ"
        moved = [ln for ln in lines if re.match(r"  \w+: \d+ moved", ln)]
        assert len(moved) == 1
        match = re.fullmatch(r"  pvalue: 1 moved, largest relative move (\S+) \(rep 2\)",
                             moved[0])
        assert match and 0.0 < float(match.group(1)) <= 2.3e-16
        assert "  covered flips: 0" in lines and "  flag changes: 0" in lines
        assert lines[-1] == "winners-coverage.summary.json: 0 differing key(s)"

    def test_counts_ends_turned_infinite_apart(self, tmp_path):
        # one lo moves by an ulp and one to -inf: the largest relative move
        # is the finite one, and the infinite one is counted on its own line
        for name in ("old", "new"):
            write_outputs(run(winners_cfg(n_reps=5)), tmp_path / name)
        csv_path = tmp_path / "new" / "winners-coverage.csv"
        rows = csv_to_rows(csv_path.read_text())
        finite = [i for i, row in enumerate(rows) if math.isfinite(row["lo"])]
        assert len(finite) >= 2
        rows[finite[0]]["lo"] = math.nextafter(rows[finite[0]]["lo"], math.inf)
        rows[finite[1]]["lo"] = -math.inf
        csv_path.write_text(rows_to_csv(rows))
        env = dict(os.environ, PYTHONPATH=str(self.ROOT / "src"))
        out = subprocess.run(
            [sys.executable, str(self.ROOT / "scripts" / "csv_moves.py"),
             str(tmp_path / "old"), str(tmp_path / "new")],
            capture_output=True, text=True, env=env, check=False)
        assert out.returncode == 1, out.stderr
        lines = out.stdout.splitlines()
        match = re.fullmatch(r"  lo: 2 moved, largest relative move (\S+) \(rep (\d+)\)",
                             lines[1])
        assert match and 0.0 < float(match.group(1)) <= 2.3e-16
        assert int(match.group(2)) == rows[finite[0]]["rep"]
        assert lines[2] == "  lo: 1 turned infinite, 0 turned finite"
