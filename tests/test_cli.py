"""Tests for the command-line interface and its exit-code contract."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from selectcond.cli import main
from selectcond.winners import WinnersData, WinnersModelKind, infer_winner

SRC = Path(__file__).resolve().parents[1] / "src"


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


WINNERS_DOC = {
    "scenario": "winners-coverage",
    "params": {"m": 4, "theta": [1, 0, 0, 0], "level": 0.9, "n_reps": 20},
    "seed": 7,
}


class TestSimulate:
    def test_runs_and_writes_outputs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("SELECTCOND_SEED", raising=False)
        cfg = write_config(tmp_path, WINNERS_DOC)
        code = main(["simulate", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["scenario"] == "winners-coverage"
        csv_path = tmp_path / "out" / "winners-coverage.csv"
        assert csv_path.exists()

    def test_jobs_flag_keeps_bytes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("SELECTCOND_SEED", raising=False)
        cfg = write_config(tmp_path, WINNERS_DOC)
        assert main(["simulate", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["simulate", cfg, "--out", str(tmp_path / "b"), "--jobs", "2"]) == 0
        capsys.readouterr()
        a = (tmp_path / "a" / "winners-coverage.csv").read_bytes()
        b = (tmp_path / "b" / "winners-coverage.csv").read_bytes()
        assert a == b

    def test_seed_flag_overrides_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("SELECTCOND_SEED", raising=False)
        cfg = write_config(tmp_path, WINNERS_DOC)
        assert main(["simulate", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["simulate", cfg, "--out", str(tmp_path / "b"), "--seed", "8"]) == 0
        capsys.readouterr()
        a = (tmp_path / "a" / "winners-coverage.csv").read_bytes()
        b = (tmp_path / "b" / "winners-coverage.csv").read_bytes()
        assert a != b

    def test_env_seed_used_and_flag_wins(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, WINNERS_DOC)
        monkeypatch.setenv("SELECTCOND_SEED", "8")
        assert main(["simulate", cfg, "--out", str(tmp_path / "env")]) == 0
        assert main(["simulate", cfg, "--out", str(tmp_path / "flag"),
                     "--seed", "7"]) == 0
        capsys.readouterr()
        monkeypatch.delenv("SELECTCOND_SEED")
        assert main(["simulate", cfg, "--out", str(tmp_path / "plain")]) == 0
        capsys.readouterr()
        env = (tmp_path / "env" / "winners-coverage.csv").read_bytes()
        flag = (tmp_path / "flag" / "winners-coverage.csv").read_bytes()
        plain = (tmp_path / "plain" / "winners-coverage.csv").read_bytes()
        assert env != plain
        assert flag == plain

    def test_bad_config_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(WINNERS_DOC, typo=1))
        assert main(["simulate", cfg]) == 1

    @pytest.mark.parametrize("fields", ['"theta": NaN', '"theta": -Infinity',
                                        '"theta": 0.5, "threshold": Infinity'])
    def test_nonfinite_config_exits_one(self, tmp_path, capsys, fields):
        # json reads NaN and Infinity; such a study would never pass its
        # rejection loop
        path = tmp_path / "config.json"
        path.write_text('{"scenario": "two-stage-compare", "seed": 7, "params": {'
                        '"prior": {"support": [5], "probs": [1.0]}, "n2": 20, "level": 0.9, '
                        f'"regime": "joint", "n_reps": 2, {fields}}}}}')
        assert main(["simulate", str(path)]) == 1

    def test_missing_file_exits_one(self, capsys):
        assert main(["simulate", "/nonexistent/config.json"]) == 1

    def test_usage_error_exits_one(self, capsys):
        assert main(["simulate"]) == 1


class TestInfer:
    def test_winners_matches_library(self, tmp_path, capsys):
        y = np.array([2.0, 0.0, -1.0])
        data = tmp_path / "y.csv"
        data.write_text(",".join(str(v) for v in y))
        code = main(["infer", "winners", "--data", str(data),
                     "--kind", "conditional-on-losers", "--level", "0.9"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        ref = infer_winner(WinnersData(y), WinnersModelKind.CONDITIONAL_ON_LOSERS, 0.9)
        assert doc["estimate"] == pytest.approx(ref.estimate, rel=1e-12)
        assert doc["ci"][0] == pytest.approx(ref.ci[0], rel=1e-12)
        assert doc["pvalue"] == pytest.approx(ref.pvalue, rel=1e-12)

    def test_winners_from_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("2.0 0.0 -1.0"))
        assert main(["infer", "winners", "--data", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["model_kind"] == "conditional-on-losers"

    def test_two_stage(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        while True:
            s1 = 0.8 + rng.standard_normal(6)
            if s1.sum() > 1.96 * np.sqrt(6):
                break
        s2 = 0.8 + rng.standard_normal(4)
        data = tmp_path / "two.csv"
        data.write_text("\n".join(str(v) for v in np.concatenate([s1, s2])))
        code = main(["infer", "two-stage", "--data", str(data), "--n1", "6"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["model_kind"] == "two-stage-conditional"

    def test_two_stage_unselected_is_numeric_failure(self, tmp_path, capsys):
        data = tmp_path / "two.csv"
        data.write_text("-1.0,-2.0,0.5")
        assert main(["infer", "two-stage", "--data", str(data), "--n1", "2"]) == 2

    def test_two_stage_requires_n1(self, tmp_path, capsys):
        data = tmp_path / "two.csv"
        data.write_text("1.0,2.0")
        assert main(["infer", "two-stage", "--data", str(data)]) == 1

    def test_location(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        while True:
            y = 1.2 + rng.standard_normal(5)
            if y.mean() > 1.2816 / np.sqrt(5):  # u <= 0.1 for the gaussian family
                break
        data = tmp_path / "loc.csv"
        data.write_text(" ".join(str(v) for v in y))
        code = main(["infer", "location", "--data", str(data),
                     "--family", "gaussian", "--alpha", "0.1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["model_kind"] == "location-gaussian"

    def test_polyhedral(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((15, 3))
        X = X / np.linalg.norm(X, axis=0)
        beta = np.array([1.5, 0.0, 0.0])
        y = X @ beta + rng.standard_normal(15)
        design = tmp_path / "X.csv"
        design.write_text("\n".join(",".join(str(v) for v in row) for row in X))
        data = tmp_path / "y.csv"
        data.write_text(",".join(str(v) for v in y))
        code = main(["infer", "polyhedral", "--design", str(design),
                     "--data", str(data), "--threshold", "1.0"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["model_kind"] == "polyhedral"
        assert doc["ci"][0] < doc["estimate"] < doc["ci"][1]

    @pytest.mark.parametrize("rows, values", [
        ("1,0\n0,1\n1,1", "2.0,0.5,1.0"),
        ("1,0\n0,1\n0,0", "2.0,0.5"),
        ("1,0\n0,nan\n0,1", "2.0,0.5,1.0"),
    ], ids=["columns-not-unit-norm", "rows-not-matching-data", "column-with-nan"])
    def test_polyhedral_bad_design_exits_one(self, tmp_path, capsys, rows, values):
        design = tmp_path / "X.csv"
        design.write_text(rows)
        data = tmp_path / "y.csv"
        data.write_text(values)
        code = main(["infer", "polyhedral", "--design", str(design),
                     "--data", str(data), "--threshold", "1.0"])
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["winners", "--data", "{y3}", "--level", "1.5"],
        ["two-stage", "--data", "{y3}", "--n1", "2", "--level", "0"],
        ["location", "--data", "{y5}", "--alpha", "1.5"],
        ["location", "--data", "{y5}", "--alpha", "0.5", "--level", "1.2"],
        ["polyhedral", "--design", "{X}", "--data", "{y3}", "--threshold", "-1"],
        ["polyhedral", "--design", "{X}", "--data", "{y3}", "--threshold", "1.0",
         "--coordinate", "1"],
        ["winners", "--data", "{y3}", "--sigma", "nan"],
        ["winners", "--data", "{y3}", "--sigma", "inf"],
        ["winners", "--data", "{y3}", "--sigma", "0"],
        ["polyhedral", "--design", "{X}", "--data", "{y3}", "--threshold", "1.0",
         "--sigma2", "-1"],
        ["two-stage", "--data", "{y3}", "--n1", "0"],
        ["two-stage", "--data", "{y3}", "--n1", "4"],
        # argparse reads "-inf" after a space as a flag
        ["two-stage", "--data", "{y3}", "--n1", "3", "--threshold=-inf"],
        ["two-stage", "--data", "{y3}", "--n1", "3", "--threshold", "inf"],
        ["two-stage", "--data", "{y3}", "--n1", "3", "--threshold", "nan"],
        ["polyhedral", "--design", "{X}", "--data", "{y3}", "--threshold", "inf"],
    ], ids=["level", "two-stage-level", "location-alpha", "location-level",
            "polyhedral-threshold", "polyhedral-coordinate", "winners-sigma-nan",
            "winners-sigma-inf", "winners-sigma-zero", "polyhedral-sigma2",
            "two-stage-n1-zero", "two-stage-n1-past-data", "two-stage-threshold-minus-inf",
            "two-stage-threshold-inf", "two-stage-threshold-nan", "polyhedral-threshold-inf"])
    def test_bad_flag_exits_one(self, tmp_path, capsys, argv):
        paths = {"y3": tmp_path / "y3.csv", "y5": tmp_path / "y5.csv",
                 "X": tmp_path / "X.csv"}
        paths["y3"].write_text("2.0,0.5,1.0")
        paths["y5"].write_text("2.1 1.4 2.8 0.9 1.7")
        paths["X"].write_text("1,0\n0,1\n0,0")
        argv = [a.format(**paths) for a in argv]
        assert main(["infer", *argv]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    @pytest.mark.parametrize("argv", [
        ["winners", "--kind", "conditional-on-losers"],
        ["winners", "--kind", "full-vector"],
        ["two-stage", "--n1", "2"],
        ["location", "--alpha", "0.5"],
        ["polyhedral", "--design", "{X}", "--threshold", "0.1"],
    ], ids=["winners-losers", "winners-full-vector", "two-stage", "location", "polyhedral"])
    def test_non_finite_data_exits_one(self, tmp_path, argv, bad):
        # in a subprocess with a timeout: the conditional-on-losers MLE once
        # spun without end on "1.0 inf 0.5"
        data = tmp_path / "y.csv"
        data.write_text(f"1.0 {bad} 0.5")
        design = tmp_path / "X.csv"
        design.write_text("1,0\n0,1\n0,0")
        argv = [a.format(X=design) for a in argv]
        out = subprocess.run(
            [sys.executable, "-m", "selectcond.cli", "infer", *argv, "--data", str(data)],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert out.returncode == 1, out.stderr
        assert "usage error: --data values must be finite" in out.stderr

    def test_empty_data_numeric_failure(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("")
        assert main(["infer", "winners", "--data", str(data)]) == 2


class TestCheckAncillarity:
    def test_default_audit_passes(self, capsys):
        code = main(["check-ancillarity", "--audits", "40", "--seed", "5"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_audits_passed"] is True
        assert doc["n_audits"] == 40

    def test_counterexample_mode(self, capsys):
        code = main(["check-ancillarity", "--audits", "10", "--seed", "5",
                     "--counterexample"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counterexample_failed_as_expected"] is True

    def test_report_written(self, tmp_path, capsys):
        code = main(["check-ancillarity", "--audits", "5", "--seed", "1",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "ancillarity-audit.summary.json").exists()
