import json

import numpy as np
import pytest

from nsvol.cli import main
from nsvol.errors import SchemeError
from nsvol.scheme import load_grid_json, poisson_grid, save_grid_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSimulateEstimate:
    def test_pipeline(self, tmp_path, capsys):
        grid_path = tmp_path / "g.json"
        sample_path = tmp_path / "s.csv"
        code, _ = run_cli(capsys, "simulate", "--scheme", "poisson:1,1",
                          "--n", "120", "--model", "corr",
                          "--sigma", "1.0,0.5", "--seed", "7",
                          "--save-grid", str(grid_path),
                          "--out", str(sample_path))
        assert code == 0
        assert sample_path.read_text().startswith("side,index,time,value")
        code, out = run_cli(capsys, "estimate", "--grid", str(grid_path),
                            "--sample", str(sample_path), "--model", "corr",
                            "--bayes-adaptive", "--out", "-")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["sigma_hat"]) == 2
        assert abs(doc["sigma_hat"][0] - 1.0) < 0.5
        assert doc["positive_definite"] is True

    def test_simulate_stdout(self, capsys):
        code, out = run_cli(capsys, "simulate", "--scheme", "uniform:1,1",
                            "--n", "8", "--model", "bm1", "--sigma", "1.0")
        assert code == 0
        assert out.startswith("side,index,time,value")
        assert len(out.strip().split("\n")) == 1 + 9 + 9

    @pytest.mark.parametrize("model,sigma,value", [
        ("corr", "1.0,0.5", "inf"),
        ("statedep", "1.0,1.5", "inf"),
        ("corr", "1.0,0.5", "nan"),
    ])
    def test_estimate_rejects_non_finite_value(self, tmp_path, capsys, model,
                                               sigma, value):
        grid_path = tmp_path / "g.json"
        sample_path = tmp_path / "s.csv"
        run_cli(capsys, "simulate", "--scheme", "poisson:1,2", "--n", "30",
                "--model", model, "--sigma", sigma, "--seed", "3",
                "--save-grid", str(grid_path), "--out", str(sample_path))
        lines = sample_path.read_text().splitlines()
        side, idx, time, _ = lines[5].split(",")
        lines[5] = ",".join([side, idx, time, value])
        sample_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemeError, match="row 6 .*non-finite value"):
            main(["estimate", "--grid", str(grid_path), "--sample",
                  str(sample_path), "--model", model, "--no-bayes"])

    def test_missing_grid_is_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--model", "bm1", "--sigma", "1.0"])


class TestCheck:
    def test_check_grid_json(self, tmp_path, capsys):
        g = poisson_grid(1.0, 1.0, 1.0, bn=200, seed=3)
        path = tmp_path / "g.json"
        save_grid_json(g, path)
        code, out = run_cli(capsys, "check", "--grid", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["any_violation"] is False
        assert doc["n_intervals1"] == g.n_intervals1
        assert len(doc["theta_length_sums"]) == 3

    def test_check_generated_scheme(self, capsys):
        code, out = run_cli(capsys, "check", "--scheme", "uniform:1,1",
                            "--n", "64")
        assert code == 0
        assert json.loads(out)["any_violation"] is False


class TestInfo:
    def test_info_json(self, capsys):
        code, out = run_cli(capsys, "info", "--model", "bm1",
                            "--sigma-star", "1.0", "--scheme", "poisson:1,1",
                            "--n", "100", "--reps", "6", "--grids", "4",
                            "--bins", "8", "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        assert np.isfinite(doc["formula"][0][0])
        assert np.isfinite(doc["empirical"][0][0])
        assert max(doc["identity_residuals"].values()) < 1e-8


class TestMc:
    def _write_config(self, tmp_path, **extra):
        doc = {"model": "bm1", "sigma_star": [1.0], "bn_ladder": [60],
               "replicates": 5, "seed": 4, "do_bayes": False}
        doc.update(extra)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return path

    def test_csv_output(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out_path = tmp_path / "rep.csv"
        code, _ = run_cli(capsys, "mc", "--config", str(cfg),
                          "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0].startswith("rep,n,coord")
        assert len(lines) == 1 + 5

    def test_assert_failure_exit_code(self, tmp_path, capsys):
        cfg = self._write_config(
            tmp_path, assertions={"slope_range": [-0.51, -0.49]})
        code, _ = run_cli(capsys, "mc", "--config", str(cfg), "--assert",
                          "--format", "json")
        assert code == 2  # single-rung ladder has no slope

    def test_assert_pass_exit_code(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path,
                                 assertions={"stud_mean_3se": True})
        code, _ = run_cli(capsys, "mc", "--config", str(cfg), "--assert")
        assert code == 0

    def test_seed_override_changes_rows(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        _, out1 = run_cli(capsys, "mc", "--config", str(cfg))
        _, out2 = run_cli(capsys, "mc", "--config", str(cfg), "--seed", "99")
        assert out1 != out2


class TestGridRoundTrip:
    def test_cli_saved_grid_loads(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        run_cli(capsys, "simulate", "--scheme", "poisson:2,1", "--n", "50",
                "--model", "bm1", "--sigma", "1.0", "--save-grid", str(path),
                "--out", str(tmp_path / "s.csv"))
        g = load_grid_json(path)
        assert g.horizon == 1.0
        assert g.bn == 50
