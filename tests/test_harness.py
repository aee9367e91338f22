import csv
import io
import json

import pytest

import nsvol.estimate as estimate
from nsvol.errors import EstimationError, ParameterOutOfDomainError
from nsvol.harness import (CSV_HEADER, ExperimentConfig, MonteCarloReport,
                           ReplicateRow, assert_thresholds, emit_report,
                           read_report_json, run_mc)


@pytest.fixture(scope="module")
def small_report():
    cfg = ExperimentConfig(model="bm1", sigma_star=[1.0],
                           bn_ladder=[80, 160], replicates=6, seed=21,
                           do_bayes=True)
    return run_mc(cfg)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(model="bm1", sigma_star=[1.0], bn_ladder=[10],
                             replicates=0)
        with pytest.raises(ValueError):
            ExperimentConfig(model="bm1", sigma_star=[9.0], bn_ladder=[10],
                             replicates=1)
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"model": "bm1", "sigma_star": [1.0],
                                        "bn_ladder": [10], "replicates": 1,
                                        "bogus": 1})

    def test_repeated_ladder_entry(self):
        with pytest.raises(ValueError, match="bn_ladder entry 50 is <= 0 or repeats"):
            ExperimentConfig(model="bm1", sigma_star=[1.0],
                             bn_ladder=[50, 50], replicates=3)

    def test_non_positive_ladder_entry(self):
        with pytest.raises(ValueError, match="bn_ladder entry 0 is <= 0 or repeats"):
            ExperimentConfig(model="bm1", sigma_star=[1.0], bn_ladder=[0],
                             replicates=2)

    @pytest.mark.parametrize("replicates", [2.5, True, "3"])
    def test_replicates_must_be_an_integer(self, replicates):
        doc = {"model": "bm1", "sigma_star": [1.0], "bn_ladder": [50],
               "replicates": replicates}
        with pytest.raises(ValueError, match="replicates must be an integer"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("ladder", [100, [100, "200"], [True], None])
    def test_bn_ladder_must_be_a_list_of_numbers(self, ladder):
        doc = {"model": "bm1", "sigma_star": [1.0], "bn_ladder": ladder,
               "replicates": 2}
        with pytest.raises(ValueError, match="bn_ladder must be a list"):
            ExperimentConfig.from_dict(doc)

    def test_sigma_star_of_wrong_length(self):
        # a single entry broadcasts against both box rows of corr
        with pytest.raises(ParameterOutOfDomainError, match="dim_param=2"):
            ExperimentConfig(model="corr", sigma_star=[0.5], bn_ladder=[50],
                             replicates=2)

    def test_round_trip(self):
        cfg = ExperimentConfig(model="corr", sigma_star=[1.0, 0.4],
                               bn_ladder=[50], replicates=2, scheme="uniform")
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_uniform_scheme_grid(self):
        cfg = ExperimentConfig(model="bm1", sigma_star=[1.0], bn_ladder=[64],
                               replicates=1, scheme="uniform", rate1=0.5,
                               rate2=0.5, offset2=0.25)
        g = cfg.make_grid(64, seed=[0])
        assert g.n_intervals1 == 32
        assert g.bn == 64


class TestRunMc:
    def test_row_count_invariant(self, small_report):
        cfg = small_report.config
        assert small_report.n_rows == cfg.replicates * len(cfg.bn_ladder)

    def test_single_replicate(self):
        cfg = ExperimentConfig(model="bm1", sigma_star=[1.0],
                               bn_ladder=[40, 80], replicates=1, seed=1)
        rep = run_mc(cfg)
        assert rep.n_rows == 2
        assert all(r.error is None for r in rep.rows)

    def test_determinism_across_threads_and_runs(self, small_report):
        rep2 = run_mc(small_report.config)
        assert emit_report(rep2, "csv") == emit_report(small_report, "csv")
        assert emit_report(rep2, "json") == emit_report(small_report, "json")

    def test_summary_blocks_present(self, small_report):
        s = small_report.summaries
        for n in ("80", "160"):
            entry = s["per_n"][n]
            assert {"bias", "rmse", "scaled_risk", "studentized",
                    "studentized_bayes", "bayes_qmle_median_gap"} <= set(entry)
        assert "rmse_slope" in s

    def test_failure_threshold(self, monkeypatch):
        calls = {"k": 0}
        real = estimate.qmle_detail

        def flaky(engine, **kw):
            calls["k"] += 1
            if calls["k"] % 3 == 0:
                raise RuntimeError("synthetic failure")
            return real(engine, **kw)

        monkeypatch.setattr(estimate, "qmle_detail", flaky)
        cfg = ExperimentConfig(model="bm1", sigma_star=[1.0], bn_ladder=[30],
                               replicates=6, seed=2)
        with pytest.raises(EstimationError):
            run_mc(cfg)

    def test_failed_rows_recorded_below_threshold(self, monkeypatch):
        real = estimate.qmle_detail
        calls = {"k": 0}

        def flaky(engine, **kw):
            calls["k"] += 1
            if calls["k"] == 1:
                raise RuntimeError("one bad replicate")
            return real(engine, **kw)

        monkeypatch.setattr(estimate, "qmle_detail", flaky)
        cfg = ExperimentConfig(model="bm1", sigma_star=[1.0], bn_ladder=[30],
                               replicates=25, seed=3)
        rep = run_mc(cfg)
        failed = [r for r in rep.rows if r.error]
        assert len(failed) == 1
        assert "one bad replicate" in failed[0].error
        assert rep.summaries["per_n"]["30"]["failed"] == 1


class TestEmitReport:
    def test_csv_layout(self, small_report, tmp_path):
        text = emit_report(small_report, "csv")
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        d = len(small_report.config.sigma_star)
        assert len(lines) - 1 == small_report.n_rows * d
        first = lines[1].split(",")
        assert len(first) == len(CSV_HEADER.split(","))
        assert first[-1] == "0.0"  # timings zeroed for byte determinism
        path = tmp_path / "r.csv"
        emit_report(small_report, "csv", path)
        assert path.read_text() == text

    def test_csv_error_column_and_rep(self, small_report):
        message = 'EstimationError: failed at sigma=[1.0, 0.5], "twice"'
        rows = [ReplicateRow(n=80, rep=4, error=message)]
        report = MonteCarloReport(small_report.config, rows, {})
        header, cells = csv.reader(io.StringIO(emit_report(report, "csv")))
        assert len(cells) == len(header)
        row = dict(zip(header, cells))
        assert row["rep"] == "4"
        assert row["error"] == message
        assert row["sigma_hat"] == ""

    def test_empty_ladder_header_only(self):
        cfg = ExperimentConfig(model="bm1", sigma_star=[1.0], bn_ladder=[],
                               replicates=3, seed=0)
        rep = run_mc(cfg)
        assert emit_report(rep, "csv") == CSV_HEADER + "\n"

    def test_json_round_trip_bit_exact(self, small_report, tmp_path):
        path = tmp_path / "r.json"
        emit_report(small_report, "json", path)
        doc = read_report_json(path)
        assert doc["summaries"] == small_report.summaries
        assert doc["config"] == small_report.config.to_dict()
        assert len(doc["rows"]) == small_report.n_rows

    def test_unknown_format(self, small_report):
        with pytest.raises(ValueError):
            emit_report(small_report, "parquet")

    def test_io_error_carries_path(self, small_report):
        with pytest.raises(OSError, match="no/such/dir"):
            emit_report(small_report, "csv", "/no/such/dir/report.csv")


class TestAssertions:
    def test_thresholds(self, small_report):
        ok = assert_thresholds(small_report, {"stud_mean_3se": True})
        assert ok == []
        bad = assert_thresholds(small_report, {"ks_alpha": 1.0})
        assert bad  # KS p-values cannot all reach 1
        missing_slope = assert_thresholds(small_report,
                                          {"slope_range": [-0.51, -0.49]})
        assert isinstance(missing_slope, list)

    def test_variance_ratio_check(self):
        cfg = ExperimentConfig(model="corr", sigma_star=[1.0, 0.5],
                               bn_ladder=[60], replicates=10, seed=5,
                               do_bayes=False)
        rep = run_mc(cfg)
        ratio = rep.summaries["per_n"]["60"]["variance_ratio"]
        fails = assert_thresholds(rep, {"variance_ratio_max": ratio / 2})
        assert fails
        assert assert_thresholds(rep, {"variance_ratio_max": ratio * 2}) == []
