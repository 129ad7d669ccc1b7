"""CSV/JSON plumbing and the returns-to-spectrum analysis pipeline."""

import csv
import json
import math

import numpy as np
import pytest
from scipy import integrate

from psdfit import (Discrete, ExperimentConfig, InverseCubic, PointMass,
                    ReturnsMatrix, correlated_returns, correlation_spectrum,
                    kde_curve, load_returns_csv, run_analysis, run_experiment)
from psdfit import dataio
from psdfit.dataio import (load_experiment_config, load_model_json,
                           read_eigenvalues_csv, write_curve_csv,
                           write_json, write_report_csv)
from psdfit.mptransform import DensityCurve


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadReturnsCsv:
    def test_drops_column_with_blank(self, tmp_path):
        f = write(tmp_path / "r.csv",
                  "a,b,c\n1,2,3\n4,,6\n7,8,9\n10,11,12\n")
        rm = load_returns_csv(f)
        assert rm.values.shape == (4, 2)
        assert rm.labels == ("a", "c")
        assert rm.dropped == ("b",)

    def test_non_numeric_cell_is_an_error(self, tmp_path):
        f = write(tmp_path / "r.csv", "a,b\n1,2\nx,4\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_returns_csv(f)

    def test_blank_and_bad_cells_in_one_file(self, tmp_path):
        # rows with a blank or bad cell are read cell by cell, the others whole
        good = write(tmp_path / "good.csv", "a,b,c\n1, 2 ,3\n4,,6\n7,8,9\n")
        rm = load_returns_csv(good)
        assert rm.values.tolist() == [[1.0, 3.0], [4.0, 6.0], [7.0, 9.0]]
        assert rm.labels == ("a", "c")
        assert rm.dropped == ("b",)
        bad = write(tmp_path / "bad.csv", "a,b,c\n1,2,3\n4,,6\n7,8,x y\n")
        with pytest.raises(ValueError) as err:
            load_returns_csv(bad)
        assert str(err.value) == f"{bad}: non-numeric value 'x y' in row 4, column 'c'"

    def test_too_few_surviving_columns(self, tmp_path):
        f = write(tmp_path / "r.csv", "a,b\n1,\n3,4\n5,6\n")
        with pytest.raises(ValueError):
            load_returns_csv(f)

    def test_empty_file(self, tmp_path):
        f = write(tmp_path / "r.csv", "")
        with pytest.raises(ValueError):
            load_returns_csv(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_returns_csv(tmp_path / "nope.csv")

    def test_ragged_row_rejected(self, tmp_path):
        f = write(tmp_path / "r.csv", "a,b\n1,2\n3,4,5\n")
        with pytest.raises(ValueError):
            load_returns_csv(f)

    def test_whole_body_parse_matches_row_by_row(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((60, 9)) * 0.01
        f = tmp_path / "r.csv"
        with open(f, "w", encoding="utf-8") as fh:
            fh.write(",".join(f"a{i}" for i in range(9)) + "\n")
            np.savetxt(fh, x, fmt="%.17g", delimiter=",")

        def refuse(*args, **kwargs):
            raise ValueError("refused")

        with monkeypatch.context() as patch:
            patch.setattr(dataio, "_read_rows", refuse)
            whole = load_returns_csv(f)
        monkeypatch.setattr(np, "loadtxt", refuse)
        by_row = load_returns_csv(f)
        assert np.array_equal(whole.values, by_row.values)
        assert np.array_equal(whole.values, x)
        assert whole.labels == by_row.labels and whole.dropped == by_row.dropped == ()

    @pytest.mark.parametrize("text, values, labels", [
        ("a,b,c\n1,,3\n4,5,6\n", [[1.0, 3.0], [4.0, 6.0]], ("a", "c")),
        ('a,b\n"1.5",2\n3," 4"\n', [[1.5, 2.0], [3.0, 4.0]], ("a", "b")),
        ("a,b\r\n1,2\r\n\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]], ("a", "b")),
        ("\na,b\n1,2\n  ,  \n3,4\n\n", [[1.0, 2.0], [3.0, 4.0]], ("a", "b")),
        ("a,b\n1_0,2\n3,4\n", [[10.0, 2.0], [3.0, 4.0]], ("a", "b")),
    ])
    def test_cells_the_whole_body_parse_rejects(self, tmp_path, text, values, labels):
        rm = load_returns_csv(write(tmp_path / "r.csv", text))
        assert rm.values.tolist() == values
        assert rm.labels == labels

    @pytest.mark.parametrize("text, message", [
        ("a,b\n1,2\n3,4,5\n", "row 3 has 3 cells, expected 2"),
        ("a,b,c\n1,2,3\n4,5\n", "row 3 has 2 cells, expected 3"),
        ("a,b\n1,2\n3,x\n", "non-numeric value 'x' in row 3, column 'b'"),
        ('a,b\n1,2\n"3,5",4\n', "non-numeric value '3,5' in row 3, column 'a'"),
        ("a,b\n1,2\n", "need a header and at least 2 data rows"),
        ("a,b\n1,\n3,\n", "fewer than 2 complete columns survive"),
    ])
    def test_messages_of_malformed_bodies(self, tmp_path, text, message):
        f = write(tmp_path / "r.csv", text)
        with pytest.raises(ValueError) as err:
            load_returns_csv(f)
        assert str(err.value) == f"{f}: {message}"


class TestReturnsMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReturnsMatrix(np.ones((1, 3)), ("a", "b", "c"))
        with pytest.raises(ValueError):
            ReturnsMatrix(np.ones((5, 1)), ("a",))
        with pytest.raises(ValueError):
            ReturnsMatrix(np.full((3, 2), np.nan), ("a", "b"))
        with pytest.raises(ValueError):
            ReturnsMatrix(np.ones((3, 2)), ("a",))


class TestCorrelationSpectrum:
    def test_duplicated_column_pair(self):
        rng = np.random.default_rng(0)
        col = rng.standard_normal(50)
        rm = ReturnsMatrix(np.column_stack([col, col]), ("a", "b"))
        spec = correlation_spectrum(rm)
        assert spec.eigenvalues[0] == pytest.approx(2.0, abs=1e-10)
        assert spec.eigenvalues[1] == pytest.approx(0.0, abs=1e-10)
        assert spec.n == 49

    def test_trace_equals_asset_count(self):
        rng = np.random.default_rng(1)
        rm = ReturnsMatrix(rng.standard_normal((200, 50)),
                           tuple(f"a{i}" for i in range(50)))
        spec = correlation_spectrum(rm)
        assert spec.eigenvalues.sum() == pytest.approx(50.0, abs=1e-8)

    def test_spike_removal_counts(self):
        rng = np.random.default_rng(2)
        rm = ReturnsMatrix(rng.standard_normal((100, 20)),
                           tuple(f"a{i}" for i in range(20)))
        full = correlation_spectrum(rm, spikes=0)
        cut = correlation_spectrum(rm, spikes=3)
        assert cut.p == 17
        assert cut.largest() == pytest.approx(full.eigenvalues[3], abs=1e-12)

    def test_rank_deficient_case_snaps_null_space(self):
        # more assets than degrees of freedom: trailing eigenvalues are
        # structural zeros and must be stored as exact zeros
        rng = np.random.default_rng(3)
        rm = ReturnsMatrix(rng.standard_normal((10, 15)),
                           tuple(f"a{i}" for i in range(15)))
        spec = correlation_spectrum(rm)
        assert spec.p == 15 and spec.n == 9
        assert np.count_nonzero(spec.eigenvalues == 0.0) >= 6

    def test_constant_column_named(self):
        values = np.column_stack([np.ones(10), np.arange(10.0)])
        rm = ReturnsMatrix(values, ("flat", "ramp"))
        with pytest.raises(ValueError, match="flat"):
            correlation_spectrum(rm)

    def test_spikes_bounds(self):
        rng = np.random.default_rng(4)
        rm = ReturnsMatrix(rng.standard_normal((30, 5)), tuple("abcde"))
        with pytest.raises(ValueError):
            correlation_spectrum(rm, spikes=5)
        with pytest.raises(ValueError):
            correlation_spectrum(rm, spikes=-1)
        with pytest.raises(ValueError, match="spikes must be a whole number"):
            correlation_spectrum(rm, spikes=1.5)


class TestKdeCurve:
    def test_peak_height(self):
        curve = kde_curve([1.0], 0.05, np.array([0.5, 1.0, 1.5]))
        assert curve.f[1] == pytest.approx(1.0 / (0.05 * math.sqrt(2 * math.pi)),
                                           abs=1e-10)

    def test_far_tail_negligible(self):
        curve = kde_curve([1.0], 0.05, np.array([0.2, 2.0]))
        assert np.all(curve.f < 1e-8)

    def test_normalization(self):
        lam = [0.5, 1.0, 1.7, 3.2]
        grid = np.linspace(-2.0, 6.0, 2000)
        curve = kde_curve(lam, 0.05, grid)
        assert curve.mass() == pytest.approx(1.0, abs=1e-3)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            kde_curve([], 0.05, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            kde_curve([1.0], 0.0, np.array([1.0, 2.0]))


@pytest.fixture(scope="module")
def synthetic():
    x = correlated_returns(InverseCubic(0.5), 120, 400, seed=11)
    return ReturnsMatrix(x, tuple(f"a{i}" for i in range(120)))


class TestRunAnalysis:
    def test_recovers_alpha_scale(self, synthetic):
        result = run_analysis(synthetic)
        assert abs(float(result.fit.theta[0]) - 0.5) < 0.15

    def test_curves_share_grid(self, synthetic):
        result = run_analysis(synthetic)
        assert result.empirical.x.size == 400
        assert np.array_equal(result.empirical.x, result.fitted.x)
        assert np.array_equal(result.empirical.x, result.baseline.x)
        top = result.empirical.x[-1]
        assert top == pytest.approx(1.1 * result.spectrum.largest(), rel=1e-12)

    def test_fitted_curve_beats_baseline(self, synthetic):
        result = run_analysis(synthetic)
        x = result.empirical.x
        l1_fit = integrate.trapezoid(np.abs(result.fitted.f - result.empirical.f), x)
        l1_mp = integrate.trapezoid(np.abs(result.baseline.f - result.empirical.f), x)
        assert l1_fit < l1_mp

    @pytest.mark.parametrize("option, message", [
        ({"spikes": 2.7}, "spikes must be a whole number"),
        ({"spacing": 5.5}, "spacing must be a whole number"),
    ])
    def test_rejects_counts_that_are_not_whole(self, synthetic, option, message):
        with pytest.raises(ValueError, match=message):
            run_analysis(synthetic, **option)

    def test_to_dict_serializable(self, synthetic):
        # a whole float is stored as the int it checks out to
        result = run_analysis(synthetic, spikes=2.0)
        data = result.to_dict()
        assert data["spikes"] == 2 and type(data["spikes"]) is int
        assert data["p"] == 118
        json.dumps(data)


class TestFileFormats:
    def test_curve_round_trip(self, tmp_path):
        curve = DensityCurve([0.5, 1.0, 2.0], [0.1, 0.7, 0.0])
        path = tmp_path / "c.csv"
        write_curve_csv(path, curve)
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["x", "f"]
        again = np.array(rows, dtype=float)
        assert np.array_equal(again[:, 0], curve.x)
        assert np.array_equal(again[:, 1], curve.f)

    def test_eigenvalues_round_trip(self, tmp_path):
        f = write(tmp_path / "e.csv", "eigenvalue\n2.5\n1.0\n0.0\n")
        assert read_eigenvalues_csv(f).tolist() == [2.5, 1.0, 0.0]

    @pytest.mark.parametrize("text, message", [
        ("eigenvalue\nbig\n", "non-numeric value 'big' in row 2"),
        ("eig,other\n3.0,9\n2.0,8\n1.0,7\n", "row 1 has 2 cells, expected 1"),
        ("eigenvalue\n3.0\n1.0,\n", "row 3 has 2 cells, expected 1"),
    ], ids=["text", "two-columns", "trailing-comma"])
    def test_eigenvalues_reject_text(self, tmp_path, text, message):
        f = write(tmp_path / "e.csv", text)
        with pytest.raises(ValueError) as err:
            read_eigenvalues_csv(f)
        assert str(err.value) == f"{f}: {message}"

    def test_model_json_round_trip(self, tmp_path):
        model = Discrete([1.0, 3.0], [0.25, 0.75])
        path = write(tmp_path / "m.json", json.dumps(model.to_dict()))
        assert load_model_json(path) == model

    def test_model_json_rejects_garbage(self, tmp_path):
        for text in ("not json", '{"kind": "point_mass", "at": null}',
                     '{"kind": "inverse_cubic", "alpha": [1]}',
                     '{"kind": ["discrete"]}', '[{"kind": "point_mass", "at": 1}]'):
            f = write(tmp_path / "m.json", text)
            with pytest.raises(ValueError):
                load_model_json(f)

    def test_config_from_file(self, tmp_path):
        cfg = {"case": "t", "model": {"kind": "point_mass", "at": 1.0},
               "dims": [[10, 20]], "replications": 1, "family": "discrete"}
        f = write(tmp_path / "cfg.json", json.dumps(cfg))
        loaded = load_experiment_config(f)
        assert loaded.case == "t"
        assert loaded.dims == ((10, 20),)
        assert loaded.spacing == 20   # default fills in

    def test_report_files(self, tmp_path):
        cfg = ExperimentConfig(case="io", model=PointMass(1.0),
                               dims=((20, 40),), replications=2,
                               family="discrete", order=1, seed=3)
        report = run_experiment(cfg)
        jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
        write_json(jpath, report)
        write_report_csv(cpath, report)
        assert json.loads(jpath.read_text(encoding="utf-8")) == report.to_dict()
        lines = cpath.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "case,p,n,mean_W,sd_W,failures"
        fields = lines[1].split(",")
        assert fields[:3] == ["io", "20", "40"]
        assert float(fields[3]) == pytest.approx(report.summaries[0]["mean_W"])
