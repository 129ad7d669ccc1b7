"""Command line behavior: artifacts, exit codes, error mapping."""

import csv
import json

import numpy as np
import pytest

from psdfit import (Discrete, InverseCubic, Laguerre, PointMass, build_unet,
                    correlated_returns, population_from_model, sample_spectrum,
                    support_bounds)
from psdfit.cli import main
from psdfit.errors import IterationError
from psdfit.simulate import _fit_family


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "point_mass", "at": 1.0}))
    return str(path)


def test_support_prints_report(model_file, capsys):
    assert main(["support", "--model", model_file, "--c", "0.25"]) == 0
    data = json.loads(capsys.readouterr().out)
    want = support_bounds(PointMass(1.0), 0.25).to_dict()
    assert data == want


def test_support_out_file(model_file, tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["support", "--model", model_file, "--c", "4.0",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out    # print ends the text with a newline
    assert out.read_text() == printed
    assert json.loads(out.read_text())["mass_at_zero"] == pytest.approx(0.75)


def test_forward_writes_curve(model_file, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = main(["forward", "--model", model_file, "--c", "0.25",
                 "--grid", "0:3:100", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "f"]
    assert len(rows) == 100        # the grid point at zero is dropped


def test_forward_rejects_bad_grid(model_file, tmp_path, capsys):
    out = str(tmp_path / "c.csv")
    for grid in ("3:0:100", "1:2", "a:b:c", "-5:-1:50"):
        code = main(["forward", "--model", model_file, "--c", "0.25",
                     f"--grid={grid}", "--out", out])
        assert code == 1
    capsys.readouterr()


def test_forward_rejects_negative_ratio(model_file, tmp_path, capsys):
    code = main(["forward", "--model", model_file, "--c", "-0.5",
                 "--out", str(tmp_path / "c.csv")])
    assert code == 1
    assert "aspect ratio must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, text", [
    ("support", "--model", '{"kind": "point_mass", "at": null}'),
    ("support", "--model", '{"kind": "inverse_cubic", "alpha": [1]}'),
    ("support", "--model", '[{"kind": "point_mass", "at": 1}]'),
    ("simulate", "--config", '[{"case": "cli"}]'),
    ("simulate", "--config", json.dumps(
        {"case": "cli", "model": {"kind": "point_mass", "at": 1.0}, "dims": 5,
         "replications": 2, "family": "discrete"})),
])
def test_wrongly_typed_json_is_input_error(tmp_path, capsys, command, flag, text):
    path = tmp_path / "in.json"
    path.write_text(text)
    args = [command, flag, str(path)]
    args += ["--c", "0.5"] if command == "support" else ["--out", str(tmp_path / "r.json")]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_missing_model_file_is_input_error(tmp_path, capsys):
    code = main(["support", "--model", str(tmp_path / "none.json"),
                 "--c", "0.5"])
    capsys.readouterr()
    assert code == 1


@pytest.mark.parametrize("family, truth, order, size", [
    ("discrete", Discrete([1.0, 2.0], [0.5, 0.5]), 2, 3),
    ("laguerre", Laguerre([1.0]), 2, 2),
    ("inverse_cubic", InverseCubic(0.5), 1, 1),
], ids=["discrete", "laguerre", "inverse_cubic"])
def test_estimate_fits_eigenvalues(tmp_path, capsys, family, truth, order, size):
    pop = population_from_model(truth, 60)
    spec = sample_spectrum(pop, 300, seed=5)
    eigs = tmp_path / "eigs.csv"
    with eigs.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["eigenvalue"])
        for v in spec.eigenvalues:
            w.writerow([repr(float(v))])
    out = tmp_path / "fit.json"
    code = main(["estimate", "--eigs", str(eigs), "--p", "60", "--n", "300",
                 "--family", family, "--order", str(order), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    fit = json.loads(out.read_text())
    assert fit["family"] == family
    assert len(fit["theta"]) == size
    assert fit["c"] == 60 / 300
    assert fit["objective"] == pytest.approx(
        sum(r * r for r in fit["residuals"]), rel=1e-12)
    library = _fit_family(build_unet(spec, family, 20), family, order)
    assert out.read_text() == json.dumps(library.to_dict(), indent=2) + "\n"


def test_estimate_pads_missing_zeros(tmp_path, capsys):
    # tall spectra are often stored without their structural zeros
    pop = population_from_model(PointMass(1.0), 40)
    spec = sample_spectrum(pop, 20, seed=1)
    positive = spec.eigenvalues[spec.eigenvalues > 0]
    eigs = tmp_path / "eigs.csv"
    with eigs.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["eigenvalue"])
        for v in positive:
            w.writerow([repr(float(v))])
    out = tmp_path / "fit.json"
    code = main(["estimate", "--eigs", str(eigs), "--p", "40", "--n", "20",
                 "--family", "discrete", "--order", "1", "--out", str(out)])
    capsys.readouterr()
    assert code == 0


@pytest.mark.parametrize("count, p, n", [(50, 100, 500), (10, 40, 20)])
def test_estimate_rejects_missing_eigenvalues(tmp_path, capsys, count, p, n):
    # only the p - n structural zeros of a tall spectrum may be left out
    eigs = tmp_path / "eigs.csv"
    eigs.write_text("eigenvalue\n" + "".join(f"{1.0 + i / count!r}\n"
                                             for i in range(count)))
    out = tmp_path / "fit.json"
    code = main(["estimate", "--eigs", str(eigs), "--p", str(p), "--n", str(n),
                 "--family", "inverse_cubic", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"expected {p} eigenvalues, got {count}" in err
    assert not out.exists()


def test_simulate_writes_report_and_csv(tmp_path, capsys):
    cfg = {"case": "cli", "model": {"kind": "discrete", "atoms": [1.0, 2.0],
                                    "weights": [0.5, 0.5]},
           "dims": [[30, 60]], "replications": 2, "family": "discrete",
           "order": 2, "seed": 11}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    code = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    shown = capsys.readouterr().out
    assert code == 0
    assert "cli: p=30 n=60" in shown
    report = json.loads(out.read_text())
    assert len(report["records"]) == 2
    lines = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert lines[0] == "case,p,n,mean_W,sd_W,failures"


@pytest.mark.parametrize("patch, jobs", [
    ({"spacing": 0}, "1"), ({"seed": -1}, "1"), ({}, "0"),
])
def test_simulate_rejects_bad_settings(tmp_path, capsys, patch, jobs):
    cfg = {"case": "cli", "model": {"kind": "point_mass", "at": 1.0},
           "dims": [[30, 60]], "replications": 2, "family": "discrete",
           "order": 1, "seed": 11, **patch}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    code = main(["simulate", "--config", str(cfg_path), "--out", str(out),
                 "--jobs", jobs])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ")
    assert not out.exists()


def test_analyze_emits_three_curves(tmp_path, capsys):
    x = correlated_returns(InverseCubic(0.5), 40, 150, seed=3)
    returns = tmp_path / "returns.csv"
    with returns.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"a{i}" for i in range(40)])
        for row in x:
            w.writerow([f"{v:.8f}" for v in row])
    out = tmp_path / "out"
    code = main(["analyze", "--returns", str(returns), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    for name in ("fit.json", "empirical.csv", "fitted_lsd.csv",
                 "mp_baseline.csv"):
        assert (out / name).exists()
    fit = json.loads((out / "fit.json").read_text())
    assert fit["fit"]["family"] == "inverse_cubic"
    assert fit["n"] == 149


def test_numerical_failure_maps_to_exit_two(model_file, capsys, monkeypatch):
    import psdfit.cli as cli

    def boom(model, c):
        raise IterationError("forced", residual=1.0)

    monkeypatch.setattr(cli, "support_bounds", boom)
    code = main(["support", "--model", model_file, "--c", "0.25"])
    err = capsys.readouterr().err
    assert code == 2
    assert "IterationError" in err


def test_unconverged_support_search_exits_two(tmp_path, capsys):
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps({"kind": "laguerre", "alphas": [1.0]}))
    assert main(["support", "--model", str(path), "--c", "1e300"]) == 2
    assert "IterationError" in capsys.readouterr().err


def test_support_at_a_tiny_ratio_exits_zero(model_file, capsys):
    # the support edges round onto the atom, which leaves no stretch of
    # positive width
    assert main(["support", "--model", model_file, "--c", "1e-300"]) == 0
    assert json.loads(capsys.readouterr().out)["support"] == []


def test_support_at_a_small_ratio_keeps_the_narrow_interval(model_file, capsys):
    # the support is about 1 -+ 2 sqrt(c) = 1 -+ 4.5e-13, narrow but real
    assert main(["support", "--model", model_file, "--c", "5e-26"]) == 0
    [(lo, hi)] = json.loads(capsys.readouterr().out)["support"]
    assert lo == pytest.approx(1.0 - 2.0 * np.sqrt(5e-26), rel=1e-15)
    assert hi == pytest.approx(1.0 + 2.0 * np.sqrt(5e-26), rel=1e-15)


def test_usage_errors_exit_one(capsys):
    for argv in (["estimate", "--eigs", "x.csv"],       # missing required
                 ["forward", "--model", "m.json", "--c", "zero",
                  "--out", "c.csv"],                    # bad float
                 ["estimate", "--eigs", "x.csv", "--p", "1", "--n", "1",
                  "--family", "normal", "--out", "f.json"],   # bad choice
                 ["frobnicate"]):                       # unknown command
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
    capsys.readouterr()
