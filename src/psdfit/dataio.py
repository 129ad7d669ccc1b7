"""File formats and the real-data analysis pipeline.

Covers CSV ingestion of asset returns, the correlation-matrix spectrum
with spike removal, Gaussian kernel density smoothing, and readers and
writers for the JSON/CSV artifacts the command line emits.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .estimator import FitResult, build_unet, fit_inverse_cubic
from .models import PointMass, PSDModel, model_from_dict
from .mptransform import DensityCurve, SampleSpectrum, lsd_density_curve
from .simulate import ExperimentConfig, ExperimentReport

__all__ = [
    "ReturnsMatrix",
    "AnalysisResult",
    "load_returns_csv",
    "correlation_spectrum",
    "kde_curve",
    "run_analysis",
    "read_eigenvalues_csv",
    "write_curve_csv",
    "read_curve_csv",
    "save_model_json",
    "load_model_json",
    "load_experiment_config",
    "write_report_json",
    "write_report_csv",
]

_GRID_SIZE = 400     # curve points run_analysis draws on (0, 1.1 lambda_max]


@dataclass(frozen=True, eq=False)
class ReturnsMatrix:
    """Complete T-by-N panel of asset returns (rows are trading days)."""

    values: NDArray
    labels: tuple
    dropped: tuple = ()

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError("returns must form a 2-d matrix")
        t, n = values.shape
        if t < 2 or n < 2:
            raise ValueError("need at least 2 rows and 2 columns of returns")
        if not np.all(np.isfinite(values)):
            raise ValueError("returns contain non-finite entries")
        if len(self.labels) != n:
            raise ValueError("one label per column required")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
        object.__setattr__(self, "dropped", tuple(str(x) for x in self.dropped))

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    @property
    def n_assets(self) -> int:
        return self.values.shape[1]


def load_returns_csv(path) -> ReturnsMatrix:
    """Read a returns panel, dropping any asset with a missing cell.

    Expects a header row of asset labels over a numeric body; empty cells
    mark missing data.  Dropped labels are reported on the result.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if any(c.strip() for c in row)]
    if len(rows) < 3:
        raise ValueError(f"{path}: need a header and at least 2 data rows")
    header = [c.strip() for c in rows[0]]
    body = rows[1:]
    width = len(header)
    values = np.empty((len(body), width))
    missing = np.zeros(width, dtype=bool)
    for i, row in enumerate(body):
        if len(row) != width:
            raise ValueError(f"{path}: row {i + 2} has {len(row)} cells, "
                             f"expected {width}")
        try:
            values[i] = np.fromiter(map(float, row), float, width)
            continue
        except ValueError:
            pass            # a blank or non-numeric cell: go cell by cell
        for j, cell in enumerate(row):
            cell = cell.strip()
            if not cell:
                missing[j] = True
                values[i, j] = np.nan
                continue
            try:
                values[i, j] = float(cell)
            except ValueError:
                raise ValueError(f"{path}: non-numeric value {cell!r} in row "
                                 f"{i + 2}, column {header[j]!r}") from None
    keep = ~missing
    if keep.sum() < 2:
        raise ValueError(f"{path}: fewer than 2 complete columns survive")
    dropped = tuple(lab for lab, gone in zip(header, missing) if gone)
    labels = tuple(lab for lab, ok in zip(header, keep) if ok)
    return ReturnsMatrix(values[:, keep], labels, dropped)


def correlation_spectrum(returns: ReturnsMatrix, spikes: int = 0) -> SampleSpectrum:
    """Spectrum of the sample correlation matrix with the top eigenvalues cut.

    Columns are standardized to mean 0 and unit sample variance; the
    `spikes` largest eigenvalues are removed, leaving p = N - spikes with
    n = T - 1 (centering consumes one degree of freedom).
    """
    spikes = int(spikes)
    if spikes < 0 or spikes >= returns.n_assets:
        raise ValueError("spikes must lie in [0, number of assets)")
    x = returns.values
    t = returns.n_obs
    sd = x.std(axis=0, ddof=1)
    flat = np.flatnonzero(sd == 0.0)
    if flat.size:
        raise ValueError(f"asset {returns.labels[flat[0]]!r} is constant; "
                         f"cannot standardize")
    z = (x - x.mean(axis=0)) / sd
    corr = z.T @ z / (t - 1)
    eigs = np.linalg.eigvalsh(corr)
    kept = eigs[:returns.n_assets - spikes][::-1]
    p, n = kept.size, t - 1
    if p > n:
        # the correlation matrix has rank at most n; snap its null space
        kept = kept.copy()
        kept[n:] = 0.0
    return SampleSpectrum(kept, p, n)


def kde_curve(eigenvalues, bandwidth: float, grid) -> DensityCurve:
    """Gaussian kernel density of an eigenvalue sample on a grid."""
    lam = np.asarray(eigenvalues, dtype=float).ravel()
    if lam.size == 0:
        raise ValueError("need at least one eigenvalue")
    bandwidth = float(bandwidth)
    if not bandwidth > 0.0:
        raise ValueError("bandwidth must be positive")
    x = np.asarray(grid, dtype=float).ravel()
    zsq = ((x[:, None] - lam[None, :]) / bandwidth) ** 2
    f = np.exp(-0.5 * zsq).sum(axis=1) / (lam.size * bandwidth * math.sqrt(2.0 * math.pi))
    return DensityCurve(x, f)


@dataclass(frozen=True, eq=False)
class AnalysisResult:
    """Everything the analyze pipeline produces for one returns panel."""

    fit: FitResult
    spectrum: SampleSpectrum
    empirical: DensityCurve
    fitted: DensityCurve
    baseline: DensityCurve
    spikes: int
    bandwidth: float
    dropped: tuple

    def to_dict(self) -> dict:
        return {
            "fit": self.fit.to_dict(),
            "p": self.spectrum.p,
            "n": self.spectrum.n,
            "spikes": self.spikes,
            "bandwidth": self.bandwidth,
            "dropped": list(self.dropped),
        }


def run_analysis(returns: ReturnsMatrix, *, spikes: int = 0,
                 bandwidth: float = 0.05, spacing: int = 20) -> AnalysisResult:
    """Fit the inverse-cubic family to a correlation spectrum.

    The fit and both model curves use the ratio c = p/n of the retained
    spectrum.  Produces the three comparable curves: kernel-smoothed
    empirical density of the retained eigenvalues, the fitted model's
    spectral density, and the identity-covariance baseline, all on one
    grid of 400 equally spaced points over (0, 1.1 * lambda_max].
    """
    spectrum = correlation_spectrum(returns, spikes)
    net = build_unet(spectrum, "inverse_cubic", spacing)
    fit = fit_inverse_cubic(net)
    c = spectrum.p / spectrum.n
    grid = np.linspace(0.0, 1.1 * spectrum.largest(), _GRID_SIZE + 1)[1:]
    lam = spectrum.eigenvalues[spectrum.eigenvalues > 0.0]
    empirical = kde_curve(lam, bandwidth, grid)
    fitted = lsd_density_curve(fit.model, c, grid)
    baseline = lsd_density_curve(PointMass(1.0), c, grid)
    return AnalysisResult(fit=fit, spectrum=spectrum, empirical=empirical,
                          fitted=fitted, baseline=baseline, spikes=spikes,
                          bandwidth=float(bandwidth), dropped=returns.dropped)


def read_eigenvalues_csv(path) -> NDArray:
    """Read a one-column eigenvalue CSV (header row, one value per line)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if any(c.strip() for c in row)]
    if len(rows) < 2:
        raise ValueError(f"{path}: need a header and at least one eigenvalue")
    out = []
    for i, row in enumerate(rows[1:]):
        cell = row[0].strip()
        try:
            out.append(float(cell))
        except ValueError:
            raise ValueError(f"{path}: non-numeric value {cell!r} in row "
                             f"{i + 2}") from None
    return np.asarray(out)


def write_curve_csv(path, curve: DensityCurve) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "f"])
        for x, f in zip(curve.x, curve.f):
            writer.writerow([repr(float(x)), repr(float(f))])


def read_curve_csv(path) -> DensityCurve:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if any(c.strip() for c in row)]
    if len(rows) < 2 or [c.strip() for c in rows[0]] != ["x", "f"]:
        raise ValueError(f"{path}: expected an 'x,f' curve file")
    data = np.array([[float(row[0]), float(row[1])] for row in rows[1:]])
    return DensityCurve(data[:, 0], data[:, 1])


def save_model_json(path, model: PSDModel) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_dict(), fh, indent=2)
        fh.write("\n")


def load_model_json(path) -> PSDModel:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: {err}") from None
    return model_from_dict(data)


def load_experiment_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: {err}") from None
    return ExperimentConfig.from_dict(data)


def write_report_json(path, report: ExperimentReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")


def write_report_csv(path, report: ExperimentReport) -> None:
    """Summary table, one row per (p, n): case, p, n, mean_W, sd_W, failures."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["case", "p", "n", "mean_W", "sd_W", "failures"])
        for row in report.summaries:
            writer.writerow([
                report.config.case, row["p"], row["n"],
                "" if row["mean_W"] is None else repr(row["mean_W"]),
                "" if row["sd_W"] is None else repr(row["sd_W"]),
                row["failures"],
            ])
