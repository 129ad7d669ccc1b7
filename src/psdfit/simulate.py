"""Monte Carlo harness: synthetic spectra and replicated estimation runs."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import NumericsError
from .estimator import (FAMILIES, build_unet, fit_discrete, fit_inverse_cubic,
                        fit_laguerre)
from .models import Discrete, PSDModel, model_from_dict, wasserstein
from .mptransform import SampleSpectrum

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "population_from_model",
    "population_draw",
    "sample_spectrum",
    "correlated_returns",
    "run_experiment",
]


def population_from_model(model: PSDModel, p: int) -> NDArray:
    """Discretize a model into p population eigenvalues.

    Atomic models get round(weight * p) copies of each atom with
    largest-remainder correction so the counts sum to p exactly; smooth
    models get the quantiles Q((i - 0.5) / p).
    """
    p = int(p)
    if p < 1:
        raise ValueError("p must be at least 1")
    if isinstance(model, Discrete):
        atoms, weights = model.atoms, model.weights
        counts = np.floor(weights * p).astype(int)
        short = p - counts.sum()
        if short > 0:
            frac = weights * p - counts
            counts[np.argsort(-frac, kind="stable")[:short]] += 1
        return np.repeat(atoms, counts)
    return model.quantile((np.arange(1, p + 1) - 0.5) / p)


def population_draw(model: PSDModel, p: int, seed) -> NDArray:
    """Draw p population eigenvalues at random from a model.

    Inverse-CDF sampling with a seeded generator, returned in ascending
    order.  Unlike quantile placement this keeps the dispersion a finite
    random population carries, which for smooth models dominates the
    distance between the fitted and the true spectrum.
    """
    p = int(p)
    if p < 1:
        raise ValueError("p must be at least 1")
    rng = np.random.default_rng(seed)
    probs = np.nextafter(rng.random(p), 1.0)   # keep inside the open unit interval
    return np.sort(model.quantile(probs))


def sample_spectrum(population, n: int, seed: int) -> SampleSpectrum:
    """Eigenvalues of a sample covariance matrix drawn from a population.

    Row i of the p-by-n data matrix is sqrt(population[i]) times standard
    normals; the spectrum is that of (1/n) X X'.  For p > n the nonzero
    part comes from the n-by-n Gram matrix and p - n zeros are appended.
    """
    pop = np.asarray(population, dtype=float).ravel()
    if pop.size < 1 or not np.all(np.isfinite(pop)) or np.any(pop < 0.0):
        raise ValueError("population eigenvalues must be finite and nonnegative")
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    p = pop.size
    rng = np.random.default_rng(seed)
    x = np.sqrt(pop)[:, None] * rng.standard_normal((p, n))
    if p > n:
        eigs = np.concatenate([np.zeros(p - n), np.linalg.eigvalsh(x.T @ x / n)])
    else:
        eigs = np.linalg.eigvalsh(x @ x.T / n)
    return SampleSpectrum(eigs[::-1], p, n)


def correlated_returns(model: PSDModel, n_assets: int, n_obs: int,
                       seed: int) -> NDArray:
    """Return rows drawn from a covariance with the model's spectrum.

    The covariance is rotated by a random orthogonal matrix; without the
    rotation the matrix would be diagonal and its correlation matrix the
    identity, hiding the spectrum this data is meant to carry.
    """
    p, t = int(n_assets), int(n_obs)
    if p < 2 or t < 2:
        raise ValueError("need at least 2 assets and 2 observations")
    pop = population_from_model(model, p)
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((p, p)))
    q = q * np.where(np.diag(r) < 0.0, -1.0, 1.0)
    z = rng.standard_normal((t, p))
    return (z * np.sqrt(pop)) @ q.T


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation case: a true model, dimensions, and a fit recipe."""

    case: str
    model: PSDModel
    dims: tuple
    replications: int
    family: str
    order: int = 1
    spacing: int = 20
    seed: int = 0

    def __post_init__(self):
        dims = tuple((int(p), int(n)) for p, n in self.dims)
        if not dims or any(p < 1 or n < 1 for p, n in dims):
            raise ValueError("dims must be a nonempty list of positive (p, n) pairs")
        object.__setattr__(self, "dims", dims)
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.order < 1:
            raise ValueError("order must be at least 1")
        if self.spacing < 1:
            raise ValueError("spacing must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "model": self.model.to_dict(),
            "dims": [list(d) for d in self.dims],
            "replications": self.replications,
            "family": self.family,
            "order": self.order,
            "spacing": self.spacing,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        try:
            return cls(
                case=str(data["case"]),
                model=model_from_dict(data["model"]),
                dims=data["dims"],
                replications=int(data["replications"]),
                family=str(data["family"]),
                order=int(data.get("order", 1)),
                spacing=int(data.get("spacing", 20)),
                seed=int(data.get("seed", 0)),
            )
        except KeyError as err:
            raise ValueError(f"experiment config is missing {err.args[0]!r}") from None


@dataclass(frozen=True)
class ExperimentReport:
    """Replication records plus per-(p, n) summary statistics."""

    config: ExperimentConfig
    records: tuple
    summaries: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(dict(r) for r in self.records))
        summaries = self.summaries or summarize_records(self.records)
        object.__setattr__(self, "summaries", tuple(dict(s) for s in summaries))

    def distances(self, p: int, n: int) -> NDArray:
        vals = [r["distance"] for r in self.records
                if r["p"] == p and r["n"] == n and r["distance"] is not None]
        return np.asarray(vals, dtype=float)

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "summaries": list(self.summaries),
            "records": list(self.records),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentReport":
        return cls(
            config=ExperimentConfig.from_dict(data["config"]),
            records=tuple(data["records"]),
            summaries=tuple(data.get("summaries", ())),
        )


def summarize_records(records) -> list:
    """Per-(p, n) mean/SD of the distances, in first-appearance order."""
    order, grouped = [], {}
    for rec in records:
        key = (rec["p"], rec["n"])
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(rec["distance"])
    rows = []
    for p, n in order:
        dist = [d for d in grouped[(p, n)] if d is not None]
        rows.append({
            "p": p,
            "n": n,
            "mean_W": float(np.mean(dist)) if dist else None,
            "sd_W": float(np.std(dist, ddof=1)) if len(dist) >= 2 else None,
            "failures": len(grouped[(p, n)]) - len(dist),
        })
    return rows


def _fit_family(net, family, order):
    if family == "discrete":
        return fit_discrete(net, order)
    if family == "laguerre":
        return fit_laguerre(net, order)
    return fit_inverse_cubic(net)


def _replicate(config: ExperimentConfig, p: int, n: int, r: int) -> dict:
    seed_r = config.seed ^ r
    record = {"p": p, "n": n, "replication": r, "seed": seed_r,
              "distance": None, "error": None}
    try:
        if isinstance(config.model, Discrete):
            pop = population_from_model(config.model, p)
        else:
            # separate stream so the population draw and the data matrix
            # never share generator output
            pop = population_draw(config.model, p, [seed_r, 1])
        spectrum = sample_spectrum(pop, n, seed_r)
        net = build_unet(spectrum, config.family, config.spacing)
        fitted = _fit_family(net, config.family, config.order)
        record["distance"] = float(wasserstein(fitted.model, config.model))
    except (NumericsError, ValueError) as err:
        record["error"] = f"{type(err).__name__}: {err}"
    return record


def _replicate_star(args):
    return _replicate(*args)


def run_experiment(config: ExperimentConfig, *, n_jobs: int = 1) -> ExperimentReport:
    """Run every replication of every (p, n) pair and aggregate.

    Atomic truths discretize into exact atom counts once per (p, n);
    smooth truths are redrawn for every replication.  Failed replications
    are recorded with their error message and counted; they do not abort
    the run.  Output is deterministic for a given config regardless of
    n_jobs, which must be at least 1.
    """
    if n_jobs < 1:
        raise ValueError("n_jobs must be at least 1")
    tasks = [(config, p, n, r)
             for p, n in config.dims for r in range(config.replications)]
    if n_jobs > 1:
        chunk = max(1, len(tasks) // (4 * n_jobs))
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            records = list(pool.map(_replicate_star, tasks, chunksize=chunk))
    else:
        records = [_replicate(*task) for task in tasks]
    return ExperimentReport(config=config, records=tuple(records))
