"""Monte Carlo harness: synthetic spectra and replicated estimation runs."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import lapack

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


def _whole(value, name: str = "value") -> int:
    """An int, or a float equal to one, as an int; else ValueError naming it."""
    if (isinstance(value, (int, np.integer))
            or isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ValueError(f"{name} must be a whole number, got {value!r}")


def population_from_model(model: PSDModel, p: int) -> NDArray:
    """Discretize a model into p population eigenvalues.

    Atomic models get round(weight * p) copies of each atom with
    largest-remainder correction so the counts sum to p exactly; smooth
    models get the quantiles Q((i - 0.5) / p).
    """
    p = _whole(p, "p")
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
    p = _whole(p, "p")
    if p < 1:
        raise ValueError("p must be at least 1")
    rng = np.random.default_rng(seed)
    # inside the open unit interval, and no lower than the smallest normal
    # float, below which the Laguerre CDF underflows to 0
    probs = np.maximum(np.nextafter(rng.random(p), 1.0), np.finfo(float).tiny)
    return np.sort(model.quantile(probs))


def sample_spectrum(population, n: int, seed: int) -> SampleSpectrum:
    """Eigenvalues of a sample covariance matrix drawn from a population.

    Row i of the p-by-n data matrix X is sqrt(population[i]) times
    standard normals; the spectrum is that of (1/n) X X'.  With
    D = diag(population) and m = min(p, n), X X' has the law of
    D^{1/2} L L' D^{1/2} for a p-by-m L whose top m rows are lower
    triangular, N(0, 1) below the diagonal and L_ii = sqrt(chi^2_{n-i}),
    and whose p - m rows below are iid N(0, 1) (the Bartlett decomposition;
    Muirhead 1982, section 3.2).  The nonzero spectrum is that of B' B / n
    with B = D^{1/2} L: LAPACK's ``dlauum`` forms the triangle's product,
    a plain product adds the lower rows', and p - m zeros are appended.
    """
    pop = np.asarray(population, dtype=float).ravel()
    if pop.size < 1 or not np.all(np.isfinite(pop)) or np.any(pop < 0.0):
        raise ValueError("population eigenvalues must be finite and nonnegative")
    n = _whole(n, "n")
    if n < 1:
        raise ValueError("n must be at least 1")
    p, m = pop.size, min(pop.size, n)
    rng = np.random.default_rng(seed)
    a = np.zeros((m, m))
    a[np.tri(m, m, -1, dtype=bool)] = rng.standard_normal(m * (m - 1) // 2)
    a[np.diag_indices(m)] = np.sqrt(rng.chisquare(n - np.arange(m)))
    rest = np.sqrt(pop[m:])[:, None] * rng.standard_normal((p - m, m))
    # U U' = T' T for B's top m rows T, in the upper triangle, written over U = T'
    btb, info = lapack.dlauum((np.sqrt(pop[:m])[:, None] * a).T, lower=0, overwrite_c=1)
    if info != 0:
        raise NumericsError(f"dlauum failed with info = {info}")
    eigs = np.linalg.eigvalsh((btb + rest.T @ rest) / n, UPLO="U")
    return SampleSpectrum(np.concatenate([eigs[::-1], np.zeros(p - m)]), p, n)


def correlated_returns(model: PSDModel, n_assets: int, n_obs: int,
                       seed: int) -> NDArray:
    """Return rows drawn from a covariance with the model's spectrum.

    The covariance is rotated by a random orthogonal matrix; without the
    rotation the matrix would be diagonal and its correlation matrix the
    identity, hiding the spectrum this data is meant to carry.
    """
    p, t = _whole(n_assets, "n_assets"), _whole(n_obs, "n_obs")
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
        try:
            dims = tuple((_whole(p), _whole(n)) for p, n in self.dims)
        except (TypeError, ValueError):
            dims = ()
        if not dims or any(p < 1 or n < 1 for p, n in dims):
            raise ValueError("dims must be a nonempty list of positive (p, n) pairs")
        object.__setattr__(self, "dims", dims)
        for name in ("replications", "order", "spacing", "seed"):
            object.__setattr__(self, name, _whole(getattr(self, name), name))
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
                replications=data["replications"],
                family=str(data["family"]),
                **{key: data[key] for key in ("order", "spacing", "seed") if key in data},
            )
        except KeyError as err:
            raise ValueError(f"experiment config is missing {err.args[0]!r}") from None
        except TypeError as err:
            raise ValueError(f"experiment config has a wrongly typed value: {err}") from None


@dataclass(frozen=True)
class ExperimentReport:
    """Replication records plus per-(p, n) summary statistics."""

    config: ExperimentConfig
    records: tuple
    summaries: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(dict(r) for r in self.records))
        object.__setattr__(self, "summaries", tuple(summarize_records(self.records)))

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


def run_experiment(config: ExperimentConfig, *, n_jobs: int = 1) -> ExperimentReport:
    """Run every replication of every (p, n) pair and aggregate.

    Atomic truths discretize into exact atom counts once per (p, n);
    smooth truths are redrawn for every replication.  Failed replications
    are recorded with their error message and counted; they do not abort
    the run.  Output is deterministic for a given config regardless of
    n_jobs, which must be at least 1.
    """
    n_jobs = _whole(n_jobs, "n_jobs")
    if n_jobs < 1:
        raise ValueError("n_jobs must be at least 1")
    tasks = [(config, p, n, r)
             for p, n in config.dims for r in range(config.replications)]
    if n_jobs > 1:
        chunk = max(1, len(tasks) // (4 * n_jobs))
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            records = list(pool.map(_replicate, *zip(*tasks), chunksize=chunk))
    else:
        records = [_replicate(*task) for task in tasks]
    return ExperimentReport(config=config, records=tuple(records))
