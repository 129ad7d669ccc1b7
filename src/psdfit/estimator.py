"""Least-squares recovery of a population spectrum from sample eigenvalues.

The estimation recipe: pick spectrum points u_j outside the sample bulk,
cache the companion Stieltjes transform there, and choose the model
parameters that make the model-side spectrum point map reproduce the
u_j best in the least-squares sense.  Atomic models go through one
trust-region least-squares search with an analytic Jacobian over an
unconstrained reparameterization, started from a nonnegative
least-squares fit of the weights on a fixed grid of atoms, so no random
numbers are drawn; the polynomial-exponential family is linear in its
coefficients and solves in one orthogonal factorization, plus one
nonnegative least-squares solve when its density has to be projected
back onto the positive cone; the inverse-cubic family is a coarse grid
followed by a bounded one-dimensional search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray
from scipy import linalg, optimize

from .errors import IterationError, NearPoleError, RankError
from .models import (_POSITIVITY_GRID, Discrete, InverseCubic, Laguerre,
                     PSDModel, laguerre_moment_integrals)
from .mptransform import POLE_GUARD, SampleSpectrum, companion_stieltjes, mp_u_map

__all__ = [
    "UNet",
    "FitResult",
    "build_unet",
    "params_to_model",
    "objective",
    "fit_discrete",
    "fit_laguerre",
    "fit_inverse_cubic",
]

FAMILIES = ("discrete", "laguerre", "inverse_cubic")

# families whose population spectrum is purely atomic get net points on
# both sides of the sample bulk; smooth families only need negative points
_ATOMIC_FAMILIES = ("discrete",)

_PENALTY = 1e12
# stopping tolerances of the atomic least-squares search: the relative
# change of the cost and the relative step, and the scaled gradient
_LSQ_TOL = 1e-12
_LSQ_GTOL = 1e-15
_MAX_NFEV = 2000     # residual evaluations allowed for the search
# start of the atomic search: grid atoms, the least |1 + a s_j| a grid atom
# may have, the scale of the total-mass row, and the share of the mass
# under which a grid weight is pruned before merging
_GRID_ATOMS = 120
_GRID_POLE_GAP = 1e-3
_GRID_MASS_ROW = 1e3
_GRID_PRUNE = 0.02
_MIN_EIG_GAP = 1e-9
# Dips this deep on the density scale mean the unconstrained solution left
# the family; shallower ones are estimation noise around a density that
# touches zero, and projecting those would snap the fit onto the boundary.
# Must sit strictly inside the construction tolerance so every returned
# coefficient vector builds a valid model.
_PROJECTION_TRIGGER = -0.15
# the inverse-cubic fit scans alpha on this many grid points, then refines
# the bracketing grid cell to this absolute tolerance
_IC_COARSE = 200
_IC_XATOL = 1e-7


@dataclass(frozen=True, eq=False)
class UNet:
    """Evaluation net: spectrum points with cached companion transforms.

    ``segments`` tags each point with the interval recipe it came from
    ("negative", "below_bulk" or "above_bulk"); ``spacing`` is the number
    of interior points drawn from each interval.
    """

    points: NDArray
    companion_values: NDArray
    segments: tuple
    spacing: int
    spectrum: SampleSpectrum

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        sv = np.asarray(self.companion_values, dtype=float)
        if pts.ndim != 1 or pts.shape != sv.shape or pts.size == 0:
            raise ValueError("points and companion_values must match and be nonempty")
        if len(self.segments) != pts.size:
            raise ValueError("one segment tag per point required")
        if np.unique(pts).size != pts.size:
            raise ValueError("net points must be distinct")
        pts, sv = pts.copy(), sv.copy()
        pts.flags.writeable = False
        sv.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "companion_values", sv)
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def m(self) -> int:
        return self.points.size

    def ratio(self) -> float:
        return self.spectrum.p / self.spectrum.n

    def to_dict(self) -> dict:
        return {
            "points": self.points.tolist(),
            "companion_values": self.companion_values.tolist(),
            "segments": list(self.segments),
            "spacing": self.spacing,
        }


def build_unet(spectrum: SampleSpectrum, family: str, spacing: int = 20) -> UNet:
    """Build the evaluation net for a sample spectrum and model family.

    Each admissible interval (a, b) contributes its ``spacing`` interior
    points a + (b - a) * t / (spacing + 1).  All families use (-10, 0);
    atomic families add (0, lambda_min/2) when p != n and always
    (5 lambda_max, 10 lambda_max), with lambda_min/lambda_max the extreme
    positive sample eigenvalues.  Net points must clear every eigenvalue
    by 1e-9.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    spacing = int(spacing)
    if spacing < 1:
        raise ValueError("spacing must be at least 1")
    intervals = [(-10.0, 0.0, "negative")]
    if family in _ATOMIC_FAMILIES:
        if spectrum.largest() <= 0.0:
            raise ValueError("spectrum is degenerate: no positive eigenvalues")
        lam_min = spectrum.smallest_positive()
        lam_max = spectrum.largest()
        if spectrum.p != spectrum.n:
            intervals.append((0.0, lam_min / 2.0, "below_bulk"))
        intervals.append((5.0 * lam_max, 10.0 * lam_max, "above_bulk"))
    t = np.arange(1, spacing + 1)
    points, segments = [], []
    for a, b, tag in intervals:
        points.append(a + (b - a) * t / (spacing + 1))
        segments += [tag] * spacing
    points = np.concatenate(points)
    gap = np.abs(spectrum.eigenvalues[:, None] - points[None, :]).min()
    if gap < _MIN_EIG_GAP:
        raise ValueError(f"net point within {gap:.2e} of a sample eigenvalue")
    values = companion_stieltjes(spectrum, points)
    return UNet(points, values, tuple(segments), spacing, spectrum)


def params_to_model(family: str, theta) -> PSDModel:
    """Materialize a family's parameter vector as a model.

    Atomic: (a_1..a_k, m_1..m_{k-1}) with the last weight implied.
    Polynomial-exponential: the free coefficients.  Inverse cubic: the
    left support endpoint.  Invalid vectors raise ValueError.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    if family == "discrete":
        if theta.size % 2 == 0 or theta.size < 1:
            raise ValueError("atomic parameter vector must have odd length 2k-1")
        k = (theta.size + 1) // 2
        weights = np.append(theta[k:], 1.0 - theta[k:].sum())
        return Discrete(theta[:k], weights)
    if family == "laguerre":
        return Laguerre(theta)
    if family == "inverse_cubic":
        if theta.size != 1:
            raise ValueError("inverse-cubic family has a single parameter")
        return InverseCubic(float(theta[0]))
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def objective(theta, family: str, net: UNet) -> float:
    """Sum of squared gaps between net points and their model-side images.

    The ratio c is the net's p/n.  Parameter vectors whose poles violate
    the evaluation guard do not get a finite map value; they score a
    penalty of 1e12 plus the margin by which the guard was missed, so a
    search step into the guard is never preferred over one outside it.
    """
    model = params_to_model(family, theta)
    try:
        uhat = mp_u_map(net.companion_values, model, net.ratio())
    except NearPoleError as err:
        short = 0.0 if err.margin is None else max(0.0, POLE_GUARD - err.margin)
        return _PENALTY + short
    diff = net.points - uhat
    return float(diff @ diff)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of a family fit against an evaluation net.

    ``iterations`` counts the residual evaluations of the least-squares
    search for the atomic family, the active grid constraints of the
    positivity projection for the polynomial-exponential family (0 when
    the unconstrained fit is kept) and objective evaluations for the
    inverse-cubic family.
    """

    model: PSDModel
    theta: NDArray
    objective_value: float
    residuals: NDArray
    iterations: int
    converged: bool
    family: str
    c: float
    net: UNet

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "theta": np.asarray(self.theta).tolist(),
            "model": self.model.to_dict(),
            "objective": self.objective_value,
            "residuals": np.asarray(self.residuals).tolist(),
            "iterations": self.iterations,
            "converged": self.converged,
            "c": self.c,
            "net": self.net.to_dict(),
        }


def _finish(model, family, net, c, iterations, converged) -> FitResult:
    uhat = mp_u_map(net.companion_values, model, c)
    residuals = net.points - uhat
    return FitResult(
        model=model,
        theta=model.theta,
        objective_value=float(residuals @ residuals),
        residuals=residuals,
        iterations=iterations,
        converged=converged,
        family=family,
        c=c,
        net=net,
    )


def _raw_to_theta(raw: NDArray, k: int) -> NDArray:
    # atoms as cumulative sums of exponentials, weights as a softmax with
    # the last logit pinned to zero; any raw vector maps inside the family
    gaps = np.exp(np.clip(raw[:k], -40.0, 40.0))
    atoms = np.cumsum(gaps)
    logits = np.append(np.clip(raw[k:], -40.0, 40.0), 0.0)
    w = np.exp(logits - logits.max())
    w /= w.sum()
    return np.concatenate([atoms, w[:-1]])


def _atomic_terms(raw: NDArray, k: int, s: NDArray):
    # atoms, weights and the table 1 + a_i s_j of a raw vector, with the
    # last weight closed the way params_to_model closes it
    theta = _raw_to_theta(raw, k)
    atoms = theta[:k]
    weights = np.append(theta[k:], 1.0 - theta[k:].sum())
    return atoms, weights, 1.0 + np.outer(atoms, s)


def _discrete_residual(raw: NDArray, k: int, net: UNet, c: float) -> NDArray:
    """Residual net.points - u_hat of the k-atom model a raw vector encodes.

    Inside the pole guard it is a finite penalty vector whose squared norm
    is the objective's penalty, so a step into the guard is rejected.
    """
    s = net.companion_values
    atoms, weights, denom = _atomic_terms(raw, k, s)
    closeness = np.abs(denom).min()
    if closeness < POLE_GUARD:
        out = np.zeros(net.m)
        out[0] = math.sqrt(_PENALTY + (POLE_GUARD - closeness))
        return out
    uhat = -1.0 / s + c * ((weights * atoms) @ (1.0 / denom))
    return net.points - uhat


def _discrete_jacobian(raw: NDArray, k: int, net: UNet, c: float) -> NDArray:
    """Jacobian of ``_discrete_residual`` in the raw parameters (m by 2k-1)."""
    atoms, weights, denom = _atomic_terms(raw, k, net.companion_values)
    if np.abs(denom).min() < POLE_GUARD:
        return np.zeros((net.m, raw.size))
    # u_hat = -1/s + c sum_i w_i a_i / (1 + a_i s): one row per atom
    d_atom = c * weights[:, None] / denom**2
    d_weight = c * atoms[:, None] / denom
    # a_i sums exp(raw_l) over l <= i
    gaps = np.exp(np.clip(raw[:k], -40.0, 40.0))
    d_gaps = gaps[:, None] * np.cumsum(d_atom[::-1], axis=0)[::-1]
    # softmax with the last logit pinned: dw_i/dz_l = w_i (delta_il - w_l)
    d_logits = weights[:-1, None] * (d_weight[:-1] - weights @ d_weight)
    jac = -np.concatenate([d_gaps, d_logits]).T
    jac[:, np.abs(raw) > 40.0] = 0.0
    return jac


def _grid_fit(net: UNet, k: int):
    """Atoms and weights of k groups of a nonnegative fit on a grid.

    With the atoms fixed, u_j + 1/s_j = c sum_i w_i a_i / (1 + a_i s_j) is
    linear in the weights, so ``scipy.optimize.nnls`` fits the weights of
    120 geometric atoms on [lambda_min/2, 1.2 lambda_max], less those
    within 1e-3 of a pole, with total mass one as a heavily weighted extra
    row.  Weights under 2% of the mass are pruned, the rest are split into
    k groups at the k - 1 widest log gaps, and each group becomes one atom
    at its weighted mean.  The pruning is skipped when the atoms it keeps
    form fewer than k runs of neighbouring grid atoms: the split would then
    cut a run in two, and a search started from two halves of one cluster
    stalls as they merge.  None when fewer than k grid atoms carry weight.
    """
    spec = net.spectrum
    s = net.companion_values
    grid = np.geomspace(spec.smallest_positive() / 2.0, 1.2 * spec.largest(), _GRID_ATOMS)
    denom = 1.0 + np.outer(s, grid)
    clear = np.abs(denom).min(axis=0) >= _GRID_POLE_GAP
    if clear.sum() < k:
        return None
    grid, denom = grid[clear], denom[:, clear]
    design = np.vstack([net.ratio() * grid / denom, np.full(grid.size, _GRID_MASS_ROW)])
    target = np.append(net.points + 1.0 / s, _GRID_MASS_ROW)
    mass, _ = optimize.nnls(design, target)
    keep = mass >= _GRID_PRUNE * mass.sum()
    if 1 + np.count_nonzero(np.diff(np.flatnonzero(keep)) > 1) < k:
        keep = mass > 0.0
    if keep.sum() < k:
        return None
    atoms, mass = grid[keep], mass[keep]
    widest = np.argsort(np.diff(np.log(atoms)))[atoms.size - k:]
    firsts = np.concatenate([[0], np.sort(widest) + 1])
    weights = np.add.reduceat(mass, firsts)
    return np.add.reduceat(mass * atoms, firsts) / weights, weights


def _nnls_start(net: UNet, k: int) -> NDArray:
    """Raw start of the atomic search: the merged grid fit of ``_grid_fit``,
    or sample-spectrum quantiles with equal weights when it has none."""
    start = _grid_fit(net, k)
    if start is None:
        pos = net.spectrum.eigenvalues[net.spectrum.eigenvalues > 0.0]
        start = np.quantile(pos, (np.arange(k) + 0.5) / k), np.ones(k)
    atoms0, weights = start
    gaps0 = np.maximum(np.diff(np.concatenate([[0.0], atoms0])), 1e-4 * atoms0[-1] / k)
    return np.concatenate([np.log(gaps0), np.log(weights[:-1] / weights[-1])])


def fit_discrete(net: UNet, k: int) -> FitResult:
    """Fit a k-atom spectrum by trust-region least squares.

    The ratio c is the net's p/n.  One ``scipy.optimize.least_squares``
    run minimizes the residual vector with its analytic Jacobian, for at
    most 2000 residual evaluations.  It starts from a nonnegative
    least-squares fit of the weights of a fixed grid of atoms, merged into
    k atoms (see ``_grid_fit``), or from sample-spectrum quantiles with
    equal weights when fewer than k grid atoms carry weight.  The start is
    deterministic.  A search that ends inside the pole guard raises
    IterationError.
    """
    k = int(k)
    if k < 1:
        raise ValueError("k must be at least 1")
    if net.m < 2 * k - 1:
        raise ValueError(f"net has {net.m} points but {2 * k - 1} are required")
    c = net.ratio()
    res = optimize.least_squares(
        _discrete_residual, _nnls_start(net, k), jac=_discrete_jacobian,
        args=(k, net, c), method="trf", ftol=_LSQ_TOL, xtol=_LSQ_TOL,
        gtol=_LSQ_GTOL, max_nfev=_MAX_NFEV)
    if float(res.fun @ res.fun) >= _PENALTY:
        raise IterationError("the least-squares search ended inside the pole guard")
    model = params_to_model("discrete", _raw_to_theta(res.x, k))
    return _finish(model, "discrete", net, c, int(res.nfev), bool(res.success))


def _project_nonneg_density(design, target, degree):
    """Least squares over the positive cone, as one nonnegative least squares.

    Feasible set: 1 + G a >= 0 with G_ir = t_i^r - r! on the validation
    grid, which is the density positivity constraint with the pinned
    constant eliminated.  With design = QR, a_ls = R^-1 Q' target and
    y = R (a - a_ls), the problem is the least-distance program
    min |y| subject to E y >= h, E = G R^-1, h = -1 - G a_ls, which one
    ``scipy.optimize.nnls`` solve of [E'; h'] u ~ e_{q+1} settles
    (Lawson and Hanson 1974, ch. 23): y = -r[:q] / r[q] with r the
    residual.  The all-zero coefficients are strictly feasible, so the
    residual never vanishes.  Returns the coefficients and the number of
    active grid constraints.
    """
    gmat = np.stack([_POSITIVITY_GRID**r - math.factorial(r)
                     for r in range(1, degree + 1)], axis=1)
    q, r = np.linalg.qr(design)
    a_ls = linalg.solve_triangular(r, q.T @ target)
    system = np.vstack([linalg.solve_triangular(r, gmat.T, trans="T"),
                        -1.0 - gmat @ a_ls])
    unit = np.eye(degree + 1)[-1]
    u, _ = optimize.nnls(system, unit)
    resid = system @ u - unit
    y = -resid[:degree] / resid[degree]
    return a_ls + linalg.solve_triangular(r, y), int(np.count_nonzero(u))


def fit_laguerre(net: UNet, degree: int) -> FitResult:
    """Fit a polynomial-exponential spectrum by linear least squares.

    The ratio c is the net's p/n.  The free coefficients enter the
    spectrum point map linearly once the pinned constant is substituted
    out, so the fit is a single orthogonal factorization.  Solutions whose
    density dips below -0.15 on the validation grid ([0, 50] at step
    0.01) are replaced by the exact least-squares minimizer whose density
    is nonnegative on that grid (see ``_project_nonneg_density``);
    shallower dips pass through untouched so that spectra touching zero
    are not pinned to the boundary.
    """
    degree = int(degree)
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if net.m < degree:
        raise ValueError(f"net has {net.m} points but {degree} are required")
    c = net.ratio()
    s = net.companion_values
    if np.any(s <= 0.0):
        raise ValueError("net contains nonpositive companion values; "
                         "build it for a smooth family")
    moments = laguerre_moment_integrals(s, degree)
    facts = np.array([math.factorial(r) for r in range(1, degree + 1)])
    design = (c * (moments[1:] - facts[:, None] * moments[0])).T
    target = net.points + 1.0 / s - c * moments[0]
    coeffs, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < degree:
        raise RankError(f"design matrix has rank {rank} < {degree}; "
                        f"enlarge the evaluation net")
    iterations = 0
    poly = np.polynomial.polynomial.polyval(
        _POSITIVITY_GRID, np.concatenate([[1.0 - facts @ coeffs], coeffs]))
    if (poly * np.exp(-_POSITIVITY_GRID)).min() < _PROJECTION_TRIGGER:
        coeffs, iterations = _project_nonneg_density(design, target, degree)
    model = Laguerre(coeffs)
    return _finish(model, "laguerre", net, c, iterations, True)


def fit_inverse_cubic(net: UNet) -> FitResult:
    """Fit the inverse-cubic family by coarse grid plus bounded search.

    The ratio c is the net's p/n.  The single parameter ranges over
    [0, 1); a 200-point grid brackets the minimum and
    ``scipy.optimize.minimize_scalar`` (bounded Brent method, absolute
    tolerance 1e-7) pins it down inside that bracket.
    """
    f = lambda alpha: objective(np.array([alpha]), "inverse_cubic", net)
    alphas = np.linspace(0.0, 1.0 - 1e-6, _IC_COARSE)
    i = int(np.argmin([f(a) for a in alphas]))
    lo = alphas[max(i - 1, 0)]
    hi = alphas[min(i + 1, _IC_COARSE - 1)]
    res = optimize.minimize_scalar(f, bounds=(lo, hi), method="bounded",
                                   options={"xatol": _IC_XATOL})
    model = InverseCubic(float(res.x))
    return _finish(model, "inverse_cubic", net, net.ratio(),
                   _IC_COARSE + int(res.nfev), bool(res.success))
