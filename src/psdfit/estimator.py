"""Least-squares recovery of a population spectrum from sample eigenvalues.

The estimation recipe: pick spectrum points u_j outside the sample bulk,
cache the companion Stieltjes transform there, and choose the model
parameters that make the model-side spectrum point map reproduce the
u_j best in the least-squares sense.  Atomic models go through one
trust-region least-squares search over the atoms alone, started from the
sample quantiles, with the weights of any atoms given by one nonnegative
least-squares solve (variable projection), so no random numbers are
drawn; the polynomial-exponential family is linear in its
coefficients and solves in one orthogonal factorization, plus one
nonnegative least-squares solve when its density has to be projected
back onto the positive cone; the inverse-cubic family is a coarse grid
followed by a bounded one-dimensional search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy import linalg, optimize

from .errors import IterationError, NearPoleError, RankError
from .models import (_POSITIVITY_GRID, Discrete, InverseCubic, Laguerre,
                     PSDModel, _laguerre_moments)
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
_MASS_ROW = 1e3      # scale of the total-mass row of the weight fit
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
        return _PENALTY + max(0.0, POLE_GUARD - err.margin)
    diff = net.points - uhat
    return float(diff @ diff)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of a family fit against an evaluation net.

    ``iterations`` counts the residual evaluations of the least-squares
    search over the atoms for the atomic family (each one nonnegative
    least-squares solve for the weights), the active grid constraints of
    the positivity projection for the polynomial-exponential family (0
    when the unconstrained fit is kept) and objective evaluations for the
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


def _projection(raw: NDArray, net: UNet, c: float):
    """Atoms, table 1 + a_i s_j, weights and weight design of a raw vector.

    The atoms are cumulative sums of exp(raw), so any raw vector gives
    positive increasing atoms.  For fixed atoms, u_j + 1/s_j = c sum_i w_i a_i / (1 + a_i s_j) is
    linear in the weights, so one ``scipy.optimize.nnls`` solve, with
    total mass one as an extra row scaled by 1e3, gives them; they are
    then rescaled to sum to one.  Inside the pole guard, where some
    |1 + a_i s_j| < POLE_GUARD (``mp_u_map``'s rule at the atoms), the
    weights and the design are None.
    """
    s = net.companion_values
    atoms = np.cumsum(np.exp(np.clip(raw, -40.0, 40.0)))
    denom = 1.0 + np.outer(atoms, s)
    if np.abs(denom).min() < POLE_GUARD:
        return atoms, denom, None, None
    design = np.vstack([c * atoms / denom.T, np.full(atoms.size, _MASS_ROW)])
    weights, _ = optimize.nnls(design, np.append(net.points + 1.0 / s, _MASS_ROW))
    return atoms, denom, weights / weights.sum(), design


def _discrete_residual(raw: NDArray, net: UNet, c: float) -> NDArray:
    """Residual net.points - u_hat of the atoms a raw vector encodes, with
    their projected weights.

    Inside the pole guard it is a finite penalty vector whose squared norm
    is the objective's penalty, so a step into the guard is rejected.
    """
    s = net.companion_values
    atoms, denom, weights, _ = _projection(raw, net, c)
    if weights is None:
        out = np.zeros(net.m)
        out[0] = math.sqrt(_PENALTY + (POLE_GUARD - np.abs(denom).min()))
        return out
    # mp_u_map's order of operations, so that the search minimizes the
    # objective the fit reports, rounding included
    return net.points - (-1.0 / s + c * ((weights * atoms) @ (1.0 / denom)))


def _discrete_jacobian(raw: NDArray, net: UNet, c: float) -> NDArray:
    """Kaufman's Jacobian of ``_discrete_residual`` in the raw parameters.

    J = -(I - QQ')D on the data rows, with D_ji = c w_i / (1 + a_i s_j)^2
    (zero in the mass row) and Q an orthonormal basis of the design
    columns whose weight is positive; it drops the term of the exact
    variable-projection Jacobian that scales with the residual.
    """
    atoms, denom, weights, design = _projection(raw, net, c)
    if weights is None:
        return np.zeros((net.m, raw.size))
    d_atom = np.zeros(design.shape)
    d_atom[:-1] = c * weights / denom.T**2
    q, _ = np.linalg.qr(design[:, weights > 0.0])
    jac = -(d_atom - q @ (q.T @ d_atom))[:-1]
    # a_i sums exp(raw_l) over l <= i
    jac = np.cumsum(jac[:, ::-1], axis=1)[:, ::-1] * np.exp(np.clip(raw, -40.0, 40.0))
    jac[:, np.abs(raw) > 40.0] = 0.0
    return jac


def _quantile_start(net: UNet, k: int) -> NDArray:
    """Raw start of the atomic search: the (i + 1/2)/k quantiles of the
    positive sample eigenvalues, i = 0..k-1."""
    pos = net.spectrum.eigenvalues[net.spectrum.eigenvalues > 0.0]
    atoms0 = np.quantile(pos, (np.arange(k) + 0.5) / k)
    return np.log(np.maximum(np.diff(atoms0, prepend=0.0), 1e-4 * atoms0[-1] / k))


def fit_discrete(net: UNet, k: int) -> FitResult:
    """Fit a spectrum of at most k atoms by variable projection.

    The ratio c is the net's p/n.  One ``scipy.optimize.least_squares``
    trust-region run searches over the k atoms only, from the sample
    quantiles (see ``_quantile_start``), with Kaufman's Jacobian, for at
    most 2000 residual evaluations; for any atoms the weights are the
    nonnegative least-squares solution (see ``_projection``).  The start
    is deterministic.  Atoms whose weight ends exactly 0 are dropped, so
    the model may have fewer than k atoms.  A search that ends inside the
    pole guard raises IterationError.
    """
    k = int(k)
    if k < 1:
        raise ValueError("k must be at least 1")
    if net.m < 2 * k - 1:
        raise ValueError(f"net has {net.m} points but {2 * k - 1} are required")
    c = net.ratio()
    res = optimize.least_squares(
        _discrete_residual, _quantile_start(net, k), jac=_discrete_jacobian,
        args=(net, c), method="trf", ftol=_LSQ_TOL, xtol=_LSQ_TOL,
        gtol=_LSQ_GTOL, max_nfev=_MAX_NFEV)
    atoms, _, weights, _ = _projection(res.x, net, c)
    if weights is None:
        raise IterationError("the least-squares search ended inside the pole guard")
    keep = weights > 0.0
    model = Discrete(atoms[keep], weights[keep])
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
    moments = _laguerre_moments(s, degree)[0]
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
